"""Benchmark of the pseudograd command line: train, ablate and verify.

Usage, from the repository root:

    python3 bench/run.py --workload train_moons --seed 7 --seconds 25 --trace 0

One client drives ``pseudograd.cli.main`` in this process as a closed loop:
the next command starts only after the previous one returns. Each command is
one op, timed from call to return and checked for correct output; times
are reported at one reference speed of the host by ``speed.Probe``. With
``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` it runs
untraced ops for half the time, then ops with every layer wrapped by
``spans.Tracer``, and reports per-layer metrics normalised per op. The last
line of standard output is the result as one JSON object; the line before it
records the environment. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "pseudograd"
DEFAULT_SEED = 7

# Seeds per grid cell of the ablate op: 5 strategy cells x 4 = 20 pipelines.
ABLATE_SEEDS = 4

TRAIN_ARTIFACTS = (
    "report.csv",
    "pseudo_table.csv",
    "pseudo_table.json",
    "checkpoint_stage1.json",
    "checkpoint_stage2.json",
    "checkpoint_stage3.json",
    "manifest.json",
)
# Checks that hold on any trained artifact; flatness and the link residual
# hold only on a converged one and are recorded, not asserted.
VERIFY_ASSERTED = ("gradient_oracle", "flatness_algebraic", "sum_invariance")


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


# ---------------------------------------------------------------------------
# What the traced run wraps


@dataclass(frozen=True)
class Target:
    name: str  # span name, "<module>.<fn>"
    module: str  # module of the program that defines it
    attr: str  # attribute path inside that module
    hot: bool = False  # also report per-call us_p50 / us_p99
    rows: bool = False  # second argument is a batch; count its rows
    cpu: bool = False  # record CPU time for cpu_per_wall
    count_only: bool = False  # count calls without a span


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("cli.run_ablation", "cli", "run_ablation", cpu=True),
    Target("trainer.run_pipeline", "trainer", "run_pipeline"),
    Target("trainer.build_dataset", "trainer", "build_dataset"),
    Target("trainer.stage1", "trainer", "stage1_supervised"),
    Target("trainer.stage2", "trainer", "stage2_joint"),
    Target("trainer.stage3", "trainer", "stage3_finetune"),
    Target("trainer.joint_epoch", "trainer", "_joint_epoch", hot=True),
    Target("trainer.eval", "trainer", "_eval_row", hot=True),
    Target("trainer.report_to_csv", "trainer", "Report.to_csv"),
    Target("model.forward_batch", "model", "forward_batch", hot=True, rows=True),
    Target("model.backward", "model", "backward", hot=True),
    Target("model.save_checkpoint", "model", "save_checkpoint"),
    Target("model.load_checkpoint", "model", "load_checkpoint"),
    Target("optimizer.sgd_nesterov_step", "optimizer", "sgd_nesterov_step", hot=True),
    Target("optimizer.pseudo_step", "optimizer", "pseudo_step", hot=True),
    Target("loss.loss_terms_rows", "loss", "loss_terms_rows", hot=True),
    Target("loss.grad_wrt_logits_rows", "loss", "grad_wrt_logits_rows", hot=True),
    Target("loss.grad_wrt_pseudo_logits_rows", "loss", "grad_wrt_pseudo_logits_rows", hot=True),
    Target("pseudo_labels.init_pseudo", "pseudo_labels", "init_pseudo"),
    Target("pseudo_labels.repredict", "pseudo_labels", "repredict"),
    Target("pseudo_labels.save_table", "pseudo_labels", "save_table"),
    Target("pseudo_labels.export_csv", "pseudo_labels", "export_csv"),
    Target("pseudo_labels.load_table", "pseudo_labels", "load_table"),
    Target("theory.link_residuals", "theory", "link_residuals", hot=True),
    Target("theory.check_link_residual", "theory", "check_link_residual"),
    Target("theory.check_flatness", "theory", "check_flatness"),
    Target("theory.flatness_bound_check", "theory", "flatness_bound_check"),
    Target("theory.finite_diff_suite", "theory", "finite_diff_suite"),
    Target("theory.run_verification", "theory", "run_verification"),
    Target("numerics.softmax_rows", "numerics", "softmax_rows", count_only=True),
)
HOT_SPANS = frozenset(t.name for t in TARGETS if t.hot)
EVAL_SPANS = frozenset({"trainer.eval"})
STAGE_SPANS = frozenset({"trainer.stage1", "trainer.stage2", "trainer.stage3"})

# Metrics derived from several spans, each with its unit.
DERIVED_METRICS = (
    ("trainer.eval.share", "ratio"),
    ("trainer.eval.forward_rows_per_row", "ratio"),
    ("model.forward_batch.rows_eval", "count"),
    ("model.forward_batch.rows_train", "count"),
    ("cli.run_ablation.cpu_per_wall", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("op.wall_s_p50", "s"),
    ("host.probe_us", "us"),
)

# Per-layer values that do not apply to a workload (no samples, no calls)
# read -1, as report.csv does for fields that do not apply to a stage.
NA = -1.0


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    out = []
    for t in TARGETS:
        out.append((f"{t.name}.calls", "count"))
        if t.count_only:
            continue
        out.append((f"{t.name}.self_ms", "ms"))
        if t.hot:
            out += [(f"{t.name}.us_p50", "us"), (f"{t.name}.us_p99", "us")]
    return out + list(DERIVED_METRICS)


def install_tracer(tracer: spans.Tracer) -> None:
    for t in TARGETS:
        owner = sys.modules[f"{PACKAGE}.{t.module}"]
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.install(
            t.name, owner, attr, PACKAGE, rows=t.rows, cpu=t.cpu, count_only=t.count_only
        )


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class State:
    """Inputs of one workload run, made by setup from the seed."""

    work: Path
    config_path: Path
    cfg: object  # pseudograd.trainer.TrainConfig
    n_labeled: int
    n_train: int
    n_test: int
    test_acc: float = NA  # set by setup for workloads whose ops do not train
    reference: object = None  # the first op's output; later ops must match it

    @property
    def out(self) -> Path:
        return self.work / "out"


def pipeline_counts(cfg, n_labeled: int, n_train: int) -> Counter:
    """Calls one ``run_pipeline`` makes, derived from the config alone."""
    s1, s2, s3 = cfg.stage1, cfg.stage2, cfg.stage3
    steps1 = s1.epochs * math.ceil(n_labeled / s1.batch)
    epochs2 = s2.rounds * s2.epochs
    steps2 = epochs2 * max(1, math.ceil(n_train / s2.batch))
    steps3 = s3.epochs * math.ceil(n_train / s3.batch)
    return Counter(
        {
            "optimizer.sgd_nesterov_step": steps1 + steps2 + steps3,
            "model.backward": steps1 + steps2 + steps3,
            "optimizer.pseudo_step": steps2,
            "trainer.joint_epoch": epochs2,
            "trainer.eval": s1.epochs + epochs2 + s3.epochs,
            "pseudo_labels.init_pseudo": 1,
            "pseudo_labels.repredict": (s2.rounds - 1) if s2.repredict_between_rounds else 0,
            "trainer.run_pipeline": 1,
            "trainer.build_dataset": 1,
        }
    )


class Workload:
    name = ""
    config = ""  # committed config the op runs, relative to the repo root
    pipelines = 1  # pipelines one op trains or checks, for pipelines_per_norm_s
    setup_repeats = 51

    def setup(self, cli, st: State) -> None:
        """Workload-specific inputs beyond the seeded config."""

    def prepare(self, st: State) -> None:
        """Untimed, before each op: remove the previous op's output."""
        shutil.rmtree(st.out, ignore_errors=True)

    def argv(self, st: State) -> list[str]:
        raise NotImplementedError

    def check(self, cli, st: State, rc: int) -> tuple[list[str], float]:
        """(problems, test accuracy) of the op that just returned ``rc``."""
        raise NotImplementedError

    def expected_counts(self, cli, st: State) -> Counter:
        raise NotImplementedError

    def summary(self, st: State) -> str:
        return ""


def _same_as_first(st: State, value, what: str) -> list[str]:
    if st.reference is None:
        st.reference = value
        return []
    return [] if value == st.reference else [f"{what} differs from the first op's"]


class TrainMoons(Workload):
    name = "train_moons"
    config = "configs/moons_ssl.json"

    def argv(self, st):
        return ["train", "--config", str(st.config_path), "--out", str(st.out)]

    def check(self, cli, st, rc):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        missing = [a for a in TRAIN_ARTIFACTS if not (st.out / a).is_file()]
        if missing:
            return problems + [f"missing artifacts {missing}"], NA
        report = (st.out / "report.csv").read_bytes()
        problems += _same_as_first(st, report, "report.csv")
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        drift = max(float(r["max_sum_drift"]) for r in rows if r["stage"] == "2")
        if not drift < 1e-6:
            problems.append(f"stage-2 max_sum_drift {drift!r} >= 1e-6")
        return problems, float(rows[-1]["test_acc"])

    def expected_counts(self, cli, st):
        return Counter(
            {
                **pipeline_counts(st.cfg, st.n_labeled, st.n_train),
                "model.save_checkpoint": 3,
                "pseudo_labels.save_table": 1,
                "pseudo_labels.export_csv": 1,
                "trainer.report_to_csv": 1,
                "theory.run_verification": 0,
            }
        )


class AblateTrend(Workload):
    name = "ablate_trend"
    config = "configs/blobs_trend.json"
    pipelines = 0  # set from the grid in setup

    def setup(self, cli, st):
        self.pipelines = len(cli.STRATEGY_CELLS) * ABLATE_SEEDS

    def argv(self, st):
        return [
            "ablate", "--grid", "strategy", "--seeds", str(ABLATE_SEEDS),
            "--config", str(st.config_path), "--out", str(st.out),
        ]  # fmt: skip

    def check(self, cli, st, rc):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        path = st.out / "ablation.csv"
        if not path.is_file():
            return problems + ["ablation.csv missing"], NA
        table = path.read_bytes()
        problems += _same_as_first(st, table, "ablation.csv")
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        cells = [r["cell"] for r in rows]
        if cells != list(cli.STRATEGY_CELLS):
            problems.append(f"cells {cells} != {list(cli.STRATEGY_CELLS)}")
        # every cell runs the same seeds, so the mean over cells of the
        # per-cell mean is the mean over all pipelines
        errors = [float(r["mean_test_error"]) for r in rows]
        return problems, 1.0 - statistics.fmean(errors) if errors else NA

    def expected_counts(self, cli, st):
        counts = Counter({"cli.run_ablation": 1, "model.save_checkpoint": 0})
        for opts in cli.STRATEGY_CELLS.values():
            cell = st.cfg.copy()
            cell.stage2.rounds = opts.get("rounds", cell.stage2.rounds)
            cell.stage2.repredict_between_rounds = opts["repredict"]
            for _ in range(ABLATE_SEEDS):
                counts.update(pipeline_counts(cell, st.n_labeled, st.n_train))
        return counts


class VerifyTrend(Workload):
    name = "verify_trend"
    config = "configs/blobs_trend.json"
    setup_repeats = 5

    def setup(self, cli, st):
        rc, text = call_cli(cli, ["train", "--config", str(st.config_path), "--out", str(st.out)])
        if rc != 0:
            raise SetupError(f"training the verify artifact exited {rc}:\n{text}")
        with (st.out / "report.csv").open(newline="") as f:
            st.test_acc = float(list(csv.DictReader(f))[-1]["test_acc"])

    def prepare(self, st):
        (st.out / "verification.json").unlink(missing_ok=True)

    def argv(self, st):
        return ["verify", "--config", str(st.config_path), "--out", str(st.out)]

    def check(self, cli, st, rc):
        path = st.out / "verification.json"
        if not path.is_file():
            return [f"exit code {rc}, verification.json missing"], st.test_acc
        doc = json.loads(path.read_text())
        verdicts = {k: v["pass"] for k, v in doc.items() if isinstance(v, dict)}
        problems = [f"{k} failed" for k in VERIFY_ASSERTED if not verdicts.get(k)]
        want_rc = 0 if doc["all_pass"] else 1
        if rc != want_rc:
            problems.append(f"exit code {rc}, expected {want_rc}")
        problems += _same_as_first(st, verdicts, "verdict map")
        return problems, st.test_acc

    def summary(self, st):
        # flatness is expected to FAIL on this unconverged artifact; recorded here
        return f", verdicts {json.dumps(st.reference, sort_keys=True)}"

    def expected_counts(self, cli, st):
        training = ("optimizer.sgd_nesterov_step", "optimizer.pseudo_step", "trainer.joint_epoch",
                    "trainer.eval", "pseudo_labels.repredict", "trainer.run_pipeline")
        return Counter(
            {
                **dict.fromkeys(training, 0),  # verify trains nothing
                "theory.run_verification": 1,
                "theory.finite_diff_suite": 1,
                "theory.flatness_bound_check": 1,
                "theory.link_residuals": 2,
                "model.load_checkpoint": 1,
                "pseudo_labels.load_table": 1,
                "trainer.build_dataset": 1,
            }
        )


WORKLOADS = {w.name: w for w in (TrainMoons(), AblateTrend(), VerifyTrend())}


# ---------------------------------------------------------------------------
# Setup and environment


def import_program():
    """Import the program from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from pseudograd import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"{PACKAGE} resolved to {cli.__file__}, outside {src}")
    return cli


def setup(cli, wl: Workload, work: Path, seed: int) -> State:
    from pseudograd.trainer import build_dataset, load_config

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = json.loads((ROOT / wl.config).read_text())
    doc["seed"] = seed
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    cfg = load_config(config_path)
    split, test = build_dataset(cfg.data, cfg.seed)
    st = State(work, config_path, cfg, split.n_labeled, split.base.n_examples, test.n_examples)
    wl.setup(cli, st)
    return st


def _git_describe() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_describe": _git_describe(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# The closed loop


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class LayerTotals:
    """Per-layer sums over the traced ops of a run."""

    op_s: list[float] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    durations: dict[str, list[float]] = field(default_factory=dict)
    rows_eval: int = 0
    rows_train: int = 0
    cpu_s: float = 0.0
    cpu_wall_s: float = 0.0

    def add_op(self, tracer: spans.Tracer, op_s: float) -> Counter:
        """Fold one op's spans in; returns that op's call counts."""
        op_calls = Counter(tracer.call_counts())
        for s, self_s in zip(tracer.spans, spans.self_times(tracer.spans)):
            op_calls[s.name] += 1
            self.self_s[s.name] += self_s
            if s.name in HOT_SPANS:
                self.durations.setdefault(s.name, []).append(s.t1 - s.t0)
            if s.cpu_s:
                self.cpu_s += s.cpu_s
                self.cpu_wall_s += s.t1 - s.t0
        for i, s in enumerate(tracer.spans):
            if s.name == "model.forward_batch":
                if spans.has_ancestor(tracer.spans, i, EVAL_SPANS):
                    self.rows_eval += s.rows
                elif spans.has_ancestor(tracer.spans, i, STAGE_SPANS):
                    self.rows_train += s.rows
        self.calls += op_calls
        self.op_s.append(op_s)
        return op_calls


@dataclass
class RunStats:
    op_s: list[float] = field(default_factory=list)  # wall time
    norm_s: list[float] = field(default_factory=list)  # at the reference speed
    probe_s: list[float] = field(default_factory=list)  # mean probe time per op
    failed: int = 0
    test_acc: float = NA


def run_ops(cli, wl: Workload, st: State, seconds: float, stats: RunStats,
            tracer: spans.Tracer | None = None, totals: LayerTotals | None = None) -> None:
    """Start ops back to back until ``seconds`` have passed (at least one)."""
    expected = wl.expected_counts(cli, st) if tracer is not None else None
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        first = False
        wl.prepare(st)
        if tracer is not None:
            tracer.reset()
        argv = wl.argv(st)
        text = ""
        probe = speed.Probe()
        try:
            with probe:
                rc, text = call_cli(cli, argv)
        except Exception:  # an op that raises is a failed op; keep measuring
            rc = None
            text = traceback.format_exc()
        dt = probe.timing.wall_s
        stats.op_s.append(dt)
        stats.norm_s.append(probe.timing.norm_s)
        stats.probe_s.append(probe.timing.probe_s)
        if rc is None:
            problems = ["raised an exception"]
        else:
            try:
                problems, stats.test_acc = wl.check(cli, st, rc)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if tracer is not None:
            op_calls = totals.add_op(tracer, dt)
            problems += [
                f"{name}: {op_calls[name]} calls, config gives {n}"
                for name, n in expected.items()
                if op_calls[name] != n
            ]
        if problems:
            stats.failed += 1
            print(f"op {len(stats.op_s)} failed: {'; '.join(problems)}\n{text}", file=sys.stderr)


def end_to_end_metrics(wl: Workload, setup_s: list[float], stats: RunStats) -> dict:
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    n = len(stats.norm_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_norm_s_p50": (statistics.median(stats.norm_s), "s"),
        "pipelines_per_norm_s": (wl.pipelines / statistics.median(stats.norm_s), "1/s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),  # ru_maxrss is in KiB on Linux
        "test_acc": (stats.test_acc, "ratio"),
        "ok_frac": ((n - stats.failed) / n, "ratio"),
    }


def per_layer_values(totals: LayerTotals, st: State, stats: RunStats, n_plain: int) -> dict:
    """``stats`` holds ``n_plain`` untraced ops, then the traced ones."""
    ops = len(totals.op_s)
    out = {}
    for t in TARGETS:
        out[f"{t.name}.calls"] = totals.calls[t.name] / ops
        if t.count_only:
            continue
        out[f"{t.name}.self_ms"] = 1e3 * totals.self_s[t.name] / ops
        if t.hot:
            durations = totals.durations.get(t.name, [])
            for label, q in (("us_p50", 0.5), ("us_p99", 0.99)):
                v = spans.percentile(durations, q)
                out[f"{t.name}.{label}"] = NA if v is None else 1e6 * v
    evals = totals.calls["trainer.eval"]
    eval_s = sum(totals.durations.get("trainer.eval", []))
    out["trainer.eval.share"] = eval_s / sum(totals.op_s)
    out["trainer.eval.forward_rows_per_row"] = (
        totals.rows_eval / (evals * (st.n_train + st.n_test)) if evals else NA
    )
    out["model.forward_batch.rows_eval"] = totals.rows_eval / ops
    out["model.forward_batch.rows_train"] = totals.rows_train / ops
    cpw = spans.cpu_per_wall(totals.cpu_s, totals.cpu_wall_s)
    out["cli.run_ablation.cpu_per_wall"] = NA if cpw is None else cpw
    out["trace.overhead_frac"] = (
        statistics.median(stats.norm_s[n_plain:]) / statistics.median(stats.norm_s[:n_plain]) - 1.0
    )
    out["op.wall_s_p50"] = statistics.median(stats.op_s[:n_plain])
    out["host.probe_us"] = 1e6 * statistics.fmean(stats.probe_s)
    units = dict(per_layer_metrics())
    return {name: (out[name], units[name]) for name in units}


def parse_args(argv):
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED,
                   help="seed of the workload's config (default %(default)s)")
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / "bench" / ".work" / f"{wl.name}-{os.getpid()}"
    env = environment()
    try:
        setup_s, setup_wall_s = [], []
        try:
            for _ in range(wl.setup_repeats):
                with speed.Probe() as probe:
                    st = setup(cli, wl, work, args.seed)
                setup_s.append(probe.timing.norm_s)
                setup_wall_s.append(probe.timing.wall_s)
        except (SetupError, OSError) as exc:
            print(f"error: setup of {wl.name} failed: {exc}", file=sys.stderr)
            return 1
        stats = RunStats()
        if args.trace:
            run_ops(cli, wl, st, args.seconds / 2, stats)
            n_plain = len(stats.op_s)
            tracer, totals = spans.Tracer(), LayerTotals()
            install_tracer(tracer)
            try:
                run_ops(cli, wl, st, args.seconds / 2, stats, tracer, totals)
            finally:
                tracer.uninstall()
            metrics = per_layer_values(totals, st, stats, n_plain)
        else:
            run_ops(cli, wl, st, args.seconds, stats)
            metrics = end_to_end_metrics(wl, setup_s, stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    attempted = len(stats.op_s)
    print(
        f"{wl.name}: op_norm_s_p50 {statistics.median(stats.norm_s):.4f} s "
        f"(wall {statistics.median(stats.op_s):.4f} s, probe "
        f"{1e6 * statistics.fmean(stats.probe_s):.0f} us) over {attempted} ops, "
        f"setup_s {statistics.median(setup_s):.4f} s (wall {statistics.median(setup_wall_s):.4f} s), "
        f"{stats.failed} failed{wl.summary(st)}"
    )
    print(json.dumps({"env": env}))
    result = {
        "correct": stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run alternating parent/change pairs of the benchmark and judge a claimed gain.

    python3 tools/bench_pairs.py --base 1892b78 --workload verify_trend --json BENCH_25.json

Each revision is exported with ``git archive`` into its own temporary
directory, removed on every exit path (an error, Ctrl-C or SIGTERM too).
``--workload`` takes several names, each measured in ten pairs, the fewest
the gain rule below accepts. Before any pair, each tree runs ``bench/run.py
--workload W --seconds 0 --trace 1`` once per workload: one untraced op and
one traced op, whose call counts must pass the benchmark's count gate. Pair
``i`` (from 0) then runs ``bench/run.py --workload W --seconds S --trace 0``
once per side, with ``S`` the ``run_seconds`` of ``BENCHMARK.json``, the
base first when ``i`` is even and the head first when it is odd, so drift on
the host falls on both sides alike. Every run must report ``correct``: the
first that does not stops the tool, naming its side, its workload and the
tail of its output.

For each end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles (numpy's linear rule), the pairs the head wins,
loses and ties in the metric's ``better`` direction, whether the head's
median is within the metric's bound (its share of the base median), and
whether the gain rule holds: at least ten pairs were run, the head wins at
least nine tenths of them, and its median beats the base median by more
than the distance between the base's quartiles. ``--json`` also writes every run's metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # per workload: the fewest pairs the gain rule accepts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by numpy's linear rule."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], head: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` read by every run: both sides' quartiles,
    the pair counts, the bound check and the gain rule. ``base[i]`` and
    ``head[i]`` are pair ``i``'s ``{metric: value}`` maps."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        if not all(name in run for run in base + head):
            continue
        b = [float(run[name]) for run in base]
        h = [float(run[name]) for run in head]
        gains = [sign * (y - x) for x, y in zip(b, h)]
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(b), quartiles(h)
        wins = sum(g > 0 for g in gains)
        gap = sign * (hmed - bmed)  # > 0: the head's median is better
        out[name] = {
            "better": spec["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "head": {"median": hmed, "q1": hq1, "q3": hq3},
            "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "median_gap": gap,
            "base_iqr": bq3 - bq1,
            "within_bound": -gap <= spec["bound"] * abs(bmed),
            "gain_rule_holds": (len(gains) >= PAIRS and 10 * wins >= 9 * len(gains)
                                and gap > bq3 - bq1),
        }
    return out


def report_lines(summary: dict) -> list[str]:
    lines = []
    for name, s in summary.items():
        b, h = s["base"], s["head"]
        lines.append(
            f"{name} ({s['better']} is better): base {b['median']:.6g} [{b['q1']:.6g}, "
            f"{b['q3']:.6g}], head {h['median']:.6g} [{h['q1']:.6g}, {h['q3']:.6g}]; "
            f"head wins {s['wins']}, loses {s['losses']}, ties {s['ties']}; "
            f"median gap {s['median_gap']:.6g} vs base IQR {s['base_iqr']:.6g}; "
            f"within bound: {'yes' if s['within_bound'] else 'NO'}; "
            f"gain rule: {'holds' if s['gain_rule_holds'] else 'does not hold'}")
    return lines


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` in this repository, written under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def result_metrics(stdout: str) -> dict | None:
    """The ``{metric: value}`` map of the result that ``bench/run.py`` prints
    as its last line, or None when that result is not ``correct``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()} if result["correct"] else None


def run_bench(tree: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    """One run in ``tree``, the side of its name: its ``{metric: value}`` map.
    A run that exits non-zero or is not ``correct`` raises RuntimeError."""
    argv = ["bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    metrics = result_metrics(proc.stdout) if proc.returncode == 0 else None
    if metrics is None:
        raise RuntimeError(f"{tree.name}: {workload}: {' '.join(argv)} failed "
                           f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    print(f"  {tree.name}: {proc.stdout.strip().splitlines()[0]}", flush=True)
    return metrics


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds, so the temporary trees are removed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="parent revision")
    p.add_argument("--head", default="HEAD", help="changed revision")
    p.add_argument("--workload", required=True, nargs="+", help="run in the order given")
    p.add_argument("--json", type=Path, help="also write the runs and the summaries here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    signal.signal(signal.SIGTERM, _terminate)
    revs = {side: subprocess.run(["git", "rev-parse", "--short", getattr(args, side)], cwd=ROOT,
                                 capture_output=True, text=True, check=True).stdout.strip()
            for side in ("base", "head")}
    runs = {w: {"base": [], "head": []} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        for workload in runs:
            for side, tree in trees.items():
                print(f"{workload}: traced count gate, {side}", flush=True)
                run_bench(tree, workload, 0, trace=1)
        for workload, sides in runs.items():
            for i in range(PAIRS):
                print(f"{workload}: pair {i + 1} of {PAIRS}", flush=True)
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    sides[side].append(run_bench(trees[side], workload, seconds))
    summaries = {w: summarize(sides["base"], sides["head"], spec["end_to_end"])
                 for w, sides in runs.items()}
    for workload, summary in summaries.items():
        print("\n".join([f"{workload}:", *report_lines(summary)]))
    if args.json is not None:
        doc = {"revisions": revs, "seconds": seconds, "pairs": PAIRS,
               "order": "base first in pairs 0, 2, 4, ...",
               "workloads": {w: {"runs": runs[w], "summary": summaries[w]} for w in runs}}
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

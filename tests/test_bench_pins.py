"""The benchmark in ``bench/run.py`` wraps program functions by name when it
traces a run; every name it pins must resolve, so that renaming one fails
here and not only in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

from conftest import load_script

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    return load_script(BENCH / "run.py")  # run.py imports its siblings spans and speed


def test_every_traced_target_resolves(bench_run):
    assert bench_run.TARGETS
    for target in bench_run.TARGETS:
        owner = importlib.import_module(f"{bench_run.PACKAGE}.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{target.name}: {target.module}.{target.attr} is gone"
        assert callable(owner), f"{target.name} is not callable"


# names the benchmark reads outside TARGETS: its setup imports the first two
# from pseudograd.trainer, and its client calls cli.main
@pytest.mark.parametrize("module, attr", [("trainer", "build_dataset"),
                                          ("trainer", "load_config"), ("cli", "main")])
def test_untraced_names_resolve(bench_run, module, attr):
    owner = importlib.import_module(f"{bench_run.PACKAGE}.{module}")
    assert callable(getattr(owner, attr, None)), f"{module}.{attr} is gone"


def test_strategy_cells_keep_the_keys_the_benchmark_reads():
    from pseudograd.cli import STRATEGY_CELLS

    assert list(STRATEGY_CELLS) == ["single_round", "repeat", "repeat_repredict",
                                    "repeat_decay", "full_schedule"]
    for name, opts in STRATEGY_CELLS.items():
        assert isinstance(opts["repredict"], bool), name
        assert isinstance(opts.get("rounds", 1), int), name


def test_setup_and_expected_counts_run(bench_run, tmp_path):
    # the untimed half of a workload: seeded config, dataset and the call
    # counts derived from the config and the strategy cells
    cli = importlib.import_module(f"{bench_run.PACKAGE}.cli")
    for name in ("train_moons", "ablate_trend"):
        workload = bench_run.WORKLOADS[name]
        st = bench_run.setup(cli, workload, tmp_path / name, 0)
        assert workload.expected_counts(cli, st)["trainer.run_pipeline"] >= 1


@pytest.mark.parametrize("name", ["train_moons", "verify_trend"])
def test_one_traced_op_has_the_derived_counts(bench_run, tmp_path, name):
    # the traced run's gate on one op (seconds=0 runs exactly one): an op
    # whose call counts differ from those the benchmark derives from the
    # config counts as failed
    cli = importlib.import_module(f"{bench_run.PACKAGE}.cli")
    workload = bench_run.WORKLOADS[name]
    st = bench_run.setup(cli, workload, tmp_path / name, bench_run.DEFAULT_SEED)
    stats, tracer = bench_run.RunStats(), bench_run.spans.Tracer()
    bench_run.install_tracer(tracer)
    try:
        bench_run.run_ops(cli, workload, st, 0, stats, tracer, bench_run.LayerTotals())
    finally:
        tracer.uninstall()
    assert (len(stats.op_s), stats.failed) == (1, 0)


# the benchmark's span names of the calls that trainer.plan fixes
PLANNED_SPANS = {"optimizer.sgd_nesterov_step": "sgd_nesterov_step", "model.backward": "backward",
                 "optimizer.pseudo_step": "pseudo_step", "trainer.joint_epoch": "_joint_epoch",
                 "trainer.eval": "_eval_row", "pseudo_labels.repredict": "repredict"}


@pytest.mark.parametrize("config", ["moons_ssl", "blobs_trend", "blobs_convergence"])
def test_plan_counts_equal_the_benchmarks_derived_counts(bench_run, config):
    # the benchmark derives each pipeline's counts from the config on its
    # own; the trainer's plan must agree on every strategy cell, so that the
    # benchmark can read the plan instead
    from conftest import plan_counts
    from pseudograd.cli import GRIDS
    from pseudograd.trainer import build_dataset, load_config, plan

    cfg = load_config(BENCH.parent / "configs" / f"{config}.json")
    split, _ = build_dataset(cfg.data, cfg.seed)
    for name, changes in GRIDS["strategy"].items():
        cell = cfg.replace(changes)
        counts = plan_counts(plan(cell, split))
        derived = bench_run.pipeline_counts(cell, split.n_labeled, split.base.n_examples)
        assert {span: counts[fn] for span, fn in PLANNED_SPANS.items()} == \
            {span: derived[span] for span in PLANNED_SPANS}, name

"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import spans
from spans import Span

BENCH = Path(__file__).resolve().parent


def test_self_time_subtracts_nested_children():
    s = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.5, 0),
    ]
    assert spans.self_times(s) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    # children that overlap (or spill past the parent) cover their union only
    s = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),
        Span("z", 9.0, 12.0, 0),
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_has_ancestor_walks_the_parent_chain():
    s = [Span("eval", 0, 5, -1), Span("mid", 1, 4, 0), Span("leaf", 2, 3, 1)]
    assert spans.has_ancestor(s, 2, frozenset({"eval"}))
    assert not spans.has_ancestor(s, 0, frozenset({"eval"}))


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert spans.percentile(values, 0.5) == 500.0
    assert spans.percentile(values, 0.99) == 990.0
    assert spans.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert spans.samples_beyond(1000, 0.99) == 10
    assert spans.samples_beyond(999, 0.99) == 9
    assert spans.percentile([1.0] * 1000, 0.99) == 1.0
    assert spans.percentile([1.0] * 999, 0.99) is None
    assert spans.percentile([1.0] * 100, 0.9) == 1.0
    assert spans.percentile([1.0] * 99, 0.9) is None
    # the median needs one sample, nothing beyond it
    assert spans.percentile([4.0], 0.5) == 4.0
    assert spans.percentile([], 0.5) is None


def test_cpu_per_wall():
    assert spans.cpu_per_wall(1.96, 1.0) == pytest.approx(1.96)
    assert spans.cpu_per_wall(0.5, 2.0) == pytest.approx(0.25)
    assert spans.cpu_per_wall(1.0, 0.0) is None


def test_install_rebinds_every_import_site_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x, rows):
        return len(rows)

    core.work = work
    user.work = work  # as `from .core import work` binds it
    user.alias = work
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    try:
        tracer = spans.Tracer()
        tracer.install("core.work", core, "work", "fakepkg", rows=True)
        assert core.work is not work and user.work is core.work and user.alias is core.work
        user.work(None, [1, 2, 3])
        user.alias(None, [1])
        assert [(s.name, s.rows, s.parent) for s in tracer.spans] == [
            ("core.work", 3, -1),
            ("core.work", 1, -1),
        ]
        tracer.uninstall()
        assert core.work is work and user.work is work and user.alias is work
    finally:
        for name in mods:
            del sys.modules[name]


def test_benchmark_json_lists_the_metrics_run_py_reports():
    sys.path.insert(0, str(BENCH))
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    e2e = run.end_to_end_metrics(run.WORKLOADS["train_moons"], [1.0], run.RunStats([2.0], [2.0], [1e-4]))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]

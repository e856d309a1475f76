"""The summary arithmetic and the run check of tools/bench_pairs.py on
fabricated result lines; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(rss: float, op_s: float, correct: bool = True) -> str:
    """What bench/run.py prints: a summary line, the environment, the result."""
    metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"},
               "op_norm_s_p50": {"value": op_s, "unit": "s"},
               "ok_frac": {"value": 1.0, "unit": "ratio"}}
    result = {"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics}
    return "\n".join(["verify_trend: op_norm_s_p50 ...", json.dumps({"env": {}}),
                      json.dumps(result)]) + "\n"


def _summary(base: list[tuple[float, float]], head: list[tuple[float, float]]) -> dict:
    runs = [[bench_pairs.result_metrics(_stdout(*pair)) for pair in side] for side in (base, head)]
    return bench_pairs.summarize(*runs, END_TO_END)


BASE = [(46.50, 0.040), (46.45, 0.041), (46.55, 0.039), (46.52, 0.040), (46.48, 0.042),
        (46.51, 0.038), (46.47, 0.040), (46.53, 0.041), (46.49, 0.039), (46.50, 0.040)]


def test_quartiles_are_numpys_linear_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    np.testing.assert_allclose(bench_pairs.quartiles(values),
                               np.percentile(values, [25, 50, 75]), rtol=0, atol=1e-15)


def test_nine_wins_and_a_gap_beyond_the_base_iqr_hold():
    head = [(43.8, op) for _, op in BASE]
    head[3] = (46.6, 0.040)  # one loss
    s = _summary(BASE, head)["peak_rss_mb"]
    assert (s["wins"], s["losses"], s["ties"]) == (9, 1, 0)
    rss = [r for r, _ in BASE]
    assert s["base"]["median"] == pytest.approx(np.median(rss), abs=1e-12)
    assert s["base_iqr"] == pytest.approx(np.subtract(*np.percentile(rss, [75, 25])), abs=1e-12)
    assert s["median_gap"] == pytest.approx(np.median(rss) - 43.8, abs=1e-12)  # lower is better
    assert s["within_bound"] and s["gain_rule_holds"]


def test_ties_count_for_neither_side():
    s = _summary(BASE, BASE)["op_norm_s_p50"]
    assert (s["wins"], s["losses"], s["ties"]) == (0, 0, 10)
    assert s["median_gap"] == 0.0 and s["within_bound"] and not s["gain_rule_holds"]


def test_eight_wins_of_ten_do_not_hold():
    head = [(43.8, op) for _, op in BASE]
    head[0] = head[5] = (47.0, 0.040)
    s = _summary(BASE, head)["peak_rss_mb"]
    assert (s["wins"], s["losses"]) == (8, 2)
    assert s["median_gap"] > s["base_iqr"] and not s["gain_rule_holds"]


def test_fewer_than_ten_pairs_do_not_hold():
    head = [(43.8, op) for _, op in BASE]
    s = _summary(BASE[:9], head[:9])["peak_rss_mb"]
    assert s["wins"] == 9 and s["median_gap"] > s["base_iqr"] and not s["gain_rule_holds"]
    s = _summary(BASE[:3], head[:3])["peak_rss_mb"]
    assert s["wins"] == 3 and not s["gain_rule_holds"]


def test_ten_wins_inside_the_base_iqr_do_not_hold():
    head = [(rss - 0.005, op) for rss, op in BASE]
    s = _summary(BASE, head)["peak_rss_mb"]
    assert s["wins"] == 10
    assert 0 < s["median_gap"] <= s["base_iqr"] and not s["gain_rule_holds"]


def test_worse_by_more_than_the_bound_is_out_of_bound():
    # op_norm_s_p50 may worsen by 25% of the base median; higher is worse
    head = [(rss, 0.040 * 1.3) for rss, _ in BASE]
    s = _summary(BASE, head)["op_norm_s_p50"]
    assert s["losses"] == 10 and s["median_gap"] < 0 and not s["within_bound"]
    assert _summary(BASE, [(rss, 0.040 * 1.2) for rss, _ in BASE])["op_norm_s_p50"][
        "within_bound"]


def test_a_result_that_failed_its_check_has_no_metrics():
    assert bench_pairs.result_metrics(_stdout(46.5, 0.04, correct=False)) is None


def test_a_run_that_is_not_correct_stops_naming_its_side_and_workload(monkeypatch):
    # what a traced run that breaks the count gate gives: exit 0, correct false
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=_stdout(46.5, 0.04, correct=False),
                                           stderr="op 2 failed: trainer.eval 231 != 230\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError, match=r"(?s)^head: train_moons: .*trainer\.eval 231 != 230"):
        bench_pairs.run_bench(Path("trees") / "head", "train_moons", 0, trace=1)
    assert calls[0][1:] == ["bench/run.py", "--workload", "train_moons", "--seconds", "0",
                            "--trace", "1"]


def test_metrics_no_run_reports_are_left_out():
    assert set(_summary(BASE, BASE)) == {"peak_rss_mb", "op_norm_s_p50", "ok_frac"}

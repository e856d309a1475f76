import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import solve_link_point
from pseudograd import theory
from pseudograd.config import ConfigError
from pseudograd.data import gen_gaussian_blobs, split_per_class
from pseudograd.loss import JointLoss, LossConfig, loss_terms_rows
from pseudograd.loss import VARIANTS
from pseudograd.model import Architecture, ModelParams, init_params
from pseudograd.numerics import InvalidInputError, clamped_log, random_stream, softmax_rows
from pseudograd.pseudo_labels import PseudoTable, init_pseudo


def _residual_of(p_hat, p_tilde, cfg):
    lc, le = loss_terms_rows(p_hat[None, :], p_tilde[None, :], cfg)
    total = cfg.alpha * float(lc[0]) + cfg.beta * float(le[0])
    n = int(np.argmax(p_hat))
    return (
        (cfg.alpha - cfg.beta) * float(clamped_log(p_hat[n : n + 1])[0])
        - cfg.alpha * float(clamped_log(p_tilde[n : n + 1])[0])
        - total
    )


def _nan_backward(trace, grad_y, params):
    return ModelParams(params.arch, np.full(params.flat.size, np.nan))


def _nan_loss_terms(p_hat, p_tilde, cfg, logs=None):
    nan = np.full(p_hat.shape[0], np.nan)
    return nan, nan


def _nan_weighted_loss(p_hat, p_tilde, variant, alpha, beta):
    nan = np.full(p_hat.shape, np.nan)
    return JointLoss(nan[:, 0], nan[:, 0], nan[:, 0], nan, nan)


def _bound_check_with_state(n_samples, seed, monkeypatch):
    """The bound check's result and the state its stream is left in."""
    made = []

    def recording(seed, stream_id=0):
        made.append(random_stream(seed, stream_id))
        return made[-1]

    monkeypatch.setattr(theory, "random_stream", recording)
    out = theory.flatness_bound_check(n_samples, seed)
    return out, made[0].bit_generator.state


class TestLinkPointOracle:
    @given(y=arrays(np.float64, st.integers(2, 7), elements=st.floats(-6.0, 6.0)),
           alpha=st.floats(0.05, 0.5), beta=st.floats(0.0, 0.04))
    def test_bisection_solution_has_zero_residual(self, y, alpha, beta):
        # and the link point is flatter at the top: it never exceeds the
        # prediction's top probability
        cfg = LossConfig(alpha=alpha, beta=beta)
        p_hat = softmax_rows(y[None, :])[0]
        p_tilde = solve_link_point(p_hat, cfg)
        assert abs(_residual_of(p_hat, p_tilde, cfg)) < 1e-8
        n = p_hat.argmax()
        assert p_tilde[n] <= p_hat[n] + 1e-12

    def test_solution_is_flatter_at_top(self):
        # the link point never exceeds the prediction's top probability
        cfg = LossConfig()
        rng = np.random.default_rng(22)
        for _ in range(50):
            p_hat = softmax_rows(rng.normal(size=(1, 4)) * 2)[0]
            p_tilde = solve_link_point(p_hat, cfg)
            n = p_hat.argmax()
            assert p_tilde[n] <= p_hat[n] + 1e-12

    def test_fresh_table_residual_nonzero(self):
        # p_tilde = p_hat on a fresh, unconverged model: the statistic must
        # not be trivially zero
        ds = gen_gaussian_blobs(3, 30, 2, 1.0, seed=5)
        split = split_per_class(ds, 3, seed=5)
        params = init_params(Architecture(2, (8,), 3), seed=11)
        table = init_pseudo(split, params)
        _, _, res = theory.link_residuals(params, table, split, LossConfig())
        assert np.abs(res).max() > 1e-4

    def test_wrong_variant_rejected(self):
        ds = gen_gaussian_blobs(2, 10, 2, 0.5, seed=0)
        split = split_per_class(ds, 2, seed=0)
        params = init_params(Architecture(2, (), 2), seed=0)
        table = init_pseudo(split, params)
        cfg = LossConfig(variant="l2")
        with pytest.raises(ConfigError):
            theory.check_link_residual(params, table, split, cfg)


class TestFlatnessAlgebra:
    def test_uniform_two_class_link_point(self):
        cfg = LossConfig()
        p_hat = np.array([0.5 + 1e-9, 0.5 - 1e-9])
        p_tilde = solve_link_point(p_hat, cfg)
        assert p_tilde[0] <= 0.5 + 1e-6

    def test_random_bound_check_no_violations(self):
        out = theory.flatness_bound_check(20_000, seed=1)
        assert out["violations"] == 0
        assert out["max_excess"] <= 1e-12

    @pytest.mark.parametrize("n_samples", [0, 3])
    def test_fewer_samples_than_class_counts_rejected(self, n_samples):
        with pytest.raises(InvalidInputError, match="n_samples must be >= 4"):
            theory.flatness_bound_check(n_samples, seed=0)

    def test_one_sample_per_class_count(self):
        assert theory.flatness_bound_check(4, seed=0)["samples"] == 4

    def test_nan_bound_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(theory, "loss_terms_rows", _nan_loss_terms)
        out = theory.flatness_bound_check(100, seed=0)
        assert out["violations"] == 100
        assert np.isnan(out["max_excess"])

    def test_standard_exponential_draws_the_unit_gammas(self):
        # the bound check's Dirichlet rows: same values, same stream state after
        a, b = random_stream(3, stream_id=3), random_stream(3, stream_id=3)
        for shape in [(25_000, 2), (7, 10), (1, 3)]:
            np.testing.assert_array_equal(_bits(b.standard_exponential(size=shape)),
                                          _bits(a.gamma(1.0, 1.0, size=shape)))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n_samples", [4, 5, 999, 100_000])
    def test_row_blocks_change_no_bit(self, monkeypatch, n_samples, seed):
        want, want_state = _bound_check_with_state(n_samples, seed, monkeypatch)
        for block in (1, 7, 10**6):
            monkeypatch.setattr(theory, "FLAT_BLOCK_ROWS", block)
            got, state = _bound_check_with_state(n_samples, seed, monkeypatch)
            assert list(got) == list(want)
            np.testing.assert_array_equal(_bits(list(got.values())), _bits(list(want.values())))
            assert state == want_state

    def test_memory_stays_bounded(self):
        # two draw buffers of the largest class-count block (2 MB each at
        # 10^5 samples) and one row block's temporaries
        tracemalloc.start()
        try:
            theory.flatness_bound_check(100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7e6, f"traced peak {peak / 1e6:.1f} MB"


class TestSumInvariance:
    def test_single_step_drift(self):
        logits = np.array([[0.4, -1.2, 0.8]])
        table = PseudoTable(logits.copy(), np.array([False]), logits.sum(axis=1))
        from pseudograd.loss import joint_loss_rows
        from pseudograd.optimizer import pseudo_step

        p_hat = softmax_rows(np.array([[2.0, 0.0, -1.0]]))
        grads = joint_loss_rows(p_hat, softmax_rows(logits), LossConfig()).grad_pseudo
        pseudo_step(table, grads, 4000.0, [0])
        drift = table.sum_drift()
        assert drift.max() < 1e-12

    def test_drift_is_per_row(self):
        logits = np.zeros((2, 3))
        table = PseudoTable(logits.copy(), np.zeros(2, bool), logits.sum(axis=1))
        table.logits[0, 0] += 1e-7
        np.testing.assert_allclose(table.sum_drift(), [1e-7, 0.0], atol=1e-20)


class TestResidualDecline:
    def test_median_residual_decreases_over_converging_run(self):
        # the per-epoch residual median should fall essentially monotonically
        # while the joint optimization converges (<= 5% increasing epochs)
        from conftest import make_convergence_config
        from pseudograd.trainer import Report, build_dataset, stage1_supervised, stage2_joint

        cfg = make_convergence_config(rounds=1, epochs_per_round=300)
        split, test = build_dataset(cfg.data, cfg.seed)
        report = Report(split, test, cfg.loss)
        params = stage1_supervised(cfg, split)
        stage2_joint(cfg, params, split, report)
        p50 = np.array([r.link_residual_p50 for r in report.stage_rows(2)])
        assert p50[-1] < p50[0]
        assert (np.diff(p50) > 0).mean() <= 0.05


class TestEvalRowResidual:
    def test_report_quantiles_equal_check_link_residual(self):
        # the per-epoch report reuses its own forward; the verify path makes a
        # fresh one: both must give the same quantiles bit for bit
        from conftest import make_trend_config
        from pseudograd.trainer import Report, build_dataset, stage1_supervised, stage2_joint

        cfg = make_trend_config(seed=7).replace({"stage2.rounds": 1})
        split, test = build_dataset(cfg.data, cfg.seed)
        report = Report(split, test, cfg.loss)
        params = stage1_supervised(cfg, split)
        params, table = stage2_joint(cfg, params, split, report)
        row = report.stage_rows(2)[-1]
        section = theory.check_link_residual(params, table, split, cfg.loss)
        assert (row.link_residual_p50, row.link_residual_p90, row.link_residual_p99) == (
            section["p50"], section["p90"], section["p99"]
        )


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestResidualQuantiles:
    """``residual_quantiles`` partitions and interpolates itself on finite
    input; it must give the bits of the ``np.quantile`` call it replaces."""

    SIZES = [*range(1, 65), 591, 992, 1000]

    @staticmethod
    def _assert_numpy_bits(r):
        kept = r.copy()
        with np.errstate(invalid="ignore"):
            got = list(theory.residual_quantiles(r).values())
            want = np.quantile(np.abs(r), (0.5, 0.9, 0.99))
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"n={r.size}: {r}")
        np.testing.assert_array_equal(_bits(r), _bits(kept))  # the input is not reordered

    @pytest.mark.parametrize("kind", ["magnitudes", "ties", "zeros"])
    def test_numpy_bits(self, kind):
        rng = np.random.default_rng(len(kind))
        for n in self.SIZES:
            if kind == "magnitudes":  # signed, from 1e-3 to 1e3
                r = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            elif kind == "ties":  # few distinct values, zeros among them
                r = rng.integers(-3, 4, n) * 0.25
            else:
                r = np.zeros(n)
                r[rng.integers(0, n)] = -7.5e-3
            self._assert_numpy_bits(r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_gives_numpys_result(self, bad):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 591):
            for at in {0, n // 2, n - 1}:
                r = rng.normal(size=n)
                r[at] = bad
                self._assert_numpy_bits(r)

    def test_empty_input_raises_as_numpy_does(self):
        with pytest.raises(IndexError):
            np.quantile(np.abs(np.array([])), (0.5, 0.9, 0.99))
        with pytest.raises(IndexError):
            theory.residual_quantiles(np.array([]))


class TestOneLinkForward:
    @pytest.mark.parametrize("check, forwards", [("check_flatness", 1), ("run_verification", 2)])
    def test_unlabeled_rows_forwarded_once_per_check(self, monkeypatch, check, forwards):
        # check_link_residual and check_flatness each forward the unlabeled
        # rows once; the gradient oracle's 3-row batches are not counted
        ds = gen_gaussian_blobs(3, 30, 2, 1.0, seed=5)
        split = split_per_class(ds, 3, seed=5)
        params = init_params(Architecture(2, (8,), 3), seed=11)
        table = init_pseudo(split, params)
        rows = []
        forward = theory.forward_batch

        def counting(p, x):
            rows.append(x.shape[0])
            return forward(p, x)

        monkeypatch.setattr(theory, "forward_batch", counting)
        sizes = {"gradcheck_trials": 1, "algebraic_samples": 100} if check == "run_verification" else {}
        getattr(theory, check)(params, table, split, LossConfig(), **sizes)
        assert rows.count(split.n_unlabeled) == forwards


def _reference_central_diff(fn, x, h=theory.FD_STEP):
    """One coordinate at a time: move ``x[i]`` in place, call ``fn()`` at
    each side, restore it."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def _loss_total(y_hat, y_tilde, cfg):
    """One row pair's total loss as a Python float."""
    lc, le = loss_terms_rows(softmax_rows(y_hat), softmax_rows(y_tilde), cfg)
    return cfg.alpha * float(lc[0]) + cfg.beta * float(le[0])


class TestCentralDiff:
    """The stacked helper gives the per-coordinate loop's bits, input by
    input, and leaves its inputs alone."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nc", range(2, 8))
    def test_row_wise_loss_equals_the_loop(self, variant, nc):
        # ten inputs, so that the call on all of them crosses the
        # column-reduction gate; alpha and beta given per row
        rng = np.random.default_rng(nc)
        alpha, beta = rng.uniform(0.05, 0.5, size=10), rng.uniform(0.0, 0.04, size=10)
        y_hat, y_tilde = rng.normal(0.0, 2.0, size=(2, 10, nc))
        terms = LossConfig(variant=variant)

        def numeric(rows, wrt_pseudo):
            a, b = np.repeat(alpha[rows], 2 * nc), np.repeat(beta[rows], 2 * nc)
            if wrt_pseudo:
                fixed = np.repeat(y_hat[rows], 2 * nc, axis=0)
                return theory._central_diff(
                    lambda s: theory._loss_total_rows(fixed, s, terms, a, b), y_tilde[rows])
            fixed = np.repeat(y_tilde[rows], 2 * nc, axis=0)
            return theory._central_diff(
                lambda s: theory._loss_total_rows(s, fixed, terms, a, b), y_hat[rows])

        for wrt_pseudo in (True, False):
            each = [numeric([r], wrt_pseudo) for r in range(10)]
            np.testing.assert_array_equal(_bits(numeric(slice(None), wrt_pseudo)),
                                          _bits(np.concatenate(each)))
            for r in range(10):
                cfg = LossConfig(alpha=float(alpha[r]), beta=float(beta[r]), variant=variant)
                yh, yt = y_hat[r : r + 1].copy(), y_tilde[r : r + 1].copy()
                want = _reference_central_diff(lambda: _loss_total(yh, yt, cfg),
                                               yt if wrt_pseudo else yh)
                np.testing.assert_array_equal(_bits(each[r]), _bits(want))

    def test_looping_loss_equals_the_loop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=3)

        def loss(v):
            return float(np.tanh(v) @ w + np.sum(v * v * v))

        want = [_reference_central_diff(lambda: loss(row), row) for row in x.copy()]
        got = theory._central_diff(lambda stack: np.array([loss(row) for row in stack]), x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(_bits(got), _bits(np.stack(want)))

    def test_input_is_never_written(self):
        x = np.random.default_rng(6).normal(size=(3, 5))
        kept = x.copy()
        x.flags.writeable = False
        theory._central_diff(lambda stack: stack.sum(axis=1), x)
        np.testing.assert_array_equal(_bits(x), _bits(kept))

    def test_params_paths_leave_the_checked_network_unchanged(self, monkeypatch):
        made = []

        def recording(arch, seed):
            params = init_params(arch, seed)
            made.append((params, params.flat.copy()))
            return params

        monkeypatch.setattr(theory, "init_params", recording)
        theory.finite_diff_suite(seed=0, trials=20)
        assert len(made) == 4  # two trials at each depth
        for params, kept in made:
            np.testing.assert_array_equal(_bits(params.flat), _bits(kept))


class TestFiniteDiffSuite:
    def test_all_paths_within_bounds(self):
        worst = theory.finite_diff_suite(seed=0, trials=25)
        for path, err in worst.items():
            bound = 1e-5 if path == "params:deep" else 1e-6
            assert err < bound, f"{path}: {err}"

    def test_covers_every_variant_and_both_param_depths(self):
        worst = theory.finite_diff_suite(seed=1, trials=3)
        expected = {
            "pseudo:kl_pred_pseudo",
            "pseudo:kl_pseudo_pred",
            "pseudo:l2",
            "logits:kl_pred_pseudo",
            "logits:kl_pseudo_pred",
            "logits:l2",
            "params:linear",
            "params:deep",
        }
        assert set(worst) == expected

    def test_trial_blocks_change_no_bit(self, monkeypatch):
        want = theory.finite_diff_suite(seed=2, trials=25)
        monkeypatch.setattr(theory, "FD_BLOCK_TRIALS", 2)
        got = theory.finite_diff_suite(seed=2, trials=25)
        assert list(got) == list(want)
        np.testing.assert_array_equal(_bits(list(got.values())), _bits(list(want.values())))

    @pytest.mark.parametrize("name, nan_fn, failing", [
        ("backward", _nan_backward, {"params:linear", "params:deep"}),
        ("joint_loss_weighted_rows", _nan_weighted_loss,
         {f"{path}:{v}" for path in ("pseudo", "logits") for v in VARIANTS}),
        ("loss_terms_rows", _nan_loss_terms, None),  # every path
    ], ids=["analytic", "analytic-softmax", "numeric"])
    def test_non_finite_gradient_fails(self, monkeypatch, name, nan_fn, failing):
        monkeypatch.setattr(theory, name, nan_fn)
        doc = theory.gradient_oracle(seed=0, trials=10)
        worst = doc["worst_rel_err"]
        assert {p for p, err in worst.items() if err == np.inf} == (failing or set(worst))
        assert all(err < doc["tolerance"][p] for p, err in worst.items() if err != np.inf)
        assert doc["pass"] is False


class TestVerificationReport:
    def test_corrupted_table_fails_link_check(self):
        # the residual's sensitivity to the pseudo table scales with the
        # prediction's off-argmax mass, so corruption is checked on a softer
        # stage-1-only model rather than the fully sharpened fixture
        from conftest import make_trend_config
        from pseudograd.trainer import build_dataset, stage1_supervised

        cfg = make_trend_config(7)
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        table = init_pseudo(split, params)
        rng = np.random.default_rng(33)
        unl = split.unlabeled_idx
        table.logits[unl] = rng.normal(size=(unl.size, 3)) * 200.0
        doc = theory.run_verification(
            params, table, split, cfg.loss,
            gradcheck_trials=3, algebraic_samples=1000,
        )
        assert not doc["link_residual"]["pass"]
        assert not doc["all_pass"]

    def test_l2_variant_sum_check_informational(self, converged_run):
        cfg = LossConfig(variant="l2")
        doc = theory.run_verification(
            converged_run.params, converged_run.table, converged_run.split, cfg,
            gradcheck_trials=3, algebraic_samples=1000,
        )
        assert not doc["sum_invariance"]["asserted"]
        assert doc["sum_invariance"]["pass"]

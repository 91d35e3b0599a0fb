import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fpqr import QcovMetric, empirical_quantile, fit_fpqr, fit_pls, fit_quantile_regression, qcov_matrix, quantreg
from fpqr.evaluate import ModelRecipe, cross_validate, generate_simulation, make_simulation_spec, parse_recipe
from fpqr.exceptions import DimensionMismatch
from fpqr.fpqr import quantile_parts
from fpqr.pls import extract_components

from _oracles import check_loss_mean, local_minimum_certificate, reference_fpqr


def make_data(seed, n=60, m=6, l=2, noise="normal"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    B = rng.normal(size=(m, l))
    if noise == "normal":
        E = rng.normal(size=(n, l))
    elif noise == "t1":
        E = rng.standard_t(1, size=(n, l))
    else:
        raise ValueError(noise)
    return X, X @ B + E, B


class TestEquivalenceWithMeanFit:
    """The classical metric plus least-squares inner fit must reproduce fit_pls."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_classical_path_matches_pls(self, seed):
        X, Y, _ = make_data(seed)
        via_quantile_path = fit_fpqr(
            X, Y, n_components=4, metric="classical", least_squares_gamma=True
        )
        via_mean_path = fit_pls(X, Y, n_components=4)
        assert_allclose(
            via_quantile_path.decomposition.weights, via_mean_path.decomposition.weights, atol=1e-12
        )
        assert_allclose(via_quantile_path.gamma, via_mean_path.gamma, atol=1e-10)
        assert_allclose(via_quantile_path.coefficients, via_mean_path.coefficients, atol=1e-10)
        assert_allclose(via_quantile_path.predict(X), via_mean_path.predict(X), atol=1e-9)

    def test_callable_metric_matches_pls(self):
        X, Y, _ = make_data(4)
        model = fit_fpqr(
            X,
            Y,
            n_components=3,
            metric=lambda Xa, Ya: Xa.T @ Ya,
            least_squares_gamma=True,
        )
        baseline = fit_pls(X, Y, n_components=3)
        assert model.metric == "custom"
        assert_allclose(model.coefficients, baseline.coefficients, atol=1e-10)

    def test_classical_without_flag_rejected(self):
        X, Y, _ = make_data(5)
        with pytest.raises(ValueError, match="least_squares_gamma"):
            fit_fpqr(X, Y, metric="classical")


def reference_cases(seed, count=10):
    # Small random fits whose inner optima are unique: n * tau is never an
    # integer, and the noise is continuous.
    rng = np.random.default_rng(seed)
    while count:
        n, m, l = int(rng.integers(12, 40)), int(rng.integers(2, 7)), int(rng.integers(1, 3))
        tau = float(rng.choice([0.3, 0.5, 0.71]))
        if float(n * tau).is_integer():
            continue
        X = rng.normal(size=(n, m))
        count -= 1
        yield X, X @ rng.normal(size=(m, l)) + rng.standard_t(2, size=(n, l)), int(rng.integers(1, min(4, m) + 1)), tau


@pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
@pytest.mark.parametrize("seed, metric", [(1, "li"), (2, "dodge"), (3, "choi")])
def test_whole_fit_matches_the_composed_reference(seed, metric):
    # The composition end to end: centering, deflation of both blocks by the
    # right score, the stop rule, the inner intercept and the component count.
    for X, Y, h, tau in reference_cases(seed):
        model = fit_fpqr(X, Y, h, tau=tau, metric=metric)
        ref = reference_fpqr(X, Y, h, tau, metric)
        assert model.effective_components == ref["W"].shape[1]
        assert_allclose(model.decomposition.weights, ref["W"], rtol=0, atol=1e-9)
        scale = np.abs(ref["coefficients"]).max()
        assert_allclose(model.coefficients, ref["coefficients"], rtol=0, atol=1e-9 * scale)
        assert_allclose(model.intercepts, ref["intercepts"], rtol=0, atol=1e-9 * (1.0 + np.abs(ref["intercepts"]).max()))
        assert_array_equal(model.x_centers, ref["x_mean"])
        assert_array_equal(model.y_centers, ref["y_mean"])


class TestInnerQuantileFit:
    def test_gamma_columns_sit_at_check_loss_minimum(self):
        X, Y, _ = make_data(6, n=30, m=4, l=2)
        tau = 0.3
        model = fit_fpqr(X, Y, n_components=2, tau=tau)
        T = model.decomposition.scores
        Yc = Y - Y.mean(axis=0)
        for k in range(2):
            assert local_minimum_certificate(
                T, Yc[:, k], tau, model.gamma[:, k], model.intercepts[k]
            )

    def test_intercepts_track_the_level(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        Y = (X @ np.array([1.0, -1.0, 0.5]))[:, None] + rng.normal(size=(200, 1))
        low = fit_fpqr(X, Y, n_components=3, tau=0.1)
        high = fit_fpqr(X, Y, n_components=3, tau=0.9)
        assert high.intercepts[0] > low.intercepts[0]
        spread = high.intercepts[0] - low.intercepts[0]
        # the standard normal 0.1 to 0.9 gap is about 2.56
        assert 1.5 < spread < 3.5

    def test_median_model_objective_beats_mean_model(self):
        X, Y, _ = make_data(8, n=80, m=5, l=1, noise="t1")
        tau = 0.5
        quantile_model = fit_fpqr(X, Y, n_components=3, tau=tau, metric="li")
        mean_model = fit_pls(X, Y, n_components=3)
        q_loss = check_loss_mean(Y - quantile_model.predict(X), tau)
        m_loss = check_loss_mean(Y - mean_model.predict(X), tau)
        assert q_loss <= m_loss + 1e-12


    def test_one_dual_program_per_response(self, monkeypatch):
        # Each response's inner fit is one solve of the dual program, whose
        # design has a column per parameter (h scores and the intercept) and
        # a row per observation.
        shapes = []
        solve = quantreg._solve_lp

        def recording(D, y, tau):
            shapes.append(D.shape)
            return solve(D, y, tau)

        monkeypatch.setattr(quantreg, "_solve_lp", recording)
        X, Y, _ = make_data(9, n=50, m=5, l=3)
        model = fit_fpqr(X, Y, n_components=3, tau=0.4, metric="li")
        assert shapes == [(50, model.effective_components + 1)] * 3

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 0.75]))
    def test_row_order_does_not_change_either_fit(self, seed, tau):
        X, Y, _ = make_data(seed, n=40, m=5, l=2)
        order = np.random.default_rng(seed).permutation(40)
        base = fit_fpqr(X, Y, n_components=3, tau=tau, metric="li")
        permuted = fit_fpqr(X[order], Y[order], n_components=3, tau=tau, metric="li")
        assert_allclose(permuted.coefficients, base.coefficients, rtol=0, atol=1e-9)
        mean_fit = fit_pls(X, Y, n_components=3)
        permuted_mean_fit = fit_pls(X[order], Y[order], n_components=3)
        assert_allclose(permuted_mean_fit.coefficients, mean_fit.coefficients, rtol=0, atol=1e-9)


class TestRobustness:
    def test_closer_to_truth_than_mean_fit_under_heavy_tails(self):
        # aggregate over repetitions so the comparison is about the estimator,
        # not a single lucky draw
        wins = 0
        for seed in range(10):
            X, Y, B = make_data(100 + seed, n=80, m=6, l=1, noise="t1")
            robust = fit_fpqr(X, Y, n_components=4, tau=0.5, metric="li")
            mean_fit = fit_pls(X, Y, n_components=4)
            err_robust = np.linalg.norm(robust.coefficients - B)
            err_mean = np.linalg.norm(mean_fit.coefficients - B)
            wins += err_robust < err_mean
        assert wins >= 7


class TestMetricChoices:
    @pytest.mark.parametrize("metric", ["li", "dodge", "choi"])
    @pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
    def test_each_metric_fits_and_predicts(self, metric):
        X, Y, _ = make_data(9, n=25, m=4, l=1)
        model = fit_fpqr(X, Y, n_components=2, tau=0.5, metric=metric)
        assert model.metric == metric
        assert model.effective_components >= 1
        pred = model.predict(X)
        assert pred.shape == Y.shape
        assert np.isfinite(pred).all()

    @pytest.mark.parametrize("metric", ["li", "dodge", "choi"])
    @pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
    def test_each_round_takes_the_qcov_matrix_of_its_blocks(self, metric):
        # The extraction loop skips qcov_matrix's input checks, which the fit
        # has made once; on every deflated block it must still get the same bits.
        X, Y, _ = make_data(13, n=40, m=6, l=2)
        cross_product, _, kind, tau = quantile_parts(0.3, metric)
        rounds = []

        def spy(Xa, Ya):
            S = cross_product(Xa, Ya)
            rounds.append((Xa.copy(), Ya.copy(), S))
            return S

        extract_components(X - X.mean(axis=0), Y - Y.mean(axis=0), 4, spy)
        assert len(rounds) == 4
        for Xa, Ya, S in rounds:
            assert S.tobytes() == qcov_matrix(Xa, Ya, QcovMetric(kind, tau)).tobytes()

    def test_unknown_metric_rejected(self):
        X, Y, _ = make_data(10)
        with pytest.raises(ValueError, match="unknown metric"):
            fit_fpqr(X, Y, metric="kendall")

    def test_metric_object_rejected(self):
        # A QcovMetric carries its own tau; fit_fpqr takes the level from
        # ``tau`` alone, so the object is refused rather than half-used.
        X, Y, _ = make_data(10)
        with pytest.raises(ValueError, match="unknown metric"):
            fit_fpqr(X, Y, tau=0.5, metric=QcovMetric("dodge", 0.9))

    def test_tau_validated(self):
        X, Y, _ = make_data(11)
        with pytest.raises(ValueError):
            fit_fpqr(X, Y, tau=1.0)

    def test_text_tau_rejected(self):
        X, Y, _ = make_data(11)
        with pytest.raises(ValueError, match="tau must be a number, got '0.5'"):
            fit_fpqr(X, Y, tau="0.5")

    def test_custom_metric_shape_checked(self):
        X, Y, _ = make_data(12)
        with pytest.raises(ValueError, match=r"cross product returned shape \(1, 1\)"):
            fit_fpqr(X, Y, metric=lambda Xa, Ya: np.ones((1, 1)))


class TestDegenerateInputs:
    def test_zero_signal_falls_back_to_quantile_intercepts(self):
        rng = np.random.default_rng(12)
        X = np.full((31, 3), 2.0)  # constant predictors carry no direction
        Y = rng.normal(size=(31, 2))
        tau = 0.7
        model = fit_fpqr(X, Y, n_components=2, tau=tau)
        assert model.effective_components == 0
        Yc = Y - Y.mean(axis=0)
        pred = model.predict(X[:3])
        for k in range(2):
            expected = Y[:, k].mean() + empirical_quantile(Yc[:, k], tau)
            assert pred[0, k] == pytest.approx(expected, abs=1e-9)
        assert_allclose(pred, np.broadcast_to(pred[0], pred.shape), atol=1e-12)

    @pytest.mark.parametrize(
        "fit",
        [lambda X, Y: fit_fpqr(X, Y, 10, metric="li"), lambda X, Y: fit_pls(X, Y, 10)],
        ids=["li", "pls"],
    )
    def test_memory_order_does_not_change_the_fit(self, fit):
        # Column blocks selected from a table are Fortran-ordered; they must
        # fit exactly as their C-ordered copies.
        X, Y = generate_simulation(make_simulation_spec("sim2", None, repetitions=1, seed=0), 0)[:2]
        c_fit = fit(X, Y)
        f_fit = fit(np.asfortranarray(X), np.asfortranarray(Y))
        assert_array_equal(f_fit.coefficients, c_fit.coefficients)
        assert_array_equal(f_fit.intercepts, c_fit.intercepts)
        assert_array_equal(f_fit.predict(np.asfortranarray(X)), c_fit.predict(X))

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fit_fpqr(np.ones((4, 2)), np.ones((5, 1)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda X, Y: fit_quantile_regression(X, Y[:, 0], 0.5),
            lambda X, Y: fit_fpqr(X, Y, 2, metric="dodge"),
            lambda X, Y: ModelRecipe("dodge", "fpqr", "dodge", 0.5, center="none").fit(X, Y, 2),
            lambda X, Y: cross_validate(X, Y, [1, 2], folds=2, fitter=parse_recipe("fpqr-dodge"), seed=0),
        ],
        ids=["direct", "fit", "recipe", "cv"],
    )
    def test_warnings_name_the_callers_line(self, call):
        # A constant predictor column warns, however deep in the package.
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 4))
        X[:, 2] = 1.5
        Y = X[:, :1] + rng.normal(size=(30, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(X, Y)
        assert caught
        assert {w.filename for w in caught} == {__file__}


class TestPredictQuantile:
    def test_coverage_near_level(self):
        rng = np.random.default_rng(14)
        n = 400
        X = rng.normal(size=(n, 3))
        Y = (X @ np.array([1.0, 0.5, -0.5]))[:, None] + rng.normal(size=(n, 1))
        tau = 0.8
        model = fit_fpqr(X, Y, n_components=3, tau=tau)
        covered = np.mean(Y <= model.predict(X))
        assert abs(covered - tau) < 0.08

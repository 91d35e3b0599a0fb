import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpqr import fit_fpqr, fit_pls
from fpqr.evaluate import generate_simulation, make_simulation_spec
from fpqr.exceptions import DimensionMismatch, IllConditionedWarning, RankDeficient
from fpqr.pls import PLS_PARTS, LatentDecomposition, back_project, component_path, resolve_components

from _oracles import reference_nipals


def make_data(seed, n=40, m=8, l=2, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    B = rng.normal(size=(m, l))
    Y = X @ B + noise * rng.normal(size=(n, l))
    return X, Y


class TestResolveComponents:
    def test_default_caps(self):
        assert resolve_components(None, n=100, m=50) == 10
        assert resolve_components(None, n=100, m=4) == 4
        assert resolve_components(None, n=5, m=50) == 4

    def test_explicit_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, 9\]"):
            resolve_components(30, n=10, m=50)
        assert resolve_components(3, n=100, m=50) == 3

    @pytest.mark.parametrize("count", [2.7, 2.0, True, np.float64(3.0)])
    @pytest.mark.parametrize("fit", [fit_pls, fit_fpqr])
    def test_non_integral_count_rejected(self, fit, count):
        X, Y = make_data(seed=3)
        with pytest.raises(ValueError, match="components must be an integer"):
            fit(X, Y, count)
        assert fit(X, Y, np.int64(2)).requested_components == 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_components(0, n=10, m=5)


def assert_matches_reference(X, Y, h):
    model = fit_pls(X, Y, n_components=h)
    ref = reference_nipals(X, Y, h)
    assert_allclose(model.decomposition.weights, ref["W"], atol=1e-9)
    assert_allclose(model.decomposition.x_loadings, ref["P"], atol=1e-9)
    assert_allclose(model.decomposition.y_loadings, ref["Q"], atol=1e-9)
    assert_allclose(model.gamma, ref["gamma"], atol=1e-8)
    assert_allclose(model.coefficients, ref["coefficients"], atol=1e-8)


@pytest.mark.parametrize("center", ["mean", "none"])
def test_fit_deflates_its_own_copy_in_place(center):
    # One centered copy of X is deflated in place, beside one rank-one update
    # at a time: 2.2 copies of X at peak, against 3.2 when extraction deflated
    # a second copy. The caller's X is left as it was.
    rng = np.random.default_rng(40)
    X, Y = rng.normal(size=(2000, 98)), rng.normal(size=(2000, 2))
    before = X.copy()
    tracemalloc.start()
    try:
        fit_pls(X, Y, 10, center=center)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * X.nbytes
    assert X.tobytes() == before.tobytes()


class TestFitAgainstReference:
    @pytest.mark.parametrize("seed,h", [(1, 1), (2, 3), (3, 5)])
    def test_matches_naive_transcription(self, seed, h):
        assert_matches_reference(*make_data(seed), h)

    def test_wide_table_matches_naive_transcription(self):
        # n < m, the paper's regime: the reference solves the normal equations for gamma.
        assert_matches_reference(*make_data(4, n=20, m=60, l=2), 6)

    def test_full_components_recover_least_squares(self):
        X, Y = make_data(7, n=60, m=5, l=2)
        model = fit_pls(X, Y, n_components=5)
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        ols, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
        assert_allclose(model.coefficients, ols, atol=1e-8)


def sim2_table():
    return generate_simulation(make_simulation_spec("sim2", repetitions=1), 0)[:2]


def wide_table():
    return make_data(31, n=40, m=700, l=4)


INNER_CASES = {
    "sim2-pls": (sim2_table, fit_pls, 30),
    "wide-pls": (wide_table, fit_pls, 6),
    "sim2-classical": (sim2_table, lambda X, Y, h: fit_fpqr(X, Y, h, metric="classical", least_squares_gamma=True), 30),
}


class TestInnerCoefficients:
    @pytest.mark.parametrize("case", sorted(INNER_CASES))
    def test_gamma_is_the_y_loadings(self, case):
        table, fit, h = INNER_CASES[case]
        model = fit(*table(), h)
        assert model.effective_components == h
        assert np.array_equal(model.gamma, model.decomposition.y_loadings.T)

    @pytest.mark.parametrize("table,h", [(sim2_table, 30), (sim2_table, 99), (wide_table, 39)],
                             ids=["sim2-30", "sim2-99", "wide-39"])
    def test_residual_orthogonal_to_scores(self, table, h):
        # The y-loadings solve least squares on the scores: the normal equations hold.
        X, Y = table()
        model = fit_pls(X, Y, h)
        T = model.decomposition.scores
        Yc = Y - model.y_centers
        residual = np.abs(T.T @ (Yc - T @ model.gamma)).max()
        assert residual <= 1e-12 * np.linalg.norm(T) * np.linalg.norm(Yc)


class TestInvariants:
    def test_scores_are_orthogonal(self):
        X, Y = make_data(11, n=50, m=10, l=3)
        model = fit_pls(X, Y, n_components=6)
        T = model.decomposition.scores
        G = T.T @ T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-8 * np.abs(np.diag(G)).max()

    def test_weights_are_unit_norm_with_positive_peak(self):
        X, Y = make_data(12)
        model = fit_pls(X, Y, n_components=4)
        W = model.decomposition.weights
        assert_allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)
        for a in range(W.shape[1]):
            peak = np.argmax(np.abs(W[:, a]))
            assert W[peak, a] > 0

    def test_noiseless_full_rank_fit_is_exact(self):
        X, Y = make_data(13, n=30, m=6, l=2, noise=0.0)
        model = fit_pls(X, Y, n_components=6)
        assert_allclose(model.predict(X), Y, atol=1e-8)

    def test_prediction_invariant_to_response_shift(self):
        X, Y = make_data(14)
        model = fit_pls(X, Y, n_components=3)
        model_shifted = fit_pls(X, Y + 100.0, n_components=3)
        assert_allclose(model_shifted.predict(X), model.predict(X) + 100.0, atol=1e-7)

    def test_intercepts_are_zero_and_means_live_in_centering(self):
        X, Y = make_data(15)
        model = fit_pls(X, Y, n_components=2)
        assert_allclose(model.intercepts, np.zeros(Y.shape[1]))
        assert_allclose(model.y_centers, Y.mean(axis=0), atol=1e-12)

    def test_mean_prediction_at_mean_input(self):
        X, Y = make_data(16)
        model = fit_pls(X, Y, n_components=3)
        at_mean = model.predict(X.mean(axis=0, keepdims=True))
        assert_allclose(at_mean.ravel(), Y.mean(axis=0), atol=1e-10)

    def test_fitted_model_is_frozen(self):
        # coefficients are built from gamma once; a new gamma would leave them stale.
        model = fit_pls(*make_data(17), n_components=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.gamma = np.zeros_like(model.gamma)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.decomposition.weights = np.zeros_like(model.decomposition.weights)


class TestEarlyStop:
    def test_zero_response_stops_immediately(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 5))
        Y = np.zeros((20, 2))
        model = fit_pls(X, Y, n_components=3)
        assert model.effective_components == 0
        assert model.stop_reason == "small-cross-product"
        assert_allclose(model.coefficients, np.zeros((5, 2)))
        assert_allclose(model.predict(X), np.zeros((20, 2)), atol=1e-12)

    def test_rank_one_predictors_yield_one_component(self):
        rng = np.random.default_rng(18)
        t = rng.normal(size=25)
        X = np.outer(t, [1.0, -2.0, 0.5])
        Y = (2.0 * t + 1.0)[:, None]
        model = fit_pls(X, Y, n_components=3)
        assert model.effective_components == 1
        assert model.requested_components == 3
        assert model.stop_reason == "small-cross-product"
        assert_allclose(model.predict(X), Y, atol=1e-8)

    def test_full_path_stops_as_requested(self):
        X, Y = make_data(20)
        assert fit_pls(X, Y, n_components=3).stop_reason == "requested"
        assert fit_fpqr(X, Y, n_components=3, tau=0.3).stop_reason == "requested"

    def test_vanishing_score_stops_a_direction_that_ignores_deflation(self):
        # The cross product stays large, so only the score's norm ends the path.
        rng = np.random.default_rng(18)
        t = rng.normal(size=25)
        X = np.outer(t, [1.0, -2.0, 0.5])
        model = fit_fpqr(X, t[:, None], n_components=3, metric=lambda Xa, Ya: np.ones((3, 1)))
        assert (model.effective_components, model.stop_reason) == (1, "small-score")

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_path_prefix_has_the_refit_reason(self, h):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 5))
        Y = X @ rng.normal(size=(5, 1))
        refit = fit_pls(X, Y, n_components=h)
        prefix = component_path(X, Y, 3, "mean", *PLS_PARTS)(h)
        assert prefix.effective_components == refit.effective_components == min(h, 2)
        assert prefix.stop_reason == refit.stop_reason == ("requested" if h <= 2 else "small-cross-product")


class TestCenteringModes:
    def test_none_mode_skips_centering(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 4)) + 5.0
        Y = X @ np.array([[1.0], [0.0], [-1.0], [2.0]])
        model = fit_pls(X, Y, n_components=4, center="none")
        assert_allclose(model.x_centers, np.zeros(4))
        assert model.center == "none"
        assert_allclose(model.predict(X), Y, atol=1e-7)

    def test_unknown_mode_rejected(self):
        X, Y = make_data(20)
        with pytest.raises(ValueError, match="center"):
            fit_pls(X, Y, center="median")


class TestPredictValidation:
    def test_wrong_column_count_message(self):
        X, Y = make_data(21, m=6)
        model = fit_pls(X, Y, n_components=2)
        with pytest.raises(DimensionMismatch, match="expected 6 predictor columns, found 4"):
            model.predict(np.ones((3, 4)))

    def test_row_mismatch_between_x_and_y(self):
        with pytest.raises(DimensionMismatch):
            fit_pls(np.ones((4, 2)), np.ones((5, 1)))


class TestBackProject:
    def _decomposition(self, W, P, l):
        return LatentDecomposition(
            weights=W,
            x_loadings=P,
            y_loadings=np.zeros((l, W.shape[1])),
            scores=None,
        )

    def test_singular_interaction_raises(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        P = np.zeros((3, 2))
        deco = self._decomposition(W, P, 1)
        with pytest.warns(IllConditionedWarning):
            with pytest.raises(RankDeficient):
                back_project(deco, np.zeros((2, 1)))

    def test_near_singular_warns(self):
        W = np.eye(2)
        P = np.array([[1.0, 0.0], [0.0, 1e-14]])
        deco = self._decomposition(W, P, 1)
        with pytest.warns(IllConditionedWarning):
            back_project(deco, np.ones((2, 1)))

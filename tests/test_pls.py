import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpqr import fit_fpqr, fit_pls, predict
from fpqr.exceptions import DimensionMismatch, IllConditionedWarning, RankDeficient
from fpqr.pls import LatentDecomposition, back_project, resolve_components

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


class TestFitAgainstReference:
    @pytest.mark.parametrize("seed,h", [(1, 1), (2, 3), (3, 5)])
    def test_matches_naive_transcription(self, seed, h):
        X, Y = make_data(seed)
        model = fit_pls(X, Y, n_components=h)
        ref = reference_nipals(X, Y, h)
        assert_allclose(model.decomposition.weights, ref["W"], atol=1e-9)
        assert_allclose(model.decomposition.x_loadings, ref["P"], atol=1e-9)
        assert_allclose(model.decomposition.y_loadings, ref["Q"], atol=1e-9)
        assert_allclose(model.gamma, ref["gamma"], atol=1e-8)
        assert_allclose(model.coefficients, ref["coefficients"], atol=1e-8)

    def test_full_components_recover_least_squares(self):
        X, Y = make_data(7, n=60, m=5, l=2)
        model = fit_pls(X, Y, n_components=5)
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        ols, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
        assert_allclose(model.coefficients, ols, atol=1e-8)


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
        assert_allclose(model.y_centering.column_centers, Y.mean(axis=0), atol=1e-12)

    def test_mean_prediction_at_mean_input(self):
        X, Y = make_data(16)
        model = fit_pls(X, Y, n_components=3)
        at_mean = model.predict(X.mean(axis=0, keepdims=True))
        assert_allclose(at_mean.ravel(), Y.mean(axis=0), atol=1e-10)


class TestEarlyStop:
    def test_zero_response_stops_immediately(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 5))
        Y = np.zeros((20, 2))
        model = fit_pls(X, Y, n_components=3)
        assert model.effective_components == 0
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
        assert_allclose(model.predict(X), Y, atol=1e-8)


class TestCenteringModes:
    def test_none_mode_skips_centering(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 4)) + 5.0
        Y = X @ np.array([[1.0], [0.0], [-1.0], [2.0]])
        model = fit_pls(X, Y, n_components=4, center="none")
        assert_allclose(model.x_centering.column_centers, np.zeros(4))
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

    def test_module_level_wrapper(self):
        X, Y = make_data(22)
        model = fit_pls(X, Y, n_components=2)
        assert_allclose(predict(model, X), model.predict(X))

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
                back_project(deco, np.zeros((2, 1)), 3, 1)

    def test_near_singular_warns(self):
        W = np.eye(2)
        P = np.array([[1.0, 0.0], [0.0, 1e-14]])
        deco = self._decomposition(W, P, 1)
        with pytest.warns(IllConditionedWarning):
            back_project(deco, np.ones((2, 1)), 2, 1)

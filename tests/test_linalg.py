import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpqr.linalg import as_matrix, center_columns, leading_left_singular_vector

from _oracles import dense_leading_eigenpair, orient


class TestCenterColumns:
    def test_small_example(self):
        centered, centers = center_columns([[1.0, 3.0], [3.0, 5.0]])
        assert_allclose(centered, [[-1.0, -1.0], [1.0, 1.0]])
        assert_allclose(centers, [2.0, 4.0])

    def test_centered_columns_have_zero_mean(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(20, 4)) * 7 + 2
        centered, _ = center_columns(M)
        assert np.abs(centered.mean(axis=0)).max() <= 1e-12

    def test_mode_none_records_zero_centers(self):
        M = np.array([[1.0, 2.0], [4.0, 8.0]])
        out, centers = center_columns(M, mode="none")
        assert_allclose(out, M)
        assert_allclose(centers, [0.0, 0.0])
        out[0, 0] = 99.0  # the copy must not alias the input
        assert M[0, 0] == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="centering mode"):
            center_columns([[1.0]], mode="median")

    @pytest.mark.parametrize(
        "shape, message", [((2, 2, 2), "must be 1-d or 2-d, got 3-d"), ((0, 3), "must be non-empty")], ids=["3-d", "empty"]
    )
    def test_not_a_non_empty_matrix_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            as_matrix(np.ones(shape), "M")


class TestLeadingLeftSingularVector:
    def test_single_column(self):
        S = np.array([[2.0], [0.0]])
        w = leading_left_singular_vector(S)
        assert_allclose(w, [1.0, 0.0])
        assert np.linalg.norm(S.T @ w) ** 2 == pytest.approx(dense_leading_eigenpair(S @ S.T)[1])

    def test_diagonal(self):
        S = np.diag([3.0, 1.0])
        w = leading_left_singular_vector(S)
        assert_allclose(w, [1.0, 0.0], atol=1e-10)
        assert np.linalg.norm(S.T @ w) ** 2 == pytest.approx(dense_leading_eigenpair(S @ S.T)[1])

    @pytest.mark.parametrize("shape", [(6, 2), (5, 5), (3, 7), (12, 1), (2, 9), "near-tie"])
    def test_matches_dense_eigensolver(self, shape):
        if shape == "near-tie":
            # m <= l with singular values 1e-9 apart: an iterative solver
            # would crawl across a spectral gap this small.
            c, s = np.cos(0.3), np.sin(0.3)
            cases = [np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1.0 - 1e-9]) @ np.eye(2, 3)]
        else:
            rng = np.random.default_rng(sum(shape))
            cases = [rng.normal(size=shape) for _ in range(5)]
        for S in cases:
            w = leading_left_singular_vector(S)
            w_ref, value_ref = dense_leading_eigenpair(S @ S.T)
            assert np.linalg.norm(S.T @ w) ** 2 == pytest.approx(value_ref, rel=1e-10, abs=1e-10)
            assert_allclose(w, orient(w_ref), atol=1e-8)

    def test_maximizes_objective(self):
        rng = np.random.default_rng(11)
        S = rng.normal(size=(8, 3))
        w = leading_left_singular_vector(S)
        attained = np.linalg.norm(S.T @ w) ** 2
        assert attained == pytest.approx(dense_leading_eigenpair(S @ S.T)[1], rel=1e-10)
        for _ in range(100):
            v = rng.normal(size=8)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(S.T @ v) ** 2 <= attained + 1e-9

    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            S = rng.normal(size=(4, 6))
            w = leading_left_singular_vector(S)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert w[int(np.argmax(np.abs(w)))] > 0

    def test_deterministic(self):
        S = np.random.default_rng(5).normal(size=(9, 2))
        w1 = leading_left_singular_vector(S)
        w2 = leading_left_singular_vector(S.copy())
        assert np.array_equal(w1, w2)

    def test_tiny_matrix_gives_the_same_direction(self):
        # A small S is a matter of units.
        S = np.random.default_rng(13).normal(size=(5, 3))
        w = leading_left_singular_vector(S)
        w_tiny = leading_left_singular_vector(1e-16 * S)
        assert_allclose(w_tiny, w, rtol=1e-12, atol=1e-14)
        value = dense_leading_eigenpair(S @ S.T)[1]
        assert np.linalg.norm(1e-16 * S.T @ w_tiny) ** 2 == pytest.approx(1e-32 * value, rel=1e-12)

    def test_cancelling_row_sums_still_converges(self):
        # The rows of S cancel, so S @ S.T has zero row sums; the leading
        # direction is still the anti-diagonal one, up to sign.
        S = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = leading_left_singular_vector(S)
        assert np.linalg.norm(S.T @ w) ** 2 == pytest.approx(dense_leading_eigenpair(S @ S.T)[1])
        assert_allclose(np.abs(w), [np.sqrt(0.5), np.sqrt(0.5)])

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fpqr import QcovMetric, fit_quantile_regression, qcor_choi, qcov_choi, qcov_dodge, qcov_li, qcov_matrix
from fpqr import quantreg
from fpqr.exceptions import DimensionMismatch, DiscordantSlopesWarning, SolverFailure, ZeroVarianceWarning

from _oracles import li_cross_product

# The scalar metrics name their one entry in a degenerate-entry warning.
SCALAR_ENTRY = r"at 1 of 1 entries, first \(0, 0\); values set to 0$"
# A pair whose two directional median-regression slopes disagree in sign.
# Frozen from a short random search; the slopes are roughly -0.035 and +0.43.
DISCORDANT_Z1 = np.array([0.1257, -0.1321, 0.6404, 0.1049, -0.5357, 0.3616, 1.304, 0.9471])
DISCORDANT_Z2 = np.array([-0.7037, -1.2654, -0.6233, 0.0413, -2.325, -0.2188, -1.2459, -0.7323])


class TestQcovLi:
    def test_hand_computed_value(self):
        # Q_0.5(z2) = 2, psi weights (-.5, .5, .5, .5), z1 centered (-2.5, -2.5, -2.5, 7.5)
        z1 = [0.0, 0.0, 0.0, 10.0]
        z2 = [1.0, 2.0, 3.0, 4.0]
        assert qcov_li(z1, z2, 0.5) == pytest.approx(0.625)

    def test_not_symmetric(self):
        z1 = [0.0, 0.0, 0.0, 10.0]
        z2 = [1.0, 2.0, 3.0, 4.0]
        assert qcov_li(z2, z1, 0.5) == pytest.approx(0.0)
        assert qcov_li(z1, z2, 0.5) != qcov_li(z2, z1, 0.5)

    def test_linear_in_first_argument(self):
        rng = np.random.default_rng(21)
        z1 = rng.normal(size=15)
        z2 = rng.normal(size=15)
        base = qcov_li(z1, z2, 0.3)
        assert qcov_li(4.0 * z1, z2, 0.3) == pytest.approx(4.0 * base, abs=1e-12)
        assert qcov_li(z1 + 9.0, z2, 0.3) == pytest.approx(base, abs=1e-12)

    def test_constant_first_argument_gives_zero(self):
        z2 = np.arange(6.0)
        assert qcov_li(np.full(6, 3.0), z2, 0.4) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_constant_weights_give_exactly_the_matrix_zero(self, seed):
        # n * tau < 1: no z2 value lies below its quantile, so psi == tau and
        # the value is tau * mean(z1 - mean(z1)), exactly 0 in the matrix form.
        rng = np.random.default_rng(seed)
        z1, z2 = 1e6 * rng.normal(size=10), rng.normal(size=10)
        assert qcov_matrix(z1[:, None], z2[:, None], QcovMetric("li", 0.05))[0, 0] == 0.0
        assert qcov_li(z1, z2, 0.05) == 0.0

    def test_constant_first_argument_gives_exactly_the_matrix_zero(self):
        z1, z2 = np.full(7, 0.1), np.random.default_rng(4).normal(size=7)
        assert qcov_matrix(z1[:, None], z2[:, None], QcovMetric("li", 0.5))[0, 0] == 0.0
        assert qcov_li(z1, z2, 0.5) == 0.0

    @pytest.mark.parametrize("tau", [0.04, 0.25, 0.5, 0.9])
    def test_matrix_is_the_per_column_formula(self, tau):
        # n * tau < 1 at tau = 0.04: every weight is tau, so every column is
        # zeroed. Y's columns: continuous, tied integers, and a smallest value
        # held by 15 of 20 rows (nothing lies below its quantile up to tau = 0.75).
        # X's columns: continuous, tied integers, constant.
        rng = np.random.default_rng(23)
        n = 20
        X = np.column_stack([rng.normal(size=n), rng.integers(-2, 3, size=n), np.full(n, 1.5)])
        floor = np.where(np.arange(n) < 15, -1.0, rng.uniform(size=n))
        Y = np.column_stack([rng.standard_t(2, size=n), rng.integers(0, 4, size=n), floor])
        values = qcov_matrix(X, Y, QcovMetric("li", tau))
        np.testing.assert_array_equal(values, li_cross_product(X, Y, tau))
        assert (values[2] == 0.0).all()
        assert (values[:, 2] == 0.0).all() == (tau <= 0.75)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qcov_li([1.0, 2.0], [1.0, 2.0, 3.0], 0.5)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            qcov_li([1.0], [2.0], 0.5)

    @pytest.mark.parametrize("metric", [qcov_li, qcov_dodge])
    def test_non_finite_rejected(self, metric):
        with pytest.raises(ValueError, match="non-finite"):
            metric([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], 0.5)


class TestQcovDodge:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert qcov_dodge(x, 2.0 * x + 1.0, 0.5) == pytest.approx(4.0)

    def test_self_is_variance(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=20)
        assert qcov_dodge(x, x, 0.5) == pytest.approx(float(x.var()), abs=1e-8)

    def test_scales_with_second_argument(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=25)
        y = 1.5 * x + rng.normal(size=25) * 0.1
        assert qcov_dodge(x, 3.0 * y, 0.4) == pytest.approx(3.0 * qcov_dodge(x, y, 0.4), abs=1e-8)

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(ZeroVarianceWarning, match=SCALAR_ENTRY):
            value = qcov_dodge(np.full(5, 2.0), np.arange(5.0), 0.5)
        assert value == 0.0

    def test_not_symmetric(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x
        # forward: var(x) * 2; reverse: var(y) * 0.5 = 4 var(x) * 0.5
        assert qcov_dodge(x, y, 0.5) == pytest.approx(2.0 * x.var())
        assert qcov_dodge(y, x, 0.5) == pytest.approx(2.0 * x.var())

    @staticmethod
    def _check_value_that_fits(x, y, a, b, value):
        # The slope stays in binary units, and the value is 2**-(a + b) times
        # that of x * 2**a and y * 2**b, exactly.
        got = qcov_dodge(x, y, 0.5)
        assert got == pytest.approx(value, rel=1e-12)
        assert got == np.ldexp(qcov_dodge(np.ldexp(x, a), np.ldexp(y, b), 0.5), -a - b)

    @pytest.mark.parametrize("entries", [quantreg.SLOPE_BLOCK_ENTRIES, 1], ids=["listing", "simplex"])
    def test_four_row_slope_beyond_a_double_gives_the_value_that_fits(self, entries, monkeypatch):
        # The slope is 1e310, beyond a double, but variance times slope fits.
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
        self._check_value_that_fits(np.arange(1.0, 5.0) * 1e-300, np.arange(4.0) * 1e10, 996, -35, 1.25e-290)

    @pytest.mark.parametrize("entries", [quantreg.SLOPE_BLOCK_ENTRIES, 1], ids=["listing", "simplex"])
    def test_slope_beyond_a_double_gives_the_value_that_fits(self, entries, monkeypatch):
        # Each pairwise slope is about 1e310, beyond a double, but variance
        # times slope fits: about -9.5e10.
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
        permuted = np.random.default_rng(35).permutation(20) * 1e-150
        self._check_value_that_fits(permuted, np.arange(20.0) * 1e160, 494, -538, -9.5e10)

    @pytest.mark.parametrize("entries", [quantreg.SLOPE_BLOCK_ENTRIES, 1], ids=["listing", "simplex"])
    def test_value_beyond_a_double_raises_solver_failure(self, entries, monkeypatch):
        # var(x) is about 3e301 and the slope about 1e10: their product overflows.
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
        x = np.random.default_rng(35).permutation(20) * 1e150
        with pytest.raises(SolverFailure, match="does not fit in a double"):
            qcov_dodge(x, np.arange(20.0) * 1e160, 0.5)

    def test_zero_has_one_sign_on_both_sides_of_the_listing(self, monkeypatch):
        # The listed slope 0 is dy = 0 over dx < 0, which numpy signs -0.0;
        # the simplex gives +0.0.
        x = np.array([-2.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 1.0])
        y = np.array([1.0, 3.0, 1.0, -1.0, -3.0, 0.0, -2.0, 1.0, -3.0, 2.0])
        listed = np.float64(qcov_dodge(x, y, 0.75))
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 1)
        assert listed.tobytes() == np.float64(qcov_dodge(x, y, 0.75)).tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_listing_and_simplex_agree_bit_for_bit_on_tied_integers(self, tau, monkeypatch):
        rng = np.random.default_rng(int(100 * tau))
        pairs = [(rng.integers(-2, 3, size=n), rng.integers(-3, 4, size=n)) for n in rng.integers(4, 12, size=133)]
        pairs = [(x.astype(float), y.astype(float)) for x, y in pairs if np.ptp(x) > 0]
        listed = np.array([qcov_dodge(x, y, tau) for x, y in pairs])
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 1)
        assert listed.tobytes() == np.array([qcov_dodge(x, y, tau) for x, y in pairs]).tobytes()


class TestChoi:
    def test_exact_line_correlation_is_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert qcor_choi(x, 2.0 * x + 1.0, 0.5) == pytest.approx(1.0)
        assert qcor_choi(x, -2.0 * x + 1.0, 0.5) == pytest.approx(-1.0)

    def test_exact_line_covariance_is_geometric_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = 2.0 * x + 1.0
        expected = np.sqrt(qcov_dodge(x, y, 0.5) * qcov_dodge(y, x, 0.5))
        assert qcov_choi(x, y, 0.5) == pytest.approx(expected)
        assert qcov_choi(x, y, 0.5) == pytest.approx(4.0)

    def test_symmetric(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=18)
        y = x + rng.normal(size=18) * 0.2
        assert qcov_choi(x, y, 0.5) == pytest.approx(qcov_choi(y, x, 0.5), abs=1e-10)
        assert qcor_choi(x, y, 0.5) == pytest.approx(qcor_choi(y, x, 0.5), abs=1e-10)

    def test_discordant_slopes_warn_and_return_zero(self):
        with pytest.warns(DiscordantSlopesWarning, match=SCALAR_ENTRY):
            c = qcor_choi(DISCORDANT_Z1, DISCORDANT_Z2, 0.5)
        assert c == 0.0
        with pytest.warns(DiscordantSlopesWarning, match=SCALAR_ENTRY):
            v = qcov_choi(DISCORDANT_Z1, DISCORDANT_Z2, 0.5)
        assert v == 0.0

    def test_constant_input_warns_and_returns_zero(self):
        with pytest.warns(ZeroVarianceWarning, match=SCALAR_ENTRY):
            assert qcov_choi(np.full(6, 1.0), np.arange(6.0), 0.5) == 0.0


class TestQcovMatrix:
    def test_requires_metric_object(self):
        X = np.ones((4, 2))
        with pytest.raises(TypeError):
            qcov_matrix(X, X, "li")

    def test_classical_matches_cross_product(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(9, 2))
        Y = rng.normal(size=(9, 3))
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        assert_allclose(qcov_matrix(X, Y, QcovMetric("classical")), Xc.T @ Yc / 9, atol=1e-12)

    @pytest.mark.parametrize("kind,scalar", [
        ("li", qcov_li),
        ("dodge", qcov_dodge),
        ("choi", qcov_choi),
    ])
    def test_entries_match_scalar_calls(self, kind, scalar):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        tau = 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            M = qcov_matrix(X, Y, QcovMetric(kind, tau=tau))
            assert M.shape == (3, 2)
            for j in range(3):
                for k in range(2):
                    assert M[j, k] == pytest.approx(scalar(X[:, j], Y[:, k], tau), abs=1e-10)

    @pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
    @pytest.mark.parametrize("kind", ["dodge", "choi"])
    def test_slope_metrics_solve_no_linear_program(self, kind, monkeypatch):
        calls = []
        solve = quantreg._solve_lp

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(quantreg, "_solve_lp", counting)
        rng = np.random.default_rng(27)
        X = rng.normal(size=(15, 4))
        Y = rng.normal(size=(15, 2))
        qcov_matrix(X, Y, QcovMetric(kind, tau=0.5))
        assert calls == []
        fit_quantile_regression(X[:, :1], Y[:, 0], 0.5)
        assert calls == [1]  # the counter does see the solver

    @pytest.mark.parametrize("kind", ["dodge", "choi"])
    def test_degenerate_entries_warn_with_coordinates(self, kind):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(10, 3))
        X[:, 1] = 4.0
        Y = rng.normal(size=(10, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M = qcov_matrix(X, Y, QcovMetric(kind, tau=0.5))
        zero_variance = [str(w.message) for w in caught if w.category is ZeroVarianceWarning]
        assert zero_variance == [
            "a slope regressor has zero variance at 2 of 6 entries, first (1, 0), (1, 1); values set to 0"
        ]
        assert all(w.filename == __file__ for w in caught)
        assert (M[1] == 0.0).all()

    @pytest.mark.parametrize("kind", ["dodge", "choi"])
    def test_each_warning_counts_the_zeros_its_category_put_in_the_matrix(self, kind):
        # Two constant columns of X, one of Y (a regressor only for choi; dodge
        # fits it a slope of exactly 0, no degenerate entry) and unrelated data,
        # so that choi also meets discordant pairs. Each category warns at most
        # once, and its count and first three entries in row-major order are
        # those of its zeros in the returned matrix; the two count every zero.
        rng = np.random.default_rng(30)
        X = rng.normal(size=(20, 8))
        X[:, [2, 5]] = 1.5
        Y = rng.normal(size=(20, 5))
        Y[:, 3] = -2.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M = qcov_matrix(X, Y, QcovMetric(kind, tau=0.5))
        constant = np.zeros(M.shape, dtype=bool)
        constant[[2, 5]] = True
        constant[:, 3] |= kind == "choi"
        discordant = (M == 0.0) & ~constant
        discordant[:, 3] &= kind == "choi"
        zeros = {ZeroVarianceWarning: constant, DiscordantSlopesWarning: discordant}
        counts = {}
        for w in caught:
            count, first = re.search(r" at (\d+) of 40 entries, first (.*); values set to 0$", str(w.message)).groups()
            zeroed = np.argwhere(zeros[w.category])
            assert w.category not in counts
            counts[w.category] = int(count)
            assert counts[w.category] == len(zeroed)
            assert first == ", ".join(f"({j}, {k})" for j, k in zeroed[:3])
        assert list(counts) == ([ZeroVarianceWarning] if kind == "dodge" else list(zeros))
        assert sum(counts.values()) == constant.sum() + discordant.sum()

    @pytest.mark.parametrize("n", [300, 400], ids=["listing", "simplex"])
    @pytest.mark.parametrize("kind", ["dodge", "choi"])
    def test_regressor_constant_to_rounding_is_degenerate(self, kind, n):
        # Column 0 is 7 but for one entry of 7 + 7 * 2**-50. Whether its slopes
        # would come from the listing (300 rows) or the simplex (400 rows), its
        # entries are 0 and counted in one warning, and every other entry is
        # what the other columns give alone.
        rng = np.random.default_rng(29)
        Z = rng.normal(size=(n, 3))
        Z[:, 0] = 7.0
        Z[n // 2, 0] += 7.0 * 2.0**-50
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            M = qcov_matrix(Z, Z, QcovMetric(kind, tau=0.5))
            first = 0 if kind == "dodge" else 1  # choi also zeroes column 0
            rest = qcov_matrix(Z[:, 1:], Z[:, first:], QcovMetric(kind, tau=0.5))
        zero_variance = [str(w.message) for w in caught if w.category is ZeroVarianceWarning]
        zeroed = 3 if kind == "dodge" else 5  # row 0, and for choi also column 0
        assert zero_variance == [f"a slope regressor has zero variance at {zeroed} of 9 entries, "
                                 "first (0, 0), (0, 1), (0, 2); values set to 0"]
        assert (M[0] == 0.0).all() and (M[:, :first] == 0.0).all()
        assert_array_equal(M[1:, first:], rest)

    @pytest.mark.parametrize("n", [50, 300, 400, 2000])
    def test_simplex_keeps_every_regressor_the_rule_keeps(self, n):
        # Columns of 7, -3e5 and 1e-7 with one entry moved by +-2**-k of its
        # value, k = 40..55, straddle the rule's threshold at 50 rows. None that
        # dodge fits may be one the simplex's QR rule drops.
        rng = np.random.default_rng(n)
        moves = np.array([sign * 2.0**-k for k in range(40, 56) for sign in (1.0, -1.0)])
        X = np.repeat([7.0, -3e5, 1e-7], moves.size) * np.ones((n, 1))
        row = rng.integers(n)
        X[row] += X[row] * np.tile(moves, 3)
        y = rng.normal(size=n)
        with pytest.warns(ZeroVarianceWarning):
            M = qcov_matrix(X, y[:, None], QcovMetric("dodge", tau=0.5))
        kept = np.flatnonzero(M[:, 0])
        assert len(kept) == (24 if n == 50 else 0)
        for j in kept:
            assert quantreg._solve_lp(np.column_stack([np.ones(n), X[:, j]]), y, 0.5)[2].all(), j

    @pytest.mark.parametrize("n, columns", [(50, 500), (300, 300), (400, 300), (2000, 30)])
    def test_zeroes_exactly_the_regressors_the_simplex_drops(self, n, columns, monkeypatch):
        # Columns x = c + s * v, v a centered normal column, with ||s * v|| within 3 % of
        # max(n, 2) * eps * sqrt(n) * c: the margin of the QR rule beside the intercept, where a
        # verdict from centered norms ||x - mean(x)|| parts from it on 5, 2 and 4 of the columns
        # at 50, 300 and 400 rows. dodge zeroes an entry exactly where the simplex on [1, x]
        # drops x, and its warning counts every zero; at 400 rows the listing zeroes the same.
        rng = np.random.default_rng(n)
        c = rng.uniform(0.5, 1.0, size=columns)
        v = rng.normal(size=(n, columns))
        v -= v.mean(axis=0)
        size = max(n, 2) * np.finfo(float).eps * np.sqrt(n) * c * rng.uniform(0.97, 1.03, size=columns)
        X = c + size / np.linalg.norm(v, axis=0) * v
        y = rng.normal(size=n)
        metric = QcovMetric("dodge", tau=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            zero = qcov_matrix(X, y, metric)[:, 0] == 0.0
        dropped = [not quantreg._solve_lp(np.column_stack([np.ones(n), x]), y, 0.5)[2][1] for x in X.T]
        assert_array_equal(zero, dropped)
        counts = [re.search(rf" at (\d+) of {columns} entries", str(w.message))[1] for w in caught]
        assert counts == [str(zero.sum())]
        if n == 400:
            monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", n * (n - 1) // 2)
            with pytest.warns(ZeroVarianceWarning):
                assert_array_equal(qcov_matrix(X, y, metric)[:, 0] == 0.0, zero)

    @pytest.mark.parametrize("n", [20, 400], ids=["listing", "simplex"])
    @pytest.mark.parametrize("kind", ["dodge", "choi"])
    def test_regressor_whose_squares_underflow_is_fitted(self, kind, n):
        # The squares of x = 0..n-1 times 1e-170 underflow to 0, yet the simplex
        # fits x (slope about 1e170). Its entry is fitted, not zeroed, and is
        # 2**-600 times that of x * 2**600, exactly; var(x) alone is below the
        # smallest double.
        x = np.arange(n) * 1e-170
        y = np.arange(n) + np.random.default_rng(n).normal(size=n)
        metric = QcovMetric(kind, tau=0.5)
        value = qcov_matrix(x[:, None], y[:, None], metric)[0, 0]
        assert value != 0.0
        assert value == np.ldexp(qcov_matrix(np.ldexp(x, 600)[:, None], y[:, None], metric)[0, 0], -600)

    def test_row_count_mismatch(self):
        from fpqr.exceptions import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            qcov_matrix(np.ones((4, 2)), np.ones((5, 2)), QcovMetric("classical"))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            qcov_matrix(np.ones((1, 2)), np.ones((1, 2)), QcovMetric("li", 0.5))


def recorded(call, *args):
    # call(*args), or SolverFailure, and the (category, message) of every warning it raised.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except SolverFailure:
            result = SolverFailure
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    law=st.sampled_from(["random", "tied", "t2"]),
    n=st.integers(3, 16),
    a=st.lists(st.integers(-1000, 1000), min_size=1, max_size=3),
    b=st.lists(st.integers(-1000, 1000), min_size=1, max_size=3),
    tau=st.sampled_from([0.25, 0.5, 0.8]),
    simplex=st.booleans(),
)
def test_entries_scale_exactly_with_their_columns(seed, law, n, a, b, tau, simplex):
    # Column j of X scaled by 2**a[j] and column k of Y by 2**b[k] scale each li
    # entry by 2**a[j], each dodge and choi entry by 2**(a[j] + b[k]) and
    # qcor_choi by 1, bit for bit wherever that is a normal double, with the
    # same warnings; SolverFailure exactly where such a value overflows.
    rng = np.random.default_rng(seed)
    draw = {"random": rng.normal, "tied": lambda size: rng.integers(-2, 3, size=size).astype(float),
            "t2": lambda size: rng.standard_t(2, size=size)}[law]
    X, Y = draw(size=(n, len(a))), draw(size=(n, len(b)))
    a, b = np.array(a), np.array(b)
    sX, sY = np.ldexp(X, a), np.ldexp(Y, b)
    assume(np.array_equal(np.ldexp(sX, -a), X) and np.array_equal(np.ldexp(sY, -b), Y))
    shifts = {"li": a[:, None] + 0 * b, "dodge": a[:, None] + b, "choi": a[:, None] + b}
    with mock.patch.object(quantreg, "SLOPE_BLOCK_ENTRIES", 1 if simplex else quantreg.SLOPE_BLOCK_ENTRIES):
        for kind, shift in shifts.items():
            base, base_warnings = recorded(qcov_matrix, X, Y, QcovMetric(kind, tau))
            with np.errstate(over="ignore"):
                want = np.ldexp(base, shift)
            got, got_warnings = recorded(qcov_matrix, sX, sY, QcovMetric(kind, tau))
            if np.isinf(want).any():
                assert got is SolverFailure, kind
                continue
            assert got_warnings == base_warnings, kind
            normal = (np.abs(want) >= np.finfo(float).tiny) | (base == 0.0)
            assert got[normal].tobytes() == want[normal].tobytes(), kind
        base, base_warnings = recorded(qcor_choi, X[:, 0], Y[:, 0], tau)
        got, got_warnings = recorded(qcor_choi, sX[:, 0], sY[:, 0], tau)
        assert np.float64(got).tobytes() == np.float64(base).tobytes() and got_warnings == base_warnings


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(23, 362), st.integers(363, 420)),
    tau=st.floats(0.1, 0.9),
    m=st.integers(1, 3),
    l=st.integers(1, 2),
)
def test_reflection_negates_dodge_and_the_inner_fit_and_li_by_its_quantile_rows(seed, sizes, tau, m, l):
    # Fitting level 1 - tau on -Y mirrors level tau on Y. Continuous data with
    # n * tau not an integer has one optimum, and the reflection's is exactly
    # the negated one: every dodge entry and the inner fit, whether the slopes
    # come from the listing (up to 362 rows) or the simplex (beyond). li gives
    # the row at the quantile the weight tau on both sides, so the two sum to
    # that row's centered x over n instead of 0.
    rng = np.random.default_rng(seed)
    for n in sizes:
        assume(abs(n * tau - round(n * tau)) > 1e-6)
        X, Y = rng.normal(size=(n, m)), rng.standard_t(3, size=(n, l))
        dodge = qcov_matrix(X, Y, QcovMetric("dodge", tau))
        assert_array_equal(qcov_matrix(X, -Y, QcovMetric("dodge", 1.0 - tau)), -dodge)
        fit, reflected = fit_quantile_regression(X, Y[:, 0], tau), fit_quantile_regression(X, -Y[:, 0], 1.0 - tau)
        assert_array_equal(reflected.coefficients, -fit.coefficients)
        assert reflected.intercept == -fit.intercept
        li = qcov_matrix(X, Y, QcovMetric("li", tau))
        at_quantile = Y == np.sort(Y, axis=0)[int(np.ceil(n * tau)) - 1]
        correction = (X - X.mean(axis=0)).T @ at_quantile / n
        total = qcov_matrix(X, -Y, QcovMetric("li", 1.0 - tau)) + li
        assert np.abs(total - correction).max() <= 1e-14 * np.abs(li).max()


class TestMetricTag:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            QcovMetric("spearman")

    def test_quantile_kinds_require_level(self):
        with pytest.raises(ValueError, match="requires a quantile level"):
            QcovMetric("li")

    def test_level_must_be_interior(self):
        with pytest.raises(ValueError):
            QcovMetric("dodge", tau=1.0)

    def test_classical_carries_no_level(self):
        assert QcovMetric("classical").tau is None

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fpqr import check_loss, empirical_quantile, fit_fpqr, fit_quantile_regression, psi
from fpqr import fpqr as fpqr_module
from fpqr import quantreg
from fpqr.evaluate import generate_simulation, make_simulation_spec
from fpqr.exceptions import DegenerateDesignWarning, DimensionMismatch, SolverFailure

from _oracles import (
    check_loss_mean,
    lexicographic_quantile_optimum,
    listed_quantile_slopes,
    local_minimum_certificate,
    primal_quantile_lp,
    profiled_slope_objective,
    qr_vertex_search,
)


class TestCheckLoss:
    @pytest.mark.parametrize(
        "u,tau,expected",
        [(2.0, 0.5, 1.0), (-1.0, 0.3, 0.7), (0.0, 0.9, 0.0), (4.0, 0.25, 1.0), (-4.0, 0.75, 1.0)],
    )
    def test_values(self, u, tau, expected):
        assert check_loss(u, tau) == pytest.approx(expected)

    def test_nonnegative_and_zero_only_at_origin(self):
        u = np.linspace(-5, 5, 201)
        loss = check_loss(u, 0.3)
        assert (loss >= 0).all()
        assert loss[u == 0] == 0
        assert (loss[u != 0] > 0).all()

    def test_array_shape_preserved(self):
        out = check_loss(np.array([[1.0, -1.0]]), 0.5)
        assert out.shape == (1, 2)
        assert_allclose(out, [[0.5, 0.5]])

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.7])
    def test_tau_bounds(self, tau):
        with pytest.raises(ValueError, match="open interval"):
            check_loss(1.0, tau)


class TestPsi:
    @pytest.mark.parametrize(
        "u,tau,expected",
        [(0.0, 0.25, 0.25), (1e-9, 0.25, 0.25), (-1e-9, 0.25, -0.75), (3.0, 0.6, 0.6), (-2.0, 0.6, -0.4)],
    )
    def test_values(self, u, tau, expected):
        assert psi(u, tau) == pytest.approx(expected)

    def test_matches_check_loss_slope_away_from_origin(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=50) * 3
        u = u[np.abs(u) > 1e-3]
        tau = 0.35
        eps = 1e-7
        slope = (check_loss(u + eps, tau) - check_loss(u - eps, tau)) / (2 * eps)
        assert_allclose(psi(u, tau), slope, atol=1e-6)


class TestEmpiricalQuantile:
    def test_even_count_takes_lower_rank(self):
        assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_rank_formula(self):
        v = np.arange(1.0, 11.0)  # 1..10
        assert empirical_quantile(v, 0.3) == 3.0
        assert empirical_quantile(v, 0.31) == 4.0
        assert empirical_quantile(v, 0.999) == 10.0
        assert empirical_quantile(v, 0.001) == 1.0

    def test_integer_rank_products_do_not_round_up(self):
        # 0.7 * 10 is not exactly 7 in floating point; the rank must still be 7.
        v = np.arange(1.0, 11.0)
        assert empirical_quantile(v, 0.7) == 7.0

    def test_returns_a_data_value(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=17)
        for tau in (0.1, 0.25, 0.5, 0.9):
            assert empirical_quantile(v, tau) in v

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=12)
        assert empirical_quantile(v, 0.4) == empirical_quantile(v[::-1], 0.4)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_quantile([], 0.5)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            empirical_quantile([1.0, np.nan], 0.5)


class TestFitQuantileRegression:
    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
    def test_exact_line_recovered(self, tau):
        x = np.linspace(-2, 3, 9)
        y = 3.0 * x + 1.0
        fit = fit_quantile_regression(x[:, None], y, tau)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-8)
        assert fit.intercept == pytest.approx(1.0, abs=1e-8)
        assert fit.objective <= 1e-10

    def test_intercept_only_resists_outlier(self):
        fit = fit_quantile_regression(np.empty((5, 0)), [1.0, 2.0, 3.0, 4.0, 100.0], 0.5)
        assert fit.coefficients.shape == (0,)
        assert fit.intercept == pytest.approx(3.0)

    def test_intercept_only_matches_quantile_odd_n(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            y = rng.normal(size=11)
            fit = fit_quantile_regression(np.empty((11, 0)), y, 0.5)
            assert fit.intercept == pytest.approx(empirical_quantile(y, 0.5), abs=1e-9)

    def test_objective_recomputed_from_parameters(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = X @ [1.0, -2.0] + rng.normal(size=40)
        fit = fit_quantile_regression(X, y, 0.3)
        manual = check_loss_mean(y - X @ fit.coefficients - fit.intercept, 0.3)
        assert fit.objective == pytest.approx(manual, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 2))
        y = X @ [0.5, 2.0] + rng.standard_t(3, size=30)
        base = fit_quantile_regression(X, y, 0.25)
        scaled = fit_quantile_regression(X, 10.0 * y, 0.25)
        assert_allclose(scaled.coefficients, 10.0 * base.coefficients, atol=1e-7)
        assert scaled.intercept == pytest.approx(10.0 * base.intercept, abs=1e-7)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        base = fit_quantile_regression(X, y, 0.6)
        shifted = fit_quantile_regression(X, y + 5.0, 0.6)
        assert_allclose(shifted.coefficients, base.coefficients, atol=1e-7)
        assert shifted.intercept == pytest.approx(base.intercept + 5.0, abs=1e-7)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_residual_sign_counts(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        n, p = 60, 3
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        fit = fit_quantile_regression(X, y, tau)
        resid = y - X @ fit.coefficients - fit.intercept
        frac_below = np.mean(resid < -1e-9)
        frac_at_or_below = np.mean(resid <= 1e-9)
        assert frac_below <= tau + 1e-12
        assert frac_at_or_below >= tau - (p + 1) / n - 1e-12

    def test_constant_column_dropped_with_warning(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=30)
        y = 2.0 * x + rng.normal(size=30)
        X = np.column_stack([x, np.full(30, 7.0)])
        with pytest.warns(DegenerateDesignWarning):
            fit = fit_quantile_regression(X, y, 0.5)
        assert fit.coefficients[1] == 0.0
        clean = fit_quantile_regression(x[:, None], y, 0.5)
        assert fit.coefficients[0] == pytest.approx(clean.coefficients[0], abs=1e-9)
        assert fit.intercept == pytest.approx(clean.intercept, abs=1e-9)

    def test_nearly_constant_column_dropped_not_the_intercept(self):
        # A column a few units of rounding from constant passes an exact
        # constant test; the dependent-column rule must still drop it, and
        # not the intercept, which it is all but collinear with.
        rng = np.random.default_rng(14)
        x = rng.normal(size=30)
        y = 2.0 * x + rng.normal(size=30)
        near = np.full(30, 7.0)
        near[3] = 7.0 + 7.0 * 2.0**-50
        with pytest.warns(DegenerateDesignWarning, match=r"\[1\]"):
            fit = fit_quantile_regression(np.column_stack([x, near]), y, 0.5)
        clean = fit_quantile_regression(x[:, None], y, 0.5)
        assert fit.coefficients[1] == 0.0
        assert fit.coefficients[0] == pytest.approx(clean.coefficients[0], abs=1e-9)
        assert fit.intercept == pytest.approx(clean.intercept, abs=1e-9)

    @pytest.mark.parametrize("with_intercept", [True, False])
    def test_dependent_column_named_and_zeroed(self, with_intercept):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 2.0 * X[:, 0] - X[:, 2] + 3.0 * with_intercept
        X[:, [1, 2]] = X[:, [2, 1]]  # the dependent column last, at index 2
        y = X[:, 0] - X[:, 1] + rng.standard_t(3, size=40)
        if with_intercept:
            with pytest.warns(DegenerateDesignWarning, match=r"\[2\]"):
                fit = fit_quantile_regression(X, y, 0.4)
            clean = fit_quantile_regression(X[:, :2], y, 0.4)
            assert fit.intercept == pytest.approx(clean.intercept, abs=1e-9)
            coefficients, clean_coefficients = fit.coefficients, clean.coefficients
        else:  # no constant column: the solver on the design as given
            coefficients, _, kept = quantreg._solve_lp(X, y, 0.4)
            assert_array_equal(kept, [True, True, False])
            clean_coefficients = quantreg._solve_lp(X[:, :2], y, 0.4)[0]
        assert coefficients[2] == 0.0
        assert_allclose(coefficients[:2], clean_coefficients, rtol=0, atol=1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 2, 14))
            tau = float(rng.choice([0.2, 0.5, 0.8]))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.standard_t(2, size=n)
            fit = fit_quantile_regression(X, y, tau)
            oracle_obj, _ = qr_vertex_search(X, y, tau)
            assert fit.objective == pytest.approx(oracle_obj, abs=1e-8), f"trial {trial}"
            assert local_minimum_certificate(X, y, tau, fit.coefficients, fit.intercept)

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError, match="observations"):
            fit_quantile_regression(np.ones((2, 2)), [1.0, 2.0], 0.5)

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            fit_quantile_regression(np.ones((3, 1)), [1.0, 2.0], 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_quantile_regression(np.ones((3, 1)), [1.0, np.inf, 2.0], 0.5)
        with pytest.raises(ValueError, match="X contains non-finite"):
            fit_quantile_regression([[1.0], [np.nan], [2.0]], [1.0, 2.0, 3.0], 0.5)

    def test_empty_y_or_3d_x_rejected(self):
        with pytest.raises(ValueError, match="y must be non-empty"):
            fit_quantile_regression(np.ones((0, 1)), [], 0.5)
        with pytest.raises(ValueError, match="X must be 1-d or 2-d, got 3-d"):
            fit_quantile_regression(np.ones((3, 1, 1)), [1.0, 2.0, 3.0], 0.5)

    def test_overflowing_optimum_raises_solver_failure(self):
        # The exact slope, 1e310, does not fit in a double.
        x = np.array([1e-300, 2e-300, 3e-300, 4e-300])
        with pytest.raises(SolverFailure, match="does not fit in a double"):
            fit_quantile_regression(x, [0.0, 1e10, 2e10, 3e10], 0.5)

    def test_regressor_whose_squares_overflow_is_kept(self):
        # The sum of squares of x = 0..19 times 1e200 overflows a double; the QR
        # rule must still keep x, not drop it and return slope 0.
        x = np.arange(20.0) * 1e200
        y = 3.0 * x + np.random.default_rng(36).normal(size=20)
        fit = fit_quantile_regression(x[:, None], y, 0.5)
        assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-12)


def fitted_objective(X, y, tau, with_intercept=True):
    # The fit's objective; without an intercept column, that of the solver
    # on the design as given.
    if with_intercept:
        return fit_quantile_regression(X, y, tau).objective
    return check_loss_mean(y - X @ quantreg._solve_lp(X, y, tau)[0], tau)


def assert_matches_primal(X, y, tau, with_intercept=True):
    # The package's objective must equal the primal program's within 1e-9
    # relative, or 1e-12 absolute near zero.
    D = np.hstack([X, np.ones((y.size, 1))]) if with_intercept else X
    primal = check_loss_mean(y - D @ primal_quantile_lp(D, y, tau), tau)
    assert fitted_objective(X, y, tau, with_intercept) == pytest.approx(primal, rel=1e-9, abs=1e-12)


class TestAgainstPrimalProgram:
    """The package's simplex on the dual program against HiGHS on the primal."""

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n, p", [(100, 30), (2000, 10)], ids=["100x31", "2000x11"])
    def test_random_designs(self, n, p, tau):
        rng = np.random.default_rng(n + p + int(100 * tau))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_t(2, size=n)
        assert_matches_primal(X, y, tau)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_tied_integer_data(self, tau):
        rng = np.random.default_rng(int(100 * tau))
        for _ in range(10):
            X = rng.integers(-2, 3, size=(40, 3)).astype(float)
            y = rng.integers(-3, 4, size=40).astype(float)
            assert_matches_primal(X, y, tau)

    @pytest.mark.parametrize("tau", [0.3, 0.5])
    def test_duplicated_score_column(self, tau):
        rng = np.random.default_rng(41)
        t = rng.normal(size=(60, 3))
        X = np.column_stack([t, t[:, 1]])
        y = t @ [1.0, -0.5, 2.0] + rng.standard_t(3, size=60)
        with pytest.warns(DegenerateDesignWarning, match=r"\[3\]"):
            assert_matches_primal(X, y, tau)

    def test_dependent_column_ahead_of_an_independent_one(self):
        # x1 = 2 * x0 comes before the intercept column; only x1 may go.
        X = np.array([[1.0, 2.0], [-1.0, -2.0], [-1.0, -2.0]])
        y = np.array([-2.0, 0.0, 0.0])
        with pytest.warns(DegenerateDesignWarning, match=r"\[1\]"):
            fit = fit_quantile_regression(X, y, 0.01)
        assert fit.objective == pytest.approx(0.0, abs=1e-15)  # x0 - 1 fits every row
        with pytest.warns(DegenerateDesignWarning, match=r"\[1\]"):
            assert_matches_primal(X, y, 0.01)

    @pytest.mark.parametrize("with_intercept", [True, False])
    def test_as_many_rows_as_parameters(self, with_intercept):
        rng = np.random.default_rng(42)
        p = 4 if with_intercept else 5
        X = rng.normal(size=(5, p))
        y = rng.normal(size=5)
        assert fitted_objective(X, y, 0.4, with_intercept) == pytest.approx(0.0, abs=1e-12)  # every row interpolated
        assert_matches_primal(X, y, 0.4, with_intercept=with_intercept)

    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
    def test_without_intercept(self, tau):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(80, 4))
        y = 3.0 + X @ [1.0, 0.0, -1.0, 0.5] + rng.normal(size=80)
        assert_matches_primal(X, y, tau, with_intercept=False)

    @pytest.mark.parametrize("tau", [0.01, 0.99])
    def test_extreme_levels(self, tau):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(150, 5))
        y = X @ rng.normal(size=5) + rng.standard_t(2, size=150)
        assert_matches_primal(X, y, tau)


class TestReweightedStart:
    """Inputs that zero, tie or skew the residuals of the reweighting rounds
    that start the simplex. pytest turns a RuntimeWarning into an error."""

    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_response_in_the_column_span(self, tau):
        rng = np.random.default_rng(46)
        X = rng.integers(-3, 4, size=(30, 3)).astype(float)
        y = X @ [2.0, -1.0, 0.5] + 4.0  # every least-squares residual is 0
        assert_matches_primal(X, y, tau)

    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_constant_response(self, tau):
        X = np.random.default_rng(47).normal(size=(25, 2))
        fit = fit_quantile_regression(X, np.full(25, -7.0), tau)
        assert fit.objective == 0.0
        assert_matches_primal(X, np.full(25, -7.0), tau)

    @pytest.mark.parametrize("tau", [0.02, 0.3, 0.5, 0.98])
    def test_integer_tied_response(self, tau):
        rng = np.random.default_rng(48)
        X = rng.normal(size=(50, 4))
        y = rng.integers(-2, 3, size=50).astype(float)
        assert_matches_primal(X, y, tau)

    @pytest.mark.parametrize("tau", [0.02, 0.98])
    def test_extreme_levels_with_many_parameters(self, tau):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(120, 20))
        y = X @ rng.normal(size=20) + rng.standard_t(1, size=120)
        assert_matches_primal(X, y, tau)

    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_every_column_dropped(self, tau):
        # No intercept and an all-zero design: the simplex has k = 0.
        y = np.random.default_rng(50).normal(size=15)
        params, iterations, kept = quantreg._solve_lp(np.zeros((15, 2)), y, tau)
        assert iterations == 0
        assert not kept.any()
        assert_array_equal(params, 0.0)
        assert_matches_primal(np.zeros((15, 2)), y, tau, with_intercept=False)


def study_pivots(scheme, law, repetitions, components, monkeypatch):
    # Simplex pivots summed over every inner fit of the fpqr-li fits of a
    # study's first repetitions at seed 0.
    pivots = []
    fit = fpqr_module.fit_quantile_regression

    def counting(*args, **kwargs):
        result = fit(*args, **kwargs)
        pivots.append(result.iterations)
        return result

    monkeypatch.setattr(fpqr_module, "fit_quantile_regression", counting)
    spec = make_simulation_spec(scheme, law, repetitions=repetitions, seed=0)
    for repetition in range(repetitions):
        X, Y = generate_simulation(spec, repetition)[:2]
        fit_fpqr(X, Y, components, tau=0.5, metric="li")
    return sum(pivots)


def test_reweighted_start_saves_pivots(monkeypatch):
    # A least-squares start took 85 pivots over sim2's three inner fits at
    # h = 30, and 109 over the first 20 sim3-low/t1 fits at h = 2.
    assert study_pivots("sim2", None, 1, 30, monkeypatch) <= 0.6 * 85
    assert study_pivots("sim3-low", "t1", 20, 2, monkeypatch) <= 0.6 * 109


@pytest.mark.filterwarnings("ignore::fpqr.exceptions.DegenerateDesignWarning")
@settings(max_examples=300)
@given(
    st.sampled_from(["tied", "exact", "dependent"]),
    st.booleans(),
    st.integers(1, 4),
    st.integers(0, 30),
    st.sampled_from([0.01, 0.25, 0.5, 0.99]),
    st.integers(0, 2**32 - 1),
)
def test_degenerate_designs_match_the_primal_program(kind, with_intercept, p, spare_rows, tau, seed):
    # Small-integer data, so residuals tie and vertices are degenerate:
    # "exact" puts y in the column space (every residual 0), "dependent"
    # makes the last column a combination of the others (and of the
    # intercept, when there is one), and spare_rows = 0 gives n == k.
    rng = np.random.default_rng(seed)
    n = p + with_intercept + spare_rows
    X = rng.integers(-2, 3, size=(n, p)).astype(float)
    y = rng.integers(-3, 4, size=n).astype(float)
    if kind == "exact":
        y = X @ rng.integers(-2, 3, size=p) + with_intercept * rng.integers(-2, 3)
    elif kind == "dependent":
        X[:, -1] = X[:, :-1] @ rng.integers(-2, 3, size=p - 1) + with_intercept * rng.integers(-2, 3)
    # Without an intercept column the solver runs on the design as given.
    if with_intercept:
        fit = fit_quantile_regression(X, y, tau)
        params, objective = np.append(fit.coefficients, fit.intercept), fit.objective
    else:
        params = quantreg._solve_lp(X, y, tau)[0]
        objective = check_loss_mean(y - X @ params, tau)
    D = np.hstack([X, np.ones((n, 1))]) if with_intercept else X
    primal = check_loss_mean(y - D @ primal_quantile_lp(D, y, tau), tau)
    # Any coefficients score at least the optimum, so the fit passes when it
    # scores no worse than the primal program's own vertex. An exact fit
    # scores its rounding error, which scales with |y| + |D| @ |params|.
    scale = (np.abs(y) + np.abs(D) @ np.abs(params)).max()
    assert objective <= primal + max(1e-12 * primal, 1e-15 * scale)
    intercept = params[p] if with_intercept else 0.0
    assert local_minimum_certificate(X, y, tau, params[:p], intercept, with_intercept=with_intercept)


@pytest.mark.parametrize("scheme, law", [("sim2", None), ("sim3-low", "t1")])
@pytest.mark.parametrize("seed", range(5))
def test_study_fits_are_the_solve_on_their_interpolated_rows(scheme, law, seed, monkeypatch):
    # The study's inner fits have a unique optimum that interpolates exactly
    # k rows; the fit must be, bit for bit, one solve on those rows in
    # ascending order.
    calls = []
    solve = quantreg._solve_lp

    def recording(D, y, tau):
        params, pivots, kept = solve(D, y, tau)
        calls.append((D, y, params))
        return params, pivots, kept

    monkeypatch.setattr(quantreg, "_solve_lp", recording)
    spec = make_simulation_spec(scheme, law, repetitions=1, seed=seed)
    X, Y = generate_simulation(spec, 0)[:2]
    fit_fpqr(X, Y, spec.n_components, tau=0.5, metric="li")
    assert len(calls) == Y.shape[1]
    for D, y, params in calls:
        residuals = np.abs(y - D @ params)
        rows = np.flatnonzero(residuals <= 1e-12 * (np.abs(y) + np.abs(D) @ np.abs(params)))
        assert rows.size == D.shape[1]
        assert_array_equal(params, np.linalg.solve(D[rows], y[rows]))


def test_pivot_cap_raises_solver_failure(monkeypatch):
    rng = np.random.default_rng(45)
    D = np.column_stack([rng.normal(size=(60, 3)), np.ones(60)])
    y = D[:, :3] @ [1.0, -1.0, 0.5] + rng.standard_t(2, size=60)
    assert quantreg._solve_lp(D, y, 0.3)[1] > 0  # the start is not optimal
    monkeypatch.setattr(quantreg, "_PIVOT_CAP", 0)
    with pytest.raises(SolverFailure, match="0 pivots"):
        quantreg._solve_lp(D, y, 0.3)


@pytest.mark.parametrize("tau", [0.1, 0.37, 0.5, 0.9])
def test_fit_interpolates_at_least_as_many_rows_as_parameters(tau):
    # A basic optimal solution passes through k observations exactly; the
    # fit must land on one to rounding error, not to solver tolerance. The
    # primal program misses by up to about 2e-11 on some of these
    # heavy-tailed designs.
    rng = np.random.default_rng(int(100 * tau))
    for trial in range(60):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 2, 40))
        X = rng.standard_t(2, size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_t(1, size=n)
        fit = fit_quantile_regression(X, y, tau)
        residuals = y - X @ fit.coefficients - fit.intercept
        scale = np.abs(y) + np.abs(X) @ np.abs(fit.coefficients) + abs(fit.intercept)
        interpolated = np.sum(np.abs(residuals) <= 1e-12 * scale)
        assert interpolated >= p + 1, f"trial {trial}: {interpolated} of {p + 1}"


@pytest.mark.parametrize("tau", [0.1, 0.37, 0.5, 0.9])
def test_fit_lands_on_the_vertex_with_many_parameters(tau):
    # With k in the twenties the dual's multipliers alone sit up to about
    # 1e-11 relative off the vertex; the fit must reach it to rounding.
    rng = np.random.default_rng(7)
    for trial in range(25):
        p = int(rng.integers(5, 31))
        n = int(rng.integers(p + 2, 201))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        fit = fit_quantile_regression(X, y, tau)
        residuals = y - X @ fit.coefficients - fit.intercept
        scale = np.abs(y) + np.abs(X) @ np.abs(fit.coefficients) + abs(fit.intercept)
        kth = np.sort(np.abs(residuals) / scale)[p]  # k = p + 1 parameters
        assert kth <= 1e-14, f"trial {trial} ({n}x{p}): {kth:.2e}"


@pytest.mark.filterwarnings("ignore::fpqr.exceptions.DegenerateDesignWarning")
@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.25, 0.5, 0.9]))
def test_objective_invariant_to_row_order(seed, tau):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    n = int(rng.integers(p + 2, 60))
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + rng.standard_t(2, size=n)
    if seed % 3 == 0:  # tied integer data too
        X, y = np.round(X), np.round(y)
    order = rng.permutation(n)
    base = fit_quantile_regression(X, y, tau).objective
    permuted = fit_quantile_regression(X[order], y[order], tau).objective
    assert permuted == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_flat_optimum_ends_on_the_lexicographically_smallest_vertex():
    # Tied integer data often have a face of optimal vertices; the fit must
    # be the smallest of them, coefficients first and the intercept last.
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 2, 13))
        tau = float(rng.choice([0.25, 0.5, 0.75]))
        X = rng.integers(-2, 3, size=(n, p)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
        if np.linalg.matrix_rank(np.column_stack([X, np.ones(n)])) <= p:
            continue
        fit = fit_quantile_regression(X, y, tau)
        want = lexicographic_quantile_optimum(X, y, tau)
        assert_allclose(np.append(fit.coefficients, fit.intercept), want, rtol=0, atol=1e-9, err_msg=f"design {checked}")
        checked += 1


@st.composite
def permuted_tied_designs(draw):
    # Rows of small integers, predictors then response, and a row order.
    p = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=p + 1, max_size=p + 1)
    table = np.array(draw(st.lists(row, min_size=p + 2, max_size=40)), dtype=float)
    return table[:, :p], table[:, p], np.array(draw(st.permutations(range(table.shape[0]))))


@pytest.mark.filterwarnings("ignore::fpqr.exceptions.DegenerateDesignWarning")
@settings(max_examples=150, derandomize=True)
@given(permuted_tied_designs(), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
def test_coefficients_invariant_to_row_order_on_tied_data(design, tau):
    # Where the optimum is not unique, the fit must still be fixed by the
    # data alone, not by which row comes first.
    X, y, order = design
    base = fit_quantile_regression(X, y, tau)
    permuted = fit_quantile_regression(X[order], y[order], tau)
    base_params = np.append(base.coefficients, base.intercept)
    permuted_params = np.append(permuted.coefficients, permuted.intercept)
    assert_allclose(permuted_params, base_params, rtol=0, atol=1e-12 * max(np.abs(base_params).max(), 1.0))


def paired_slopes(X, Y, tau):
    columns = np.arange(X.shape[1])
    return quantreg.quantile_slopes(X, Y, tau, columns, columns)


class TestQuantileSlopes:
    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [5, 8, 20, 60, 100, 400])
    def test_matches_linear_program_on_random_data(self, n, tau, monkeypatch):
        # On continuous data the optimal slope is one vertex, so the listing and
        # the inner simplex return the same double. Past 362 rows, where no
        # pairwise slope is listed by default, a larger block forces the
        # listing, so it is still checked against the simplex there.
        assert (n * (n - 1) // 2 > quantreg.SLOPE_BLOCK_ENTRIES) == (n == 400)
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", max(quantreg.SLOPE_BLOCK_ENTRIES, n * (n - 1) // 2))
        rng = np.random.default_rng(n + int(100 * tau))
        X = rng.normal(size=(n, 12))
        Y = X * rng.uniform(-1.0, 2.0, size=12) + rng.standard_t(2, size=(n, 12))
        for A, B in ((X, Y), (Y, X)):
            lp = [fit_quantile_regression(A[:, [c]], B[:, c], tau).coefficients[0] for c in range(12)]
            assert_array_equal(paired_slopes(A, B, tau), lp)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75, 0.3])
    def test_reaches_vertex_optimum_on_tied_integer_data(self, tau):
        rng = np.random.default_rng(int(100 * tau))
        for trial in range(25):
            n = int(rng.integers(4, 11))
            x = rng.integers(-2, 3, size=n).astype(float)
            x[-1] = x[0]  # at least one duplicated x
            y = rng.integers(-3, 4, size=n).astype(float)
            if np.ptp(x) == 0:
                continue
            slope = paired_slopes(x[:, None], y[:, None], tau)[0]
            oracle, _ = qr_vertex_search(x, y, tau)
            assert profiled_slope_objective(x, y, slope, tau) == pytest.approx(oracle, abs=1e-12), trial

    def test_flat_optimum_takes_smallest_minimiser(self):
        # Two groups of x; at tau = 0.5 with n = 6 (n * tau an integer) every
        # slope in [1, 3] is optimal, and the rule picks the left end.
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 1.0, 3.0, 1.0, 4.0, 2.0])
        objectives = [profiled_slope_objective(x, y, b, 0.5) for b in (0.5, 1.0, 2.0, 3.0, 3.5)]
        assert objectives[1] == objectives[2] == objectives[3] < min(objectives[0], objectives[4])
        assert paired_slopes(x[:, None], y[:, None], 0.5)[0] == 1.0
        assert fit_quantile_regression(x[:, None], y, 0.5).coefficients[0] == 1.0

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_simplex_slope_is_the_listed_slope_on_binary_x(self, tau):
        # A binary x with tied integer y has flat optima wherever the two
        # groups' quantiles are not unique; the simplex must end on the
        # listing's left end.
        rng = np.random.default_rng(int(100 * tau))
        for n in range(6, 101):
            x = rng.integers(0, 2, size=n).astype(float)
            x[:2] = 0.0, 1.0
            y = rng.integers(-3, 4, size=n).astype(float)
            listed = paired_slopes(x[:, None], y[:, None], tau)[0]
            assert fit_quantile_regression(x[:, None], y, tau).coefficients[0] == listed, f"n = {n}"

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(10, 9))
        Y = X + rng.normal(size=(10, 9))
        whole = paired_slopes(X, Y, 0.3)
        for entries in (45, 100, 200):  # 1, 2 and 4 listed pairs per block
            monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
            assert_array_equal(paired_slopes(X, Y, 0.3), whole)

    def test_subnormal_x_gap_lists_without_overflow(self, monkeypatch):
        # In binary units, beside the 1e10 spread, x = 0 and 1e-300 lie a
        # subnormal gap apart, so their pairwise slope overflows. The listing
        # used to raise numpy's overflow warning there.
        rng = np.random.default_rng(0)
        x = np.concatenate([[0.0, 1e-300], rng.standard_normal(18) * 1e10])[:, None]
        y = rng.standard_normal((20, 1)) * 1e-300
        x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
        listed = paired_slopes(x, y, 0.5)
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 1)
        assert listed.tobytes() == paired_slopes(x, y, 0.5).tobytes()

    def test_largest_finite_breakpoint_beside_an_overflowed_one(self, monkeypatch):
        # The pairwise slopes are about -1e310, 1 and 2, and at tau = 0.2 the
        # optimum is 2. The overflowed slope, sorted first as -inf, used to
        # cut the largest finite one from the bisected range.
        x = np.array([[0.0], [1e-300], [1e10]])
        y = np.array([[0.0], [-1e10], [1e10]])
        listed = paired_slopes(x, y, 0.2)
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 1)
        assert listed.tobytes() == paired_slopes(x, y, 0.2).tobytes() == np.array([2.0]).tobytes()

    @pytest.mark.parametrize("entries", [quantreg.SLOPE_BLOCK_ENTRIES, 1], ids=["listing", "simplex"])
    def test_slopes_scale_exactly_far_from_one(self, entries, monkeypatch):
        # Columns outside binary units, a case past the stated precondition:
        # the tie rule is relative, so x scaled by 2**-400 and y by 2**600
        # scale every slope by 2**1000, bit for bit. The contract callers rely
        # on is checked on qcov's entries, which scale with their columns.
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(37)
        X = rng.normal(size=(30, 3))
        Y = X + rng.standard_t(2, size=(30, 3))
        assert_array_equal(paired_slopes(np.ldexp(X, -400), np.ldexp(Y, 600), 0.4), np.ldexp(paired_slopes(X, Y, 0.4), 1000))

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.7])
    def test_search_without_listing_agrees(self, tau, monkeypatch):
        # Below the cap every pairwise slope is listed; a cap of 1 forces the
        # search that lists none, which must give the same slopes.
        rng = np.random.default_rng(int(100 * tau))
        X = np.vstack([rng.normal(size=(30, 8)), rng.integers(-3, 4, size=(30, 8))])
        Y = np.vstack([X[:30] + rng.standard_t(2, size=(30, 8)), rng.integers(-3, 4, size=(30, 8))])
        for rows in (slice(0, 30), slice(30, 60), slice(0, 7)):
            listed = paired_slopes(X[rows], Y[rows], tau)
            monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 1)
            assert_array_equal(paired_slopes(X[rows], Y[rows], tau), listed)
            monkeypatch.undo()

    @pytest.mark.parametrize("one_pair_per_block", [False, True])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [7, 100, 362, 363, 500])
    def test_same_bits_as_the_fancy_index_listing(self, n, tau, one_pair_per_block, monkeypatch):
        # Random, tied-integer and duplicated-x blocks, on both sides of the
        # 362 rows past which nothing is listed. One pair per block lists at
        # every n.
        if one_pair_per_block:
            monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", n * (n - 1) // 2)
        rng = np.random.default_rng(n + int(100 * tau))
        X = rng.normal(size=(n, 9))
        Y = X * rng.uniform(-1.0, 2.0, size=9) + rng.standard_t(2, size=(n, 9))
        T, U = rng.integers(-3, 4, size=(2, n, 9)).astype(float)
        D = np.repeat(X[: (n + 1) // 2], 2, axis=0)[:n]
        columns = np.arange(9)
        for A, B in ((X, Y), (Y, X), (T, U), (D, Y), (Y, D)):
            want = listed_quantile_slopes(A, B, tau, columns, columns)
            assert_array_equal(paired_slopes(A, B, tau), want)

    @pytest.mark.parametrize("tau", [0.3, 0.99])
    @pytest.mark.parametrize("layout", ["default", "chunks", "no-window"])
    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_narrowed_blocks_finish_on_the_listed_slopes(self, n, layout, tau, monkeypatch):
        # Each block is bisected only until every bracket fits a window; the
        # windows are finished after the blocks. "chunks" makes blocks of two
        # pairs and a finish over several chunks; "no-window" has so many pairs
        # that only windows of one slope fit, so the blocks bisect to the end.
        # Column 0 is n - 1 points on a gentle arc and one far right of and
        # below them, so at tau = 0.99 its slope is the first finite one;
        # column 1 mirrors x, so its slope is the last one, and its window is
        # clipped at the end of the listing. Then normal, tied-integer and
        # duplicated-x columns. Pairs repeat where a layout needs more.
        listed = n * (n - 1) // 2
        x = np.arange(n, dtype=float)
        x[-1] = listed + 9
        y = 0.01 * x**2
        y[-1] = y[-2] - (x[-1] - x[-2])
        rng = np.random.default_rng(n)
        normal = rng.normal(size=(n, 2))
        tied = rng.integers(-3, 4, size=(n, 2)).astype(float)
        duplicated = np.repeat(rng.normal(size=((n + 1) // 2, 1)), 2, axis=0)[:n]
        X = np.column_stack([x, -x, normal, tied, duplicated])
        Y = np.column_stack([y, y, normal + rng.standard_t(2, size=(n, 2)), rng.integers(-3, 4, size=(n, 2)), normal[:, 0]])
        columns = np.arange(7)
        want = listed_quantile_slopes(X, Y, tau, columns, columns)
        if tau == 0.99:
            i, j = np.triu_indices(n, 1)
            slopes = (y[i] - y[j]) / (x[i] - x[j])
            assert want[0] == slopes.min() and want[1] == (-slopes).max()
        repeats = {"default": 1, "chunks": max(1, n // 20), "no-window": listed // 28 + 1}[layout]
        entries = {"default": quantreg.SLOPE_BLOCK_ENTRIES, "chunks": 2 * listed, "no-window": listed}[layout]
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", entries)
        bisect, calls = quantreg._bisect, []

        def spy(x, y, tau, k, points, lo, hi, width):
            calls.append((x.shape[0], width))
            return bisect(x, y, tau, k, points, lo, hi, width)

        monkeypatch.setattr(quantreg, "_bisect", spy)
        pairs = np.tile(columns, repeats)
        got = quantreg.quantile_slopes(X, Y, tau, pairs, pairs)
        assert got.tobytes() == (np.tile(want, repeats) + 0.0).tobytes()
        finishes = [rows for rows, width in calls if width == 0]
        window = max(width for rows, width in calls) + 1
        if layout == "default":
            assert window == min(128, listed) and finishes == [pairs.size]
        elif layout == "chunks":
            assert 1 < window < listed and len(finishes) > 1
        else:
            assert window == 1

    @pytest.mark.parametrize("n", [10, 400])
    def test_no_pairs_give_no_slopes(self, n):
        X = np.random.default_rng(36).normal(size=(n, 2))
        for empty in ([], np.array([], dtype=np.intp)):
            got = quantreg.quantile_slopes(X, X, 0.5, empty, empty)
            assert got.shape == (0,) and got.dtype == float

    def test_listing_memory_at_the_papers_shape(self):
        # 40 rows and 2,800 pairs, the pairs of one dodge cross product on a
        # 40x700 table with 4 responses: block arrays of 84 pairs, then the
        # windows finished in chunks. Bisecting each block to the end peaked
        # at 3.46 arrays (1.81 MB); 4.1 leaves about 19% headroom, as in the
        # tests below.
        rng = np.random.default_rng(34)
        X = rng.normal(size=(40, 2800))
        Y = X + rng.standard_t(2, size=(40, 2800))
        tracemalloc.start()
        try:
            paired_slopes(X, Y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.1 * 8 * quantreg.SLOPE_BLOCK_ENTRIES

    def test_listing_memory_stays_within_four_block_arrays(self):
        # A listing block keeps three arrays of SLOPE_BLOCK_ENTRIES doubles
        # alive at once; with its index arrays and masks, 100 pairs at n = 100
        # peaked at 3.35 arrays (1.76 MB), so 4 leaves about 19% headroom.
        rng = np.random.default_rng(34)
        X = rng.normal(size=(100, 100))
        Y = X + rng.standard_t(2, size=(100, 100))
        tracemalloc.start()
        try:
            paired_slopes(X, Y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * quantreg.SLOPE_BLOCK_ENTRIES

    def test_listing_memory_at_one_pair_per_block(self):
        # At 362 rows one pair fills a block, and the two index arrays of its
        # listing are each about a block array long: 20 pairs peaked at 5.26
        # arrays (2.76 MB), so 6.25 leaves about 19% headroom, as at n = 100.
        rng = np.random.default_rng(34)
        X = rng.normal(size=(362, 20))
        Y = X + rng.standard_t(2, size=(362, 20))
        tracemalloc.start()
        try:
            paired_slopes(X, Y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.25 * 8 * quantreg.SLOPE_BLOCK_ENTRIES

    def test_blocks_reuse_their_arrays_without_stale_values(self, monkeypatch):
        # Seven full blocks of four pairs and a last one of two share one set
        # of block arrays. Tied-integer and duplicated-x columns, whose equal x
        # leave slots with no slope, come in blocks right after blocks of
        # normal columns, which fill every slot. A stale value in such a slot
        # would be a spurious breakpoint, which the bisection of a convex loss
        # never picks, so the slopes alone cannot show one: each block's sorted
        # slopes must hold one inf per zero x difference.
        n = 100
        monkeypatch.setattr(quantreg, "SLOPE_BLOCK_ENTRIES", 4 * n * (n - 1) // 2)
        listed, addresses = quantreg._listed_slopes, set()

        def spy(x, y, i, j, dx, dy, points):
            slopes = listed(x, y, i, j, dx, dy, points)
            assert_array_equal((points == np.inf).sum(axis=1), (dx == 0.0).sum(axis=1))
            addresses.add(tuple(a.__array_interface__["data"][0] for a in (dx, dy, points)))
            return slopes

        monkeypatch.setattr(quantreg, "_listed_slopes", spy)
        rng = np.random.default_rng(35)
        normal = rng.normal(size=(n, 16))
        tied = rng.integers(-3, 4, size=(n, 8)).astype(float)
        duplicated = np.repeat(rng.normal(size=(n // 2, 6)), 2, axis=0)
        X = np.hstack([normal[:, :8], tied, normal[:, 8:12], duplicated, normal[:, 12:]])
        Y = X * rng.uniform(-1.0, 2.0, size=30) + rng.standard_t(2, size=(n, 30))
        Y[:, 8:16] = rng.integers(-3, 4, size=(n, 8))
        columns = np.arange(30)
        got = paired_slopes(X, Y, 0.5)
        assert len(addresses) == 1
        kept = got.copy()
        one_per_call = np.concatenate([paired_slopes(X[:, [c]], Y[:, [c]], 0.5) for c in columns])
        assert got.tobytes() == one_per_call.tobytes()
        assert_array_equal(got, listed_quantile_slopes(X, Y, 0.5, columns, columns))
        paired_slopes(Y, X, 0.3)
        assert got.tobytes() == kept.tobytes()

    def test_pairs_index_the_columns(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        got = quantreg.quantile_slopes(X, Y, 0.6, [2, 0, 2], [1, 1, 0])
        want = [paired_slopes(X[:, [a]], Y[:, [b]], 0.6)[0] for a, b in ((2, 1), (0, 1), (2, 0))]
        assert_array_equal(got, want)

    @pytest.mark.parametrize("tau", [0.2, 0.5])
    def test_thousands_of_rows(self, tau):
        # A few thousand rows: the pairwise slopes (millions) are never
        # listed, and the result still matches the primal linear program.
        rng = np.random.default_rng(33)
        x = rng.normal(size=3000)
        y = 0.5 * x + rng.standard_t(3, size=3000)
        slope = paired_slopes(x[:, None], y[:, None], tau)[0]
        D = np.column_stack([x, np.ones(3000)])
        primal = primal_quantile_lp(D, y, tau)
        assert slope == pytest.approx(primal[0], abs=1e-9)
        assert profiled_slope_objective(x, y, slope, tau) <= check_loss_mean(y - D @ primal, tau) + 1e-12

    @pytest.mark.filterwarnings("ignore::fpqr.exceptions.DegenerateDesignWarning")
    @settings(max_examples=150)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-6, 6).map(float), st.floats(-10, 10).map(lambda v: round(v, 3))),
                st.one_of(st.integers(-6, 6).map(float), st.floats(-10, 10).map(lambda v: round(v, 3))),
            ),
            min_size=3,
            max_size=15,
        ),
        st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    )
    def test_objective_never_exceeds_the_linear_program(self, points, tau):
        x, y = (np.array(column) for column in zip(*points))
        assume(np.ptp(x) > 0)  # on this grid, the regressors the QR rule keeps
        slope = paired_slopes(x[:, None], y[:, None], tau)[0]
        lp = fit_quantile_regression(x[:, None], y, tau).objective
        assert profiled_slope_objective(x, y, slope, tau) <= lp + 1e-9 * (1.0 + lp)

"""Linear quantile regression for a single response, solved as the dual of
the check-loss linear program by an exact bound-flipping simplex; an exact
batched search for one-regressor quantile slopes; and the scalar pieces both
are built from (check loss, its subgradient weight, empirical quantiles)."""

__all__ = ["QrFit", "check_loss", "empirical_quantile", "fit_quantile_regression", "psi", "validate_tau"]

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateDesignWarning,
    DimensionMismatch,
    SolverFailure,
    warn,
)

# Most values :func:`quantile_slopes` holds at once: all pairwise slopes of
# a block of column pairs while one pair's fit in it, else rows times pairs.
SLOPE_BLOCK_ENTRIES = 2**16
# Flat-loss tolerance of the slope search, per unit of slope, as a fraction
# of sum(|x - mean(x)|) (see :func:`quantile_slopes`).
_FLAT_RTOL = 1e-12
# The slope bisection hands over to a walk over breakpoints once its bracket
# is this fraction of the largest slope magnitude.
_BRACKET_RTOL = 2.0**-40
# Residuals this many machine epsilons of the data scale apart count as tied.
_TIE_EPS = 8 * np.finfo(float).eps
# Pivots the inner simplex may take, per row and parameter, before it gives up.
_PIVOT_CAP = 50
# The inner simplex starts from this many rounds of reweighted least squares
# (Schlossmacher 1973): row i weighs tau / |r_i| above the fit and
# (1 - tau) / |r_i| below it, |r| floored at _START_FLOOR of its mean.
_START_ROUNDS = 8
_START_FLOOR = 0.1


def validate_tau(tau):
    """Return ``tau`` as a float after checking it lies strictly inside (0, 1)."""
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in the open interval (0, 1), got {tau}")
    return tau


def check_loss(u, tau):
    """Tilted absolute loss ``u * (tau - 1[u < 0])``, elementwise."""
    u = np.asarray(u, dtype=float)
    out = u * psi(u, tau)
    return float(out) if out.ndim == 0 else out


def psi(u, tau):
    """Check-loss subgradient weight ``tau - 1[u < 0]``; at 0 the value is ``tau``."""
    tau = validate_tau(tau)
    u = np.asarray(u, dtype=float)
    out = tau - (u < 0.0).astype(float)
    if out.ndim == 0:
        return float(out)
    return out


def empirical_quantile(v, tau):
    """Lower empirical quantile: the ceil(n*tau)-th order statistic of ``v``.

    Always returns an element of ``v``, which keeps the check-loss weights
    well defined at the quantile itself.
    """
    tau = validate_tau(tau)
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty vector")
    if not np.isfinite(v).all():
        raise ValueError("v contains non-finite entries")
    return float(np.sort(v)[_quantile_rank(v.size, tau) - 1])


def _quantile_rank(n, tau):
    # The small backoff keeps n*tau that is mathematically an integer from
    # rounding up one rank under floating-point error.
    return min(max(int(np.ceil(n * tau - 1e-12)), 1), n)


@dataclass(frozen=True)
class QrFit:
    """Result of a quantile-regression fit.

    ``objective`` is the mean check loss of the training residuals, recomputed
    directly from ``coefficients`` and ``intercept``.
    """

    coefficients: np.ndarray
    intercept: float
    objective: float
    iterations: int


def _solve_lp(D, y, tau):
    # Simplex on the dual (see fit_quantile_regression's Notes) for any design
    # D; an intercept is one of its columns, first if it must never drop. A vertex
    # interpolates the k basis rows; every other row's a sits at the bound its
    # residual's sign gives, and D.T @ a = 0 fixes a_B = -D_B^-T D_N^T a_N.
    # A basis row whose a_B is outside the box leaves, and one ratio test
    # passes every residual that changes sign, flipping its bound, until the
    # directional derivative is no longer negative; that row enters.
    n, k = D.shape
    params = np.zeros(k)
    # Columns dependent on earlier ones get coefficient 0; past R's first
    # vanishing diagonal the factors say nothing, so refactor without it.
    keep = np.ones(k, dtype=bool)
    while True:
        q, r = np.linalg.qr(D[:, keep])
        small = np.abs(np.diagonal(r)) <= max(n, k) * np.finfo(float).eps * np.linalg.norm(D[:, keep], axis=0)
        if not small.any():
            break
        keep[np.flatnonzero(keep)[small.argmax()]] = False
    D = D[:, keep]
    # The simplex runs on q: the same program and vertices, beta = R^-1 gamma,
    # without D's conditioning. It starts on the rows a pivoted Gram-Schmidt
    # picks, rows weighted by 1/|r less its tau-quantile| (at most 1e8 apart, so
    # rounding cannot pick a dependent row), r from least squares and
    # _START_ROUNDS reweightings.
    residual = y - q @ (q.T @ y)
    for _ in range(_START_ROUNDS):
        size = np.abs(residual)
        size /= size.mean() or 1.0
        qw = q.T * (np.where(residual > 0.0, tau, 1.0 - tau) / np.maximum(size, _START_FLOOR))
        residual = y - q @ np.linalg.solve(qw @ q, qw @ y)
    gap = np.abs(residual - empirical_quantile(residual, tau))
    scaled = q / np.maximum(gap, 1e-8 * max(gap.max(), np.abs(y).max()) or 1.0)[:, None]
    basis = np.empty(D.shape[1], dtype=np.intp)
    for c in range(basis.size):
        norms = np.einsum("ij,ij->i", scaled, scaled)
        basis[c] = i = norms.argmax()
        unit = scaled[i] / np.sqrt(norms[i])
        scaled -= np.multiply.outer(scaled @ unit, unit)
    dual_slack = _TIE_EPS * max(tau, 1.0 - tau) * np.abs(q).sum(axis=0)
    tie_y, tie_q = _TIE_EPS * np.abs(y), _TIE_EPS * np.abs(q)
    # Ties are broken as if y were y + e * w for an infinitesimal e > 0, so
    # every pivot lowers that loss and no basis recurs on tied data.
    w = np.sin(np.arange(1.0, n + 1.0))
    inverse = np.linalg.inv(q[basis])
    y_basis, w_basis = y[basis], w[basis]
    residual = y - q @ (inverse @ y_basis)
    tied = np.abs(residual) <= tie_y + tie_q @ (np.abs(inverse) @ np.abs(y_basis))
    a = np.where(np.where(tied, w - q @ (inverse @ w_basis), residual) < 0.0, tau - 1.0, tau)
    a[basis] = 0.0  # off the basis, a sits at the bound its residual's sign gives
    cap = _PIVOT_CAP * (n + k)
    for pivots in range(cap + 1):
        minus_dual = (a @ q) @ inverse
        size = np.abs(inverse)
        excess = np.abs(minus_dual + (tau - 0.5)) - 0.5
        over = excess - dual_slack @ size
        if not (over > 0.0).any():
            break
        if pivots == cap:
            raise SolverFailure(f"quantile-regression simplex found no optimal vertex in {cap} pivots")
        j = over.argmax()
        up = minus_dual[j] < -tau  # the leaving row's residual turns positive
        z = q @ (-inverse[:, j] if up else inverse[:, j])  # residuals fall by t * z
        rows = np.flatnonzero(a * z > tie_q @ size[:, j])  # falling to 0 beyond rounding
        slope = z[rows]
        pull = np.abs(slope)
        residual = (y - q @ (inverse @ y_basis))[rows]
        tie = (tie_y + tie_q @ (size @ np.abs(y_basis)))[rows]
        steps = np.where(residual * slope > tie * pull, residual / slope, 0.0)
        order = np.lexsort(((w - q @ (inverse @ w_basis))[rows] / slope, steps))
        m = np.cumsum(pull[order]).searchsorted(excess[j])  # first row past which the slope is >= 0
        enter, passed = rows[order[m]], rows[order[:m]]
        a[passed] = (2.0 * tau - 1.0) - a[passed]  # tau <-> tau - 1
        a[basis[j]], a[enter] = (tau if up else tau - 1.0), 0.0
        basis[j], y_basis[j], w_basis[j] = enter, y[enter], w[enter]
        u = q[enter] @ inverse
        column = inverse[:, j] / u[j]
        inverse -= np.multiply.outer(column, u)
        inverse[:, j] = column
    rows = np.sort(basis)
    params[keep] = np.linalg.solve(D[rows], y[rows])
    return params, pivots, keep


def fit_quantile_regression(X, y, tau):
    """Minimize the mean check loss of ``y - X @ coef - intercept``.

    Parameters
    ----------
    X : array, shape (n, p)
        Predictor columns. A zero-column array fits an intercept-only model.
    y : array, shape (n,)
        Response vector.
    tau : float
        Quantile level, strictly between 0 and 1.

    Returns
    -------
    QrFit

    Notes
    -----
    The fit solves the dual of the check-loss program (Koenker & Bassett
    1978), maximize ``y @ a`` subject to ``D.T @ a = 0`` and
    ``tau - 1 <= a <= tau`` (``D`` stacks the intercept column and the
    predictors), by an exact simplex after Barrodale & Roberts (1974) on an
    orthonormal basis of ``D``'s columns, from a vertex that eight rounds of
    iteratively reweighted least squares (Schlossmacher 1973) put near the
    optimum. It stops on an LP certificate: the duals of the k rows its vertex
    interpolates lie in the box. Residuals within 8 machine epsilons of the
    data scale count as zero and ties are broken lexicographically, so tied
    data cannot cycle. The coefficients are one k-by-k solve on the
    interpolated rows in ascending order. ``QrFit.iterations`` counts the
    simplex's pivots, not the reweighting rounds; past ``50 * (n + k)``
    :class:`SolverFailure` is raised.

    The intercept column comes first, so it is never dropped. A predictor
    column that depends on earlier ones by the QR factorization's scale-free
    tolerance (a constant or nearly constant one, with an intercept) gets
    coefficient 0 and is named in :class:`DegenerateDesignWarning`.
    """
    tau = validate_tau(tau)
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("y is empty")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite entries")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got {X.ndim}-d")
    if X.shape[0] != y.size:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, y has {y.size}")
    if X.size and not np.isfinite(X).all():
        raise ValueError("X contains non-finite entries")
    n, p = X.shape
    if n < p + 1:
        raise ValueError(f"need at least {p + 1} observations for {p + 1} parameters, got {n}")

    params, iterations, kept = _solve_lp(np.hstack([np.ones((n, 1)), X]), y, tau)
    dropped = np.flatnonzero(~kept[1:]).tolist()
    if dropped:
        message = f"predictor column(s) {dropped} depend on earlier columns and were dropped; their coefficients are 0"
        warn(message, DegenerateDesignWarning)
    coefficients = params[1:]
    intercept = float(params[0])

    residuals = y - X @ coefficients - intercept
    objective = float(np.mean(check_loss(residuals, tau)))
    return QrFit(coefficients=coefficients, intercept=intercept, objective=objective, iterations=iterations)


def _right_rate(x, y, b, tau, k):
    # Right derivative of each row's profiled check loss at slope b, and the
    # point the profiled intercept follows just right of b. Just right of b
    # the residuals keep their order, except that residuals equal at b (up to
    # a few units of rounding) order by decreasing x.
    e = y - b[:, None] * x
    rows = np.arange(x.shape[0])
    kth = np.partition(e, k - 1, axis=1)[:, k - 1 : k]
    slack = _TIE_EPS * (np.abs(y).max(axis=1) + np.abs(b) * np.abs(x).max(axis=1))[:, None]
    below = e < kth - slack
    tied = ~below & (e <= kth + slack)
    p = np.argmax(tied, axis=1)
    many = np.flatnonzero(tied.sum(axis=1) > 1)
    if many.size:
        order = np.argsort(np.where(tied[many], -x[many], np.inf), axis=1, kind="stable")
        p[many] = order[np.arange(many.size), k - 1 - below[many].sum(axis=1)]
    xp = x[rows, p][:, None]
    below |= tied & (x > xp)
    return ((x - xp) * (below - tau)).sum(axis=1), p


def _slope_range(x, y):
    # Smallest and largest pairwise slope of each row (NaN for a constant x).
    # Any pairwise slope is a weighted mean of slopes between neighbouring
    # distinct x values, so both extremes are found there: the smallest pairs
    # the largest y at one x with the smallest y at the next, and the largest
    # the other way round.
    ends = []
    for key in (y, -y):
        order = np.lexsort((key, x))
        xs = np.take_along_axis(x, order, axis=1)
        ys = np.take_along_axis(y, order, axis=1)
        dx = np.diff(xs, axis=1)
        ends.append(np.divide(np.diff(ys, axis=1), dx, out=np.full_like(dx, np.nan), where=dx > 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        return np.nanmin(ends[0], axis=1), np.nanmax(ends[1], axis=1)


def _steep(x):
    # Right derivatives above this count as flat (see the tie rule).
    return -_FLAT_RTOL * np.abs(x - x.mean(axis=1, keepdims=True)).sum(axis=1)


def _listed_slopes(x, y, tau, k, i, j):
    # x, y: one column pair per row; i, j: the row-index pairs i < j. Every
    # pairwise slope is listed and sorted, then bisected for the first one
    # whose right derivative is not steep.
    rows = np.arange(x.shape[0])
    steep = _steep(x)
    dx = x[:, i] - x[:, j]
    points = np.sort(np.divide(y[:, i] - y[:, j], dx, out=np.full_like(dx, np.inf), where=dx != 0.0), axis=1)
    count = np.isfinite(points).sum(axis=1)
    points[count == 0, 0] = 0.0
    lo = np.zeros(rows.size, dtype=np.intp)
    hi = np.maximum(count - 1, 0)
    while (lo < hi).any():
        open_ = lo < hi
        mid = (lo + hi) // 2
        falls = _right_rate(x, y, points[rows, mid], tau, k)[0] < steep
        lo = np.where(open_ & falls, mid + 1, lo)
        hi = np.where(open_ & ~falls, mid, hi)
    return points[rows, lo]


def _searched_slopes(x, y, tau, k):
    # x, y: one column pair per row; nothing larger is built.
    rows = np.arange(x.shape[0])
    low, high = _slope_range(x, y)
    constant = np.isnan(low)
    low[constant] = high[constant] = 0.0
    steep = _steep(x)
    rate, tracked = _right_rate(x, y, low, tau, k)
    past_low = ~constant & (rate < steep)

    # Bisection on the right derivative, which never decreases: the answer
    # stays in (left, right], and the loss falls steeply just right of left.
    left, right = low.copy(), high.copy()
    width = _BRACKET_RTOL * np.maximum(np.abs(low), np.abs(high))
    searching = past_low & (right - left > width)
    while searching.any():
        mid = 0.5 * (left + right)
        rate, p = _right_rate(x, y, mid, tau, k)
        falls = searching & (rate < steep)
        left = np.where(falls, mid, left)
        tracked = np.where(falls, p, tracked)
        right = np.where(searching & ~falls, mid, right)
        searching = past_low & (right - left > width)

    # Walk right over breakpoints: from left the loss is linear up to the
    # first pairwise slope through the tracked point, where the right
    # derivative says whether to stop.
    slopes = np.where(constant, 0.0, low)
    walking = past_low
    while walking.any():
        dx = x - x[rows, tracked][:, None]
        dy = y - y[rows, tracked][:, None]
        through = np.divide(dy, dx, out=np.full_like(dx, -np.inf), where=dx != 0.0)
        step = np.min(np.where(through > left[:, None], through, np.inf), axis=1)
        step = np.where(np.isfinite(step), step, high)
        rate, p = _right_rate(x, y, step, tau, k)
        stop = walking & ((rate >= steep) | (step >= high))
        slopes = np.where(stop, step, slopes)
        walking &= ~stop
        left = np.where(walking, step, left)
        tracked = np.where(walking, p, tracked)
    return slopes


def quantile_slopes(X, Y, tau, x_columns, y_columns):
    """Exact tau-quantile slope, with a free intercept, of ``Y[:, y_columns[i]]``
    on ``X[:, x_columns[i]]`` for every ``i``.

    ``X`` and ``Y`` are finite arrays with one row count ``n >= 2``; callers
    check that. Returns an array of ``len(x_columns)`` slopes.

    With the intercept profiled out at the lower empirical quantile of the
    residuals (the :func:`empirical_quantile` rule), the check loss is convex
    and piecewise linear in the slope, with breakpoints among the pairwise
    slopes ``(y_i - y_j) / (x_i - x_j)`` over pairs with ``x_i != x_j``
    (Koenker & Bassett 1978). Both searches below bisect on the loss's
    right derivative, which costs one partition and one O(n) sum per step
    and never decreases; all pairs of a block move in lockstep, and no
    linear program is solved.

    * While one pair's ``n * (n - 1) / 2`` pairwise slopes fit in
      ``SLOPE_BLOCK_ENTRIES``, they are listed and sorted, and the bisection
      runs over that list, in blocks of as many pairs as fit.
    * Past that, nothing of size ``n**2`` is built: the bisection runs on
      slope values between the smallest and the largest pairwise slope, then
      walks right over the pairwise slopes through the point the profiled
      intercept follows. Memory is O(n) per pair, in blocks of
      ``SLOPE_BLOCK_ENTRIES // n`` pairs (at least one).

    Both give the same slope. Residuals within a few units of rounding of
    each other count as equal.

    Tie rule: a loss that falls by less than ``1e-12 * sum(|x - mean(x)|)``
    per unit of slope counts as flat. The returned slope is the smallest
    breakpoint past which the loss no longer falls by more than that, so a
    flat optimum (possible when ``n * tau`` is an integer or the data are
    tied) yields its left end. A constant regressor has slope 0.
    """
    n = X.shape[0]
    k = _quantile_rank(n, tau)
    x_columns = np.asarray(x_columns, dtype=np.intp)
    y_columns = np.asarray(y_columns, dtype=np.intp)
    listed = n * (n - 1) // 2
    if listed <= SLOPE_BLOCK_ENTRIES:
        i, j = np.triu_indices(n, 1)
        block = SLOPE_BLOCK_ENTRIES // listed

        def search(x, y):
            return _listed_slopes(x, y, tau, k, i, j)

    else:
        block = max(1, SLOPE_BLOCK_ENTRIES // n)

        def search(x, y):
            return _searched_slopes(x, y, tau, k)

    slopes = np.empty(x_columns.size)
    for start in range(0, x_columns.size, block):
        part = slice(start, start + block)
        slopes[part] = search(X[:, x_columns[part]].T.copy(), Y[:, y_columns[part]].T.copy())
    return slopes

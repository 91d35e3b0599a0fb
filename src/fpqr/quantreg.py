"""Linear quantile regression for a single response, solved as the dual of
the check-loss linear program by an exact bound-flipping simplex; exact
one-regressor quantile slopes, listed and batched up to 362 rows and from
that simplex beyond; and the scalar pieces both are built from (check loss,
its subgradient weight, empirical quantiles)."""

__all__ = ["QrFit", "check_loss", "empirical_quantile", "fit_quantile_regression", "psi", "validate_tau"]

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateDesignWarning,
    DimensionMismatch,
    SolverFailure,
    warn,
)
from .linalg import as_matrix

# Values per temporary array in :func:`quantile_slopes`. A listing block holds
# the pairwise slopes of as many column pairs as fit, in three such arrays
# (x differences, y differences, sorted slopes), allocated once per call and
# reused by every block, beside the two index arrays of one pair's listing,
# in the narrowest unsigned type that holds n - 1. Each block is bisected only
# until every pair's bracket fits in a window of _WINDOW sorted slopes or fewer,
# so that the call's windows take at most a quarter of one such array; after the
# blocks, the windows are finished as many pairs at a time as a quarter of one
# such array holds rows.
SLOPE_BLOCK_ENTRIES = 2**16
_WINDOW = 128
# A change below this fraction of its scale counts as none: the loss's fall
# per unit of slope in the slope listing, of sum(|x - mean(x)|); a parameter's
# move along a flat edge of the simplex, of its rounding scale.
_FLAT_RTOL = 1e-12
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
    """Return ``tau`` as a float after checking it is a number strictly inside (0, 1); text is not a number."""
    if isinstance(tau, (str, bytes)):
        raise ValueError(f"tau must be a number, got {tau!r}")
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

    Always returns an element of ``v`` (read flat, finite and non-empty),
    which keeps the check-loss weights well defined at the quantile itself.
    """
    tau = validate_tau(tau)
    v = as_matrix(np.ravel(v), "v").ravel()
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


def _binary_exponents(M):
    # Per column of M, the e with the largest |entry| in [2**(e-1), 2**e) (0 for a zero column):
    # scaling by 2**-e is exact and brings every entry into (-1, 1).
    return np.frexp(np.abs(M).max(axis=0))[1]


def _column_norms(M):
    # Column 2-norms that cannot overflow or underflow: each column is scaled by a power of two near its
    # largest |entry| first, as LAPACK's norms scale. The scaling is exact, so in range the bits are np.linalg.norm's.
    e = _binary_exponents(M)
    return np.ldexp(np.linalg.norm(np.ldexp(M, -e), axis=0), e)


def _within_rounding(size, D):
    # QR's scale-free test: each size is within max(n, 2) machine epsilons of its column's norm in D (n rows).
    return size <= max(D.shape[0], 2) * np.finfo(float).eps * _column_norms(D)


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
    # The simplex runs on y scaled by the power of two that brings its largest
    # |entry| into [0.5, 1): exact, so no pivot changes, and no square of a
    # residual over- or underflows. The final solve takes y as given.
    given, y = y, np.ldexp(y, -_binary_exponents(y))
    # Columns dependent on earlier ones get coefficient 0; past R's first
    # vanishing diagonal the factors say nothing, so refactor without it.
    keep = np.ones(k, dtype=bool)
    while True:
        q, r = np.linalg.qr(D[:, keep])
        small = _within_rounding(np.abs(np.diagonal(r)), D[:, keep])
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
        walk = not (over > 0.0).any()
        if walk:
            # Optimal. A basis dual on its bound opens a flat edge; walk one whose
            # parameter move (intercept last) has its first entry beyond rounding
            # below 0, so the fit ends on the lexicographically smallest optimum.
            flat = np.flatnonzero(excess >= -dual_slack @ size)
            if not flat.size:
                break
            r_inverse = np.roll(np.linalg.inv(r), -1, axis=0)
            move = r_inverse @ (inverse[:, flat] * np.sign(minus_dual[flat] + (tau - 0.5)))
            noise = _FLAT_RTOL * np.outer(np.abs(r_inverse).sum(axis=1), size[:, flat].max(axis=0))
            lowers = move[(np.abs(move) > noise).argmax(axis=0), np.arange(flat.size)] < 0.0
            if not lowers.any():
                break
            j = flat[lowers.argmax()]
        else:
            j = over.argmax()
        if pivots == cap:
            raise SolverFailure(f"quantile-regression simplex found no optimal vertex in {cap} pivots")
        up = minus_dual[j] < 0.5 - tau  # the leaving row's residual turns positive
        z = q @ (-inverse[:, j] if up else inverse[:, j])  # residuals fall by t * z
        # Falling to 0 beyond rounding. On a flat edge, beyond each row's scale in
        # q: a row moved by rounding alone would enter and make the basis singular.
        floor = tie_q.sum(axis=1) * size[:, j].max() if walk else tie_q @ size[:, j]
        rows = np.flatnonzero(a * z > floor)
        slope = z[rows]
        pull = np.abs(slope)
        residual = (y - q @ (inverse @ y_basis))[rows]
        tie = (tie_y + tie_q @ (size @ np.abs(y_basis)))[rows]
        steps = np.where(residual * slope > tie * pull, residual / slope, 0.0)
        order = np.lexsort(((w - q @ (inverse @ w_basis))[rows] / slope, steps))
        # First row past which the slope is >= 0; a flat edge stops at its first.
        m = 0 if walk else np.cumsum(pull[order]).searchsorted(excess[j])
        enter, passed = rows[order[m]], rows[order[:m]]
        a[passed] = (2.0 * tau - 1.0) - a[passed]  # tau <-> tau - 1
        a[basis[j]], a[enter] = (tau if up else tau - 1.0), 0.0
        basis[j], y_basis[j], w_basis[j] = enter, y[enter], w[enter]
        u = q[enter] @ inverse
        column = inverse[:, j] / u[j]
        inverse -= np.multiply.outer(column, u)
        inverse[:, j] = column
    rows = np.sort(basis)
    params[keep] = np.linalg.solve(D[rows], given[rows])
    if not np.isfinite(params).all():
        raise SolverFailure("the quantile-regression optimum does not fit in a double")
    return params, pivots, keep


def fit_quantile_regression(X, y, tau):
    """Minimize the mean check loss of ``y - X @ coef - intercept``.

    Parameters
    ----------
    X : array, shape (n, p) or (n,)
        Predictor columns. A zero-column array fits an intercept-only model.
    y : array, shape (n,)
        Response vector, finite and non-empty; any array of n entries is read flat.
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
    data cannot cycle. Where the optimum is not unique (Koenker 2005), the
    simplex walks flat edges of the optimal face while they lower the
    coefficients in order, then the intercept: the fit is the
    lexicographically smallest minimiser, whatever the row order. The
    coefficients are one k-by-k solve on the interpolated rows in
    ascending order. ``QrFit.iterations`` counts the simplex's pivots, flat
    edges included, not the reweighting rounds. Past ``50 * (n + k)`` pivots,
    or on an optimum too large for a double, :class:`SolverFailure` is raised.

    The intercept column comes first, so it is never dropped. A predictor
    column that depends on earlier ones by the QR factorization's scale-free
    tolerance (a constant or nearly constant one, with an intercept) gets
    coefficient 0 and is named in :class:`DegenerateDesignWarning`.
    """
    tau = validate_tau(tau)
    y = as_matrix(np.ravel(y), "y").ravel()
    # X is checked here, not by as_matrix: zero columns are the intercept-only fit.
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"X must be 1-d or 2-d, got {X.ndim}-d")
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


def _listed_slopes(x, y, i, j, dx, dy, points):
    # x, y: one column pair per row; i, j: the row-index pairs i < j; dx, dy,
    # points: arrays of one row per pair and one column per (i, j), filled in
    # place with the x and y differences and the sorted slopes. Returns each
    # row's bracket for _bisect: the first and last finite slope. Equal x give
    # no breakpoint (inf, sorted last). An overflowing slope is a breakpoint
    # beyond the double range (-inf or inf), left out of the bracket: its two x
    # are within 2**-1022, so near 0 and far from the row of largest |x|, which
    # makes the loss rise beyond the finite breakpoints on either side. Every
    # index is in range, so mode="clip" gathers exactly, without the buffered
    # copy of out that the default mode="raise" makes.
    np.take(x, i, axis=1, out=dx, mode="clip")
    dx -= np.take(x, j, axis=1, out=points, mode="clip")
    np.take(y, i, axis=1, out=dy, mode="clip")
    dy -= np.take(y, j, axis=1, out=points, mode="clip")
    points.fill(np.inf)
    with np.errstate(over="ignore"):
        np.divide(dy, dx, out=points, where=dx != 0.0)
    points.sort(axis=1)
    return np.isfinite(points).argmax(axis=1), (points < np.inf).sum(axis=1) - 1


def _bisect(x, y, tau, k, points, lo, hi, width):
    # Bisects each row's sorted breakpoints points[r, lo[r] : hi[r] + 1] for
    # the first one whose right derivative is not steep (see the tie rule),
    # until every bracket is at most width wide, and returns the new lo and hi.
    # Just right of a slope b the residuals keep their order, except that
    # residuals tied at b (within a few units of rounding of the row's largest
    # |y| and |x|) order by decreasing x; xp is the x of the k-th residual in
    # that order. A row's steps depend on its own data and bracket only, and
    # shifting a bracket shifts its midpoints, so a bracket narrowed in one
    # call and finished in another, on a window cut from the row's sorted
    # slopes, meets the same breakpoints as one call to the end.
    rows = np.arange(x.shape[0])
    steep = -_FLAT_RTOL * np.abs(x - x.mean(axis=1, keepdims=True)).sum(axis=1)
    y_size, x_size = np.abs(y).max(axis=1), np.abs(x).max(axis=1)
    while (hi - lo > width).any():
        open_ = hi - lo > width
        mid = (lo + hi) // 2
        b = points[rows, mid]
        e = y - b[:, None] * x
        kth = np.partition(e, k - 1, axis=1)[:, k - 1 : k]
        slack = _TIE_EPS * (y_size + np.abs(b) * x_size)[:, None]
        below = e < kth - slack
        tied = ~below & (e <= kth + slack)
        xp = -np.sort(np.where(tied, -x, np.inf), axis=1)[rows, k - 1 - below.sum(axis=1)][:, None]
        below |= tied & (x > xp)
        falls = ((x - xp) * (below - tau)).sum(axis=1) < steep
        lo = np.where(open_ & falls, mid + 1, lo)
        hi = np.where(open_ & ~falls, mid, hi)
    return lo, hi


def _narrowed_windows(X, Y, tau, k, x_columns, y_columns):
    # Lists and sorts each block's pairwise slopes and bisects them until each
    # pair's bracket fits in a window of width slopes; returns every pair's
    # window and its bracket within it. The width is a power of two (or the
    # whole listing), so the finish takes no more lockstep steps than one
    # bisection to the end would. The block arrays are freed on return.
    n, pairs = X.shape[0], x_columns.size
    listed = n * (n - 1) // 2
    i, j = (a.astype(np.min_scalar_type(n - 1)) for a in np.triu_indices(n, 1))
    block = SLOPE_BLOCK_ENTRIES // listed
    room = min(_WINDOW, SLOPE_BLOCK_ENTRIES // (4 * max(pairs, 1)))
    width = min(1 << max(room.bit_length() - 1, 0), listed)
    windows = np.empty((pairs, width))
    lo, hi = np.empty((2, pairs), dtype=np.intp)
    arrays = np.empty((3, min(block, pairs), listed))
    for start in range(0, pairs, block):
        part = slice(start, start + block)
        # Indexing X.T gathers only the block's columns; np.take would first copy all of X.
        x, y = X.T[x_columns[part]], Y.T[y_columns[part]]
        dx, dy, points = arrays[:, : x.shape[0]]
        bracket = _bisect(x, y, tau, k, points, *_listed_slopes(x, y, i, j, dx, dy, points), width - 1)
        first = np.minimum(bracket[0], listed - width)  # a window runs past no end of the listing
        windows[part] = np.take_along_axis(points, first[:, None] + np.arange(width), axis=1)
        lo[part], hi[part] = bracket - first
    return windows, lo, hi


def quantile_slopes(X, Y, tau, x_columns, y_columns):
    """Exact tau-quantile slope, with a free intercept, of ``Y[:, y_columns[i]]``
    on ``X[:, x_columns[i]]`` for every ``i``.

    ``X`` and ``Y`` are finite with one row count ``n >= 2``, every column
    is in binary units (scaled by the power of two that brings its largest
    |entry| into [0.5, 1), so that no intermediate overflows), and the QR
    rule of :func:`fit_quantile_regression` keeps every regressor; callers
    check and scale. Returns ``len(x_columns)`` slopes in those units, each
    the smallest minimiser, zero as +0.0.

    While one pair's ``n * (n - 1) / 2`` pairwise slopes fit in
    ``SLOPE_BLOCK_ENTRIES`` (up to 362 rows), they are listed, in blocks of
    as many pairs as fit; the block's three arrays (x differences, y
    differences, sorted slopes) are allocated once per call and every block
    reuses them. With the intercept profiled out at the lower
    empirical quantile of the residuals (the :func:`empirical_quantile`
    rule), the check loss is convex and piecewise linear in the slope, with
    breakpoints among the pairwise slopes ``(y_i - y_j) / (x_i - x_j)`` over
    pairs with ``x_i != x_j`` (Koenker & Bassett 1978). The sorted list is
    bisected on the loss's right derivative, which never decreases and costs
    one partition and one O(n) sum per step, with the pairs moving in
    lockstep. Each block is bisected only until every pair's bracket fits in
    a window of at most 128 sorted slopes (fewer when the call has so many
    pairs that their windows would take more than a quarter of one block
    array), and the window is kept. After the blocks, one lockstep bisection
    finishes the windows, as many pairs at a time as a quarter of one block
    array holds rows; a pair meets the same breakpoints as in one bisection
    to the end, so the slopes do not depend on the blocks or the windows.
    Residuals within a few units of rounding of each other count as equal.

    Tie rule: a loss that falls by less than ``1e-12 * sum(|x - mean(x)|)``
    per unit of slope counts as flat. The listed slope is the smallest
    breakpoint past which the loss no longer falls by more than that, so a
    flat optimum (possible when ``n * tau`` is an integer or the data are
    tied) yields its left end.

    Past that, each pair is one solve of the simplex behind
    :func:`fit_quantile_regression` on ``[1, x]``, in O(n) memory; it ends on
    the smallest optimal slope too.
    """
    n = X.shape[0]
    x_columns = np.asarray(x_columns, dtype=np.intp)
    y_columns = np.asarray(y_columns, dtype=np.intp)
    listed = n * (n - 1) // 2
    if listed > SLOPE_BLOCK_ENTRIES:
        ones = np.ones(n)
        slopes = np.array([
            _solve_lp(np.column_stack([ones, X[:, a]]), Y[:, b], tau)[0][1] for a, b in zip(x_columns, y_columns)
        ])
    else:
        k = _quantile_rank(n, tau)
        windows, lo, hi = _narrowed_windows(X, Y, tau, k, x_columns, y_columns)
        chunk = max(SLOPE_BLOCK_ENTRIES // (4 * n), 1)
        for start in range(0, x_columns.size, chunk):
            part = slice(start, start + chunk)
            x, y = X.T[x_columns[part]], Y.T[y_columns[part]]
            lo[part] = _bisect(x, y, tau, k, windows[part], lo[part], hi[part], 0)[0]
        slopes = np.take_along_axis(windows, lo[:, None], axis=1)[:, 0]
    return slopes + 0.0  # a listed dy = 0 over dx < 0 is -0.0; the simplex gives +0.0

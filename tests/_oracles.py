"""Independent reference implementations used as test oracles.

Nothing here shares code with the package internals: the leading direction
comes from a full dense eigendecomposition, least squares from the normal
equations, the li metric from one column and one row at a time, quantile
regression from exhaustive vertex enumeration (its optimum, or the
lexicographically smallest of its optimal vertices) or from its primal
linear program, one-regressor quantile slopes from a list of every
pairwise slope, the mean-based fit from a straight-line
transcription of the classical recursion, the quantile fit from these
pieces composed in a straight line, and CSV files from ``csv`` and
one ``float`` call per cell.
"""

import csv
import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def orient(w):
    """Flip so the largest-magnitude entry is positive (first index on ties)."""
    idx = int(np.argmax(np.abs(w)))
    return -w if w[idx] < 0 else w


def dense_leading_eigenpair(A):
    evals, evecs = np.linalg.eigh(A)
    return evecs[:, -1], float(evals[-1])


def normal_equations(T, Y):
    T = np.asarray(T, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.linalg.solve(T.T @ T, T.T @ Y)


def check_loss_mean(residuals, tau):
    r = np.asarray(residuals, dtype=float).ravel()
    return float(np.mean(r * (tau - (r < 0))))


def qr_vertex_search(X, y, tau, with_intercept=True):
    """Exhaustive basic-solution search for the check-loss minimum.

    Every vertex of the quantile-regression program interpolates as many
    observations as there are parameters, so for small problems the optimum
    can be found by trying all row subsets of that size. Returns
    ``(objective, params)`` where params stacks coefficients then intercept.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    D = np.hstack([X, np.ones((n, 1))]) if with_intercept else X
    k = D.shape[1]
    best_obj = np.inf
    best_params = None
    for rows in itertools.combinations(range(n), k):
        idx = list(rows)
        try:
            params = np.linalg.solve(D[idx], y[idx])
        except np.linalg.LinAlgError:
            continue
        obj = check_loss_mean(y - D @ params, tau)
        if obj < best_obj:
            best_obj = obj
            best_params = params
    return best_obj, best_params


def lexicographic_quantile_optimum(X, y, tau, tol=1e-9):
    """The smallest check-loss minimiser, ordered by coefficients then intercept.

    The set of minimisers is a bounded face of the program's polyhedron, so
    its lexicographically smallest point is one of its vertices. Every vertex
    interpolates k rows; all are enumerated, those within ``tol`` of the
    smallest loss are kept, and the coordinates are compared in turn, values
    within ``tol`` counting as equal. Returns coefficients then intercept.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    D = np.hstack([X, np.ones((y.size, 1))])
    vertices, losses = [], []
    for rows in itertools.combinations(range(y.size), D.shape[1]):
        idx = list(rows)
        if abs(np.linalg.det(D[idx])) < 1e-9:
            continue
        params = np.linalg.solve(D[idx], y[idx])
        vertices.append(params)
        losses.append(check_loss_mean(y - D @ params, tau))
    losses = np.array(losses)
    optimal = np.array(vertices)[losses <= losses.min() + tol]
    for c in range(D.shape[1]):
        optimal = optimal[optimal[:, c] <= optimal[:, c].min() + tol]
    return optimal[0]


def primal_quantile_lp(D, y, tau):
    """Parameters minimizing the check loss of ``y - D @ params``, from the primal program.

    Splits the residual into positive and negative parts u and v, which makes
    the check loss linear: minimize tau*sum(u) + (1-tau)*sum(v) subject to
    D @ params + u - v = y with u, v >= 0 (Koenker & Bassett 1978). The
    program has k + 2n variables and n equality constraints.
    """
    D = np.asarray(D, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, k = D.shape
    c = np.concatenate([np.zeros(k), np.full(n, tau), np.full(n, 1.0 - tau)])
    eye = sparse.eye(n, format="csc")
    A = sparse.hstack([sparse.csc_matrix(D), eye, -eye], format="csc")
    bounds = [(None, None)] * k + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    assert res.success, res.message
    return res.x[:k]


def li_cross_product(X, Y, tau):
    """The ``li`` metric between every column of X and of Y, one column at a time.

    Each Y column's weight is psi_tau(z - q) = tau - 1[z < q] at its lower
    empirical quantile q, the ceil(n*tau)-th order statistic, set to 0 when
    no value lies below q (the weight is then tau everywhere). A constant X
    column centers to exact zeros. The last step is the package's own
    product, so the result can be compared bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    rank = max(math.ceil(n * tau - 1e-12), 1)
    weights = np.zeros_like(Y)
    for k in range(Y.shape[1]):
        z = Y[:, k]
        q = sorted(z)[rank - 1]
        if any(v < q for v in z):
            weights[:, k] = [tau - 1.0 if v < q else tau for v in z]
    constant = (X == X[0]).all(axis=0)
    centered = np.where(constant, 0.0, X - X.mean(axis=0))
    return (centered.T @ weights) / n


def profiled_slope_objective(x, y, slope, tau):
    """Mean check loss of the line with this slope and its best intercept.

    The best intercept makes at least one residual zero, so it is found by
    trying every residual in turn.
    """
    r = np.asarray(y, dtype=float) - slope * np.asarray(x, dtype=float)
    return min(check_loss_mean(r - a, tau) for a in r)


def listed_quantile_slopes(X, Y, tau, x_columns, y_columns):
    """One-regressor tau-quantile slopes by listing every pairwise slope.

    A naive transcription of the listed slope search, for any row count and
    one column pair at a time: fancy-index differences, a copying sort, and
    the tie scales recomputed at every bisection step. The constants are the
    package's tie rule, written out: residuals within ``8 * eps`` of the data
    scale are tied, and a loss falling by less than
    ``1e-12 * sum(|x - mean(x)|)`` per unit of slope is flat.
    """
    n = X.shape[0]
    k = min(max(int(np.ceil(n * tau - 1e-12)), 1), n)
    tie_eps = 8 * np.finfo(float).eps
    i, j = np.triu_indices(n, 1)

    def right_rate(x, y, b):
        e = y - b[:, None] * x
        rows = np.arange(x.shape[0])
        kth = np.partition(e, k - 1, axis=1)[:, k - 1 : k]
        slack = tie_eps * (np.abs(y).max(axis=1) + np.abs(b) * np.abs(x).max(axis=1))[:, None]
        below = e < kth - slack
        tied = ~below & (e <= kth + slack)
        p = np.argmax(tied, axis=1)
        many = np.flatnonzero(tied.sum(axis=1) > 1)
        if many.size:
            order = np.argsort(np.where(tied[many], -x[many], np.inf), axis=1, kind="stable")
            p[many] = order[np.arange(many.size), k - 1 - below[many].sum(axis=1)]
        xp = x[rows, p][:, None]
        below |= tied & (x > xp)
        return ((x - xp) * (below - tau)).sum(axis=1)

    slopes = []
    for a, c in zip(x_columns, y_columns):
        x, y = X[:, [a]].T.copy(), Y[:, [c]].T.copy()
        rows = np.arange(1)
        steep = -1e-12 * np.abs(x - x.mean(axis=1, keepdims=True)).sum(axis=1)
        dx = x[:, i] - x[:, j]
        points = np.sort(np.divide(y[:, i] - y[:, j], dx, out=np.full_like(dx, np.inf), where=dx != 0.0), axis=1)
        count = np.isfinite(points).sum(axis=1)
        points[count == 0, 0] = 0.0
        lo = np.zeros(1, dtype=np.intp)
        hi = np.maximum(count - 1, 0)
        while (lo < hi).any():
            open_ = lo < hi
            mid = (lo + hi) // 2
            falls = right_rate(x, y, points[rows, mid]) < steep
            lo = np.where(open_ & falls, mid + 1, lo)
            hi = np.where(open_ & ~falls, mid, hi)
        slopes.append(points[0, lo[0]])
    return np.array(slopes)


def local_minimum_certificate(X, y, tau, coefficients, intercept, eps=1e-6, slack=1e-9, with_intercept=True):
    """True when no single-coordinate step of size eps lowers the objective.

    Without an intercept the line stays through the origin, so only the
    coefficients are stepped.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float).ravel()
    coefficients = np.asarray(coefficients, dtype=float)
    base = check_loss_mean(y - X @ coefficients - intercept, tau)
    for j in range(coefficients.size):
        for step in (eps, -eps):
            moved = coefficients.copy()
            moved[j] += step
            if check_loss_mean(y - X @ moved - intercept, tau) < base - slack:
                return False
    for step in (eps, -eps) if with_intercept else ():
        if check_loss_mean(y - X @ coefficients - (intercept + step), tau) < base - slack:
            return False
    return True


def reference_nipals(X, Y, n_components):
    """Straight-line mean-centered classical fit, kept deliberately naive."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xa = X - x_mean
    Ya = Y - y_mean
    Y0 = Ya.copy()
    ws, ps, qs, ts = [], [], [], []
    for _ in range(n_components):
        S = Xa.T @ Ya
        if np.linalg.norm(S) <= 1e-14:
            break
        w = orient(dense_leading_eigenpair(S @ S.T)[0])
        t = Xa @ w
        tt = float(t @ t)
        if tt <= 1e-14:
            break
        p = Xa.T @ t / tt
        q = Ya.T @ t / tt
        Xa = Xa - np.outer(t, p)
        Ya = Ya - np.outer(t, q)
        ws.append(w)
        ps.append(p)
        qs.append(q)
        ts.append(t)
    W = np.column_stack(ws)
    P = np.column_stack(ps)
    Q = np.column_stack(qs)
    T = np.column_stack(ts)
    gamma = normal_equations(T, Y0)
    coefficients = W @ np.linalg.inv(P.T @ W) @ gamma
    return {
        "W": W,
        "P": P,
        "Q": Q,
        "T": T,
        "gamma": gamma,
        "coefficients": coefficients,
        "x_mean": x_mean,
        "y_mean": y_mean,
    }


def reference_fpqr(X, Y, h, tau, metric):
    """Straight-line quantile fit composed from the oracles above.

    Each round takes the cross product from ``li_cross_product`` or, for
    ``dodge`` and ``choi``, from ``listed_quantile_slopes`` times the
    variances (``choi``: the signed geometric mean of both directions, 0 where
    their slopes disagree in sign), the direction from
    ``dense_leading_eigenpair``, and deflates both blocks by its score. It
    stops as the package does: on a cross product at most 1e-12 of the first
    round's Frobenius norm (at round 0 only an exact zero), or a score whose
    squared norm is at most ``(1e-12 ||X0||_F)**2``. The inner fit is
    ``primal_quantile_lp`` on ``[1, T]`` per centered response, and the
    coefficients are ``W (P^T W)^-1 gamma``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    Xa, Ya = X - x_mean, Y - y_mean
    Y0 = Ya.copy()
    n, m = X.shape
    l = Y.shape[1]
    min_tt = (1e-12 * np.linalg.norm(Xa)) ** 2
    pairs = [(j, k) for j in range(m) for k in range(l)]
    first = None  # the first round's norm
    ws, ps, ts = [], [], []
    for _ in range(h):
        if metric == "li":
            S = li_cross_product(Xa, Ya, tau)
        else:
            xs, ys = [j for j, _ in pairs], [k for _, k in pairs]
            b21 = listed_quantile_slopes(Xa, Ya, tau, xs, ys)
            dodge = Xa.var(axis=0)[xs] * b21
            if metric == "dodge":
                values = dodge
            else:
                b12 = listed_quantile_slopes(Ya, Xa, tau, ys, xs)
                values = np.where(b21 * b12 < 0, 0.0, np.sign(b21) * np.sqrt(np.abs(dodge * Ya.var(axis=0)[ys] * b12)))
            S = values.reshape(m, l)
        size = np.linalg.norm(S)
        first = size if first is None else first
        if size <= 1e-12 * first:
            break
        w = orient(dense_leading_eigenpair(S @ S.T)[0])
        t = Xa @ w
        tt = float(t @ t)
        if tt <= min_tt:
            break
        p = Xa.T @ t / tt
        Xa = Xa - np.outer(t, p)
        Ya = Ya - np.outer(t, Ya.T @ t / tt)
        ws.append(w)
        ps.append(p)
        ts.append(t)
    W, P, T = (np.column_stack(c) if c else np.zeros((rows, 0)) for c, rows in ((ws, m), (ps, m), (ts, n)))
    params = np.column_stack([primal_quantile_lp(np.column_stack([np.ones(n), T]), Y0[:, k], tau) for k in range(l)])
    gamma, intercepts = params[1:], params[0]
    coefficients = W @ np.linalg.solve(P.T @ W, gamma) if ws else np.zeros((m, l))
    return {"W": W, "T": T, "gamma": gamma, "intercepts": intercepts, "coefficients": coefficients,
            "x_mean": x_mean, "y_mean": y_mean}


def read_csv_by_cell(path):
    """A numeric CSV with a header, read one cell at a time.

    ``csv.reader`` splits the file and ``float`` reads each cell. Returns
    ``(header, matrix)``; raises ``ValueError`` worded as ``read_dataset``'s
    errors, naming the first faulty line and, for a cell, its column.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0]]
    if any(not name for name in header):
        raise ValueError(f"{path}: header contains an empty column name")
    seen = set()
    for name in header:
        if name in seen:
            raise ValueError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows after the header")
    width = len(header)
    data = np.empty((len(body), width))
    for i, row in enumerate(body):
        line = i + 2  # 1-based, counting the header
        if len(row) != width:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}, column {header[j]!r}: {cell.strip()!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {line}, column {header[j]!r}: non-finite value {cell.strip()!r}"
                )
            data[i, j] = value
    return header, data


def write_csv_by_cell(path, header, matrix):
    """A header and a float matrix through ``csv.writer``, each cell as ``repr`` gives it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in np.atleast_2d(matrix))

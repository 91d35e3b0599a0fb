"""Dependence metrics between data columns at a chosen quantile level.

Three quantile metrics are provided next to the classical covariance:

* ``li``: the check-loss weight of one variable at its own quantile,
  correlated against the centered other variable. Cheap and vectorizable.
* ``dodge``: variance of the first variable times the quantile-regression
  slope of the second on the first. Not symmetric.
* ``choi``: a symmetrized geometric mean of the two directional ``dodge``
  values (and the matching correlation).

All variance and covariance style quantities are normalized by ``n``. The
slopes behind ``dodge`` and ``choi`` come from
:func:`~fpqr.quantreg.quantile_slopes`.
"""

__all__ = ["QcovMetric", "qcor_choi", "qcov_choi", "qcov_dodge", "qcov_li", "qcov_matrix"]

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DiscordantSlopesWarning,
    SolverFailure,
    ZeroVarianceWarning,
    warn,
)
from .linalg import as_matrix, column_centers
from .quantreg import _binary_exponents, _column_norms, _quantile_rank, _within_rounding
from .quantreg import empirical_quantile, psi, quantile_slopes, validate_tau

METRIC_KINDS = ("classical", "li", "dodge", "choi")


@dataclass(frozen=True)
class QcovMetric:
    """A metric tag plus the quantile level it is evaluated at.

    ``classical`` carries no level; every other kind requires one.
    """

    kind: str
    tau: float = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; expected one of {METRIC_KINDS}")
        if self.kind != "classical":
            if self.tau is None:
                raise ValueError(f"metric {self.kind!r} requires a quantile level")
            object.__setattr__(self, "tau", validate_tau(self.tau))


def _pair(z1, z2):
    a = np.asarray(z1, dtype=float).ravel()
    b = np.asarray(z2, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionMismatch(f"z1 has length {a.size}, z2 has length {b.size}")
    if a.size < 2:
        raise ValueError("need at least 2 paired observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs contain non-finite entries")
    return a, b


def qcov_li(z1, z2, tau):
    """Mean of ``psi_tau(z2 - Q_tau(z2)) * (z1 - mean(z1))``: exactly 0 when
    ``z1`` is constant or no ``z2`` value lies below its quantile (psi == tau)."""
    z1, z2 = _pair(z1, z2)
    tau = validate_tau(tau)
    q = empirical_quantile(z2, tau)
    if q == z2.min() or (z1 == z1[0]).all():
        return 0.0
    return float(np.mean(psi(z2 - q, tau) * (z1 - z1.mean())))


def _slope_values(kind, X, Y, tau, correlation=False):
    # Dodge or choi values between every column of X and of Y, flattened row-major. A degenerate pair (a regressor
    # the QR rule drops; for choi also discordant slopes) gets 0; each category warns once, counting its entries.
    # Variances, slopes and their products stay in binary units (see quantile_slopes); each value returns to
    # real units in one exact ldexp, so nothing over- or underflows where the value itself fits in a double.
    m, l = X.shape[1], Y.shape[1]
    jx = np.repeat(np.arange(m), l)
    jy = np.tile(np.arange(l), m)
    ex, ey = _binary_exponents(X), _binary_exponents(Y)
    X, Y = np.ldexp(X, -ex), np.ldexp(Y, -ey)
    var_x, var_y = X.var(axis=0)[jx], Y.var(axis=0)[jy]
    dropped = lambda M: _within_rounding(_column_norms(M - M.mean(axis=0)), M)
    zero = dropped(X)[jx] | (kind == "choi") & dropped(Y)[jy]
    fit = ~zero
    b21 = np.zeros(m * l)
    b21[fit] = quantile_slopes(X, Y, tau, jx[fit], jy[fit])
    if kind == "dodge":
        discordant = np.zeros_like(zero)
        values = var_x * b21
    else:
        b12 = np.zeros_like(b21)
        b12[fit] = quantile_slopes(Y, X, tau, jy[fit], jx[fit])
        product = b21 * b12
        discordant = fit & (product < 0.0)
        root = product if correlation else (var_x * b21) * (var_y * b12)
        values = np.sign(b21) * np.sqrt(np.where(discordant, 0.0, root))
    with np.errstate(over="ignore"):
        values = np.ldexp(values, 0 if correlation else ex[jx] + ey[jy])
    if np.isinf(values).any():
        raise SolverFailure("a quantile dependence value does not fit in a double")
    reports = ((zero, "a slope regressor has zero variance", ZeroVarianceWarning),
               (discordant, "directional quantile slopes disagree in sign", DiscordantSlopesWarning))
    for mask, message, category in reports:
        if mask.any():
            first = ", ".join(f"({jx[i]}, {jy[i]})" for i in np.flatnonzero(mask)[:3])
            warn(f"{message} at {mask.sum()} of {m * l} entries, first {first}; values set to 0", category)
    values[zero | discordant] = 0.0
    return values


def qcov_dodge(z1, z2, tau):
    """Variance of ``z1`` times the quantile slope of ``z2`` regressed on ``z1``."""
    z1, z2 = _pair(z1, z2)
    return float(_slope_values("dodge", z1[:, None], z2[:, None], validate_tau(tau))[0])


def qcor_choi(z1, z2, tau):
    """Signed geometric mean of the two directional quantile slopes."""
    z1, z2 = _pair(z1, z2)
    return float(_slope_values("choi", z1[:, None], z2[:, None], validate_tau(tau), correlation=True)[0])


def qcov_choi(z1, z2, tau):
    """Covariance-scaled version of :func:`qcor_choi`."""
    z1, z2 = _pair(z1, z2)
    return float(_slope_values("choi", z1[:, None], z2[:, None], validate_tau(tau))[0])


def qcov_matrix(X, Y, metric):
    """Metric values between every column of ``X`` and every column of ``Y``.

    Parameters
    ----------
    X : array, shape (n, m)
    Y : array, shape (n, l)
    metric : QcovMetric

    Returns
    -------
    array, shape (m, l)

    Notes
    -----
    The ``li`` kind is computed in one pass of matrix algebra. ``dodge`` and
    ``choi`` take every column pair's smallest optimal quantile slope (both
    directions for ``choi``) from :func:`~fpqr.quantreg.quantile_slopes`.
    A regressor that the QR rule of
    :func:`~fpqr.quantreg.fit_quantile_regression` drops beside the
    intercept, ``||x - mean(x)|| <= max(n, 2) * eps * ||x||`` (exact
    constants included), makes its entry degenerate at any ``n``; ``choi``
    tests both columns. Degenerate entries are set to 0, and each category
    (zero variance, discordant ``choi`` slopes) warns once per call with its
    count and its first three ``(j, k)`` in row-major order.
    """
    if not isinstance(metric, QcovMetric):
        raise TypeError(f"metric must be a QcovMetric, got {type(metric).__name__}")
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    return _metric_matrix(X, Y, metric)


def _metric_matrix(X, Y, metric):
    # qcov_matrix's arithmetic, on blocks it would accept: finite 2-d float arrays with one row count n >= 2.
    n, m = X.shape
    l = Y.shape[1]
    if metric.kind == "classical":
        return ((X - column_centers(X)).T @ (Y - column_centers(Y))) / n

    tau = metric.tau
    if metric.kind == "li":
        rank = _quantile_rank(n, tau)
        below = Y < np.partition(Y, rank - 1, axis=0)[rank - 1]
        weights = np.where(below, tau - 1.0, tau)
        weights[:, ~below.any(axis=0)] = 0.0  # psi == tau: nothing lies below the quantile
        return ((X - column_centers(X)).T @ weights) / n

    return _slope_values(metric.kind, X, Y, tau).reshape(m, l)

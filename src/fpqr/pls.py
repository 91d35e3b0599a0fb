"""Latent-component regression on the NIPALS pattern.

One fitting core (:func:`component_path`) serves both flavors. It validates
and centers the data, runs the extraction loop, fits the inner coefficients
on the scores and maps them back to predictor space. Each extraction round
takes the leading left singular direction of a cross-product matrix between
the current (deflated) predictor and response blocks, forms a score, and
deflates both blocks by that score's rank-one contribution. The two flavors
differ only in the two functions they hand the core: the mean-based fit
(:func:`fit_pls`) uses the plain cross product and least squares; the
quantile fit swaps in a quantile dependence metric and quantile regression.
"""

import operator
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DimensionMismatch, IllConditionedWarning, RankDeficient
from .linalg import CenteringInfo, as_matrix, center_columns, leading_left_singular_vector, least_squares

_STOP_RTOL = 1e-12  # relative to the fit's own first round; see extract_components
_RCOND_WARN = 1e-12


@dataclass
class LatentDecomposition:
    """Weights, loadings and scores produced by the extraction loop.

    Attributes
    ----------
    weights : array, shape (m, h)
        Unit-norm direction per component (columns).
    x_loadings : array, shape (m, h)
    y_loadings : array, shape (l, h)
    scores : array, shape (n, h) or None
        Training scores; dropped when a model is reloaded from disk.
    """

    weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray
    scores: Optional[np.ndarray]

    @property
    def n_components(self):
        return self.weights.shape[1]


@dataclass
class FittedModel:
    """A fitted latent-component regression ready for prediction.

    ``coefficients`` maps centered predictors to centered responses;
    ``intercepts`` holds the quantile-regression intercepts (all zero for the
    mean-based fit, where the response centers play that role).
    """

    decomposition: LatentDecomposition
    gamma: np.ndarray
    intercepts: np.ndarray
    coefficients: np.ndarray
    x_centering: CenteringInfo
    y_centering: CenteringInfo
    metric: Optional[str]
    tau: Optional[float]
    requested_components: int

    @property
    def effective_components(self):
        return self.decomposition.n_components

    @property
    def n_features(self):
        return self.coefficients.shape[0]

    @property
    def n_responses(self):
        return self.coefficients.shape[1]

    def predict(self, X):
        """Responses for new predictor rows.

        Parameters
        ----------
        X : array, shape (n_new, m)

        Returns
        -------
        array, shape (n_new, l)
        """
        X = as_matrix(X, "X")
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} predictor columns, found {X.shape[1]}"
            )
        centered = X - self.x_centering.column_centers
        return centered @ self.coefficients + self.intercepts + self.y_centering.column_centers


def as_count(value, name):
    """``value`` as a Python int; a float or a bool is rejected rather than truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def component_cap(n, m):
    """The most components ``n`` rows of ``m`` predictors support."""
    return min(n - 1, m)


def resolve_components(n_components, n, m):
    """Validate a component count against the data size, defaulting to min(10, m, n-1)."""
    cap = component_cap(n, m)
    if cap < 1:
        raise ValueError("need at least 2 rows to extract a component")
    if n_components is None:
        return min(10, cap)
    h = as_count(n_components, "components")
    if not 1 <= h <= cap:
        raise ValueError(f"components must lie in [1, {cap}] for this data, got {h}")
    return h


def extract_components(X0, Y0, n_components, cross_product):
    """Run the deflation loop and stack its outputs.

    ``cross_product`` maps the current blocks ``(X_a, Y_a)`` to an (m, l)
    matrix ``S_a``. The loop stops early once ``||S_a||_F <= 1e-12 ||S_0||_F``
    (at a = 0, only an exactly zero ``S_0``) or a score has ``t @ t <= (1e-12 ||X0||_F)**2``.
    """
    Xa = X0.copy()
    Ya = Y0.copy()
    n, m = Xa.shape
    l = Ya.shape[1]
    min_tt = (_STOP_RTOL * np.linalg.norm(X0)) ** 2
    ws, ps, qs, ts = [], [], [], []
    for a in range(n_components):
        S = np.asarray(cross_product(Xa, Ya), dtype=float)
        if S.shape != (m, l):
            raise ValueError(f"cross product returned shape {S.shape}, expected {(m, l)}")
        size = np.linalg.norm(S)
        min_size = min_size if a else _STOP_RTOL * size
        if size <= min_size:
            break
        w, _ = leading_left_singular_vector(S)
        t = Xa @ w
        tt = float(t @ t)
        if tt <= min_tt:
            break
        p = Xa.T @ t / tt
        q = Ya.T @ t / tt
        Xa = Xa - np.outer(t, p)
        Ya = Ya - np.outer(t, q)
        ws.append(w)
        ps.append(p)
        qs.append(q)
        ts.append(t)
    if ws:
        return LatentDecomposition(
            np.column_stack(ws), np.column_stack(ps), np.column_stack(qs), np.column_stack(ts)
        )
    return LatentDecomposition(
        np.zeros((m, 0)), np.zeros((m, 0)), np.zeros((l, 0)), np.zeros((n, 0))
    )


def back_project(decomposition, gamma, n_features, n_responses):
    """Map inner coefficients on the scores back to predictor space.

    Solves ``(P.T @ W) R = gamma`` and returns ``W @ R``. A condition number
    above 1e12 is reported but not fatal.
    """
    if decomposition.n_components == 0:
        return np.zeros((n_features, n_responses))
    M = decomposition.x_loadings.T @ decomposition.weights
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1.0 / _RCOND_WARN:
        warnings.warn(
            "loading/weight system is ill conditioned; coefficients may be unstable",
            IllConditionedWarning,
            stacklevel=5,
        )
    try:
        R = np.linalg.solve(M, gamma)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"loading/weight system is singular: {exc}") from exc
    return decomposition.weights @ R


def _least_squares_inner(scores, Yc):
    """Inner coefficients by least squares on the scores, with zero intercepts."""
    l = Yc.shape[1]
    gamma = least_squares(scores, Yc) if scores.shape[1] else np.zeros((0, l))
    return gamma, np.zeros(l)


# What fit_pls hands the fitting core after ``center``: cross product, inner fit, metric, tau.
PLS_PARTS = (lambda Xa, Ya: Xa.T @ Ya, _least_squares_inner, None, None)


def component_path(X, Y, n_components, center, cross_product, inner, metric=None, tau=None):
    """Validate and center the data, extract ``n_components``, and return ``finish``.

    ``finish(h)`` is the fit at any ``h`` up to ``n_components`` bit for bit,
    early stop included: extraction reads the count only as its loop bound, and
    the first h components are copied to contiguous memory before use.
    ``inner(scores, Yc)`` returns ``gamma`` (h, l) and the intercepts (l,).
    """
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    n, m = X.shape
    l = Y.shape[1]
    extracted = resolve_components(n_components, n, m)
    Xc, x_info = center_columns(X, center)
    Yc, y_info = center_columns(Y, center)
    path = extract_components(Xc, Yc, extracted, cross_product)

    def finish(h):
        h = resolve_components(h, n, m)
        if h > extracted:
            raise ValueError(f"the path holds {extracted} components, got {h}")
        prefix = LatentDecomposition(*(np.ascontiguousarray(a[:, :h]) for a in vars(path).values()))
        gamma, intercepts = inner(prefix.scores, Yc)
        return FittedModel(
            decomposition=prefix,
            gamma=gamma,
            intercepts=intercepts,
            coefficients=back_project(prefix, gamma, m, l),
            x_centering=x_info,
            y_centering=y_info,
            metric=metric,
            tau=tau,
            requested_components=h,
        )

    return finish


def fit_pls(X, Y, n_components=None, center="mean"):
    """Mean-based latent-component regression.

    Parameters
    ----------
    X : array, shape (n, m)
    Y : array, shape (n, l)
    n_components : int, optional
        Defaults to ``min(10, m, n - 1)``.
    center : {"mean", "none"}

    Returns
    -------
    FittedModel
        With ``metric`` and ``tau`` unset; the inner coefficients solve an
        ordinary least-squares problem on the (orthogonal) scores.
    """
    return component_path(X, Y, n_components, center, *PLS_PARTS)(n_components)


def predict(model, X):
    """Convenience wrapper around :meth:`FittedModel.predict`."""
    return model.predict(X)

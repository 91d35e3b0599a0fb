"""Latent-component regression on the NIPALS pattern.

One fitting core (:func:`component_path`) serves both flavors. It validates
and centers the data, runs the extraction loop, fits the inner coefficients
on the scores and maps them back to predictor space. Each extraction round
takes the leading left singular direction of a cross-product matrix between
the current (deflated) predictor and response blocks, forms a score, and
deflates both blocks by that score's rank-one contribution. The two flavors
differ only in the two functions they hand the core: the mean-based fit
(:func:`fit_pls`) uses the plain cross product and least squares, which on
the orthogonal scores is the y-loadings; the quantile fit swaps in a quantile
dependence metric and quantile regression.
"""

__all__ = ["FittedModel", "LatentDecomposition", "fit_pls"]

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import DimensionMismatch, IllConditionedWarning, RankDeficient, SolverFailure, warn
from .linalg import as_blocks, as_matrix, center_columns, leading_left_singular_vector

_STOP_RTOL = 1e-12  # relative to the fit's own first round; see extract_components
_RCOND_WARN = 1e-12
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class LatentDecomposition:
    """Weights, loadings and scores produced by the extraction loop, and why it stopped.

    Attributes
    ----------
    weights : array, shape (m, h)
        Unit-norm direction per component (columns).
    x_loadings : array, shape (m, h)
    y_loadings : array, shape (l, h) or None
    scores : array, shape (n, h) or None
        Training y-loadings and scores; not saved, so None when reloaded from disk.
    stop_reason : str or None
        ``"requested"`` once every requested component is extracted, else
        ``"small-cross-product"`` or ``"small-score"`` for the test that ended
        the loop (see :func:`extract_components`); None when reloaded from disk.
    """

    weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: Optional[np.ndarray]
    scores: Optional[np.ndarray]
    stop_reason: Optional[str] = None

    @property
    def n_components(self):
        return self.weights.shape[1]


@dataclass(frozen=True)
class FittedModel:
    """A fitted latent-component regression ready for prediction.

    ``coefficients``, built from the decomposition and ``gamma`` by
    :func:`back_project` (the model is frozen, so they cannot go stale), maps
    centered predictors to centered responses; ``intercepts`` holds the
    quantile-regression intercepts (all zero for the mean-based fit, where the
    response centers play that role). ``x_centers`` and ``y_centers`` are the
    column offsets that the ``center`` mode removed (all zero for ``"none"``).
    """

    decomposition: LatentDecomposition
    gamma: np.ndarray
    intercepts: np.ndarray
    x_centers: np.ndarray
    y_centers: np.ndarray
    center: str
    metric: Optional[str]
    tau: Optional[float]
    requested_components: int
    coefficients: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", back_project(self.decomposition, self.gamma))

    @property
    def effective_components(self):
        return self.decomposition.n_components

    @property
    def stop_reason(self):
        """Why extraction stopped; see :class:`LatentDecomposition`."""
        return self.decomposition.stop_reason

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
        X : array, shape (n_new, m), or (n_new,) when m = 1
            Finite and non-empty (see :func:`~fpqr.linalg.as_matrix`).

        Returns
        -------
        array, shape (n_new, l)
        """
        X = as_matrix(X, "X")
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} predictor columns, found {X.shape[1]}"
            )
        centered = X - self.x_centers
        return centered @ self.coefficients + self.intercepts + self.y_centers


def as_count(value, name, least=None):
    """``value`` as a Python int of at least ``least``; a float or a bool is rejected rather than truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


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

    ``cross_product`` maps the current blocks ``(X_a, Y_a)`` to a finite (m, l)
    matrix ``S_a``; another shape, a NaN or an inf raises ``ValueError``. The
    loop stops early once ``||S_a||_F <= 1e-12 ||S_0||_F`` (at a = 0, only an
    exactly zero ``S_0``; stop reason ``"small-cross-product"``) or a score
    has ``t @ t <= (1e-12 ||X0||_F)**2`` (``"small-score"``).

    ``X0`` is deflated in place: the caller hands over a block it owns and
    does not read afterwards, so the predictors exist once. ``Y0`` is
    copied, because the inner fit reads the undeflated responses.
    """
    Xa = X0
    Ya = Y0.copy()
    n, m = Xa.shape
    l = Ya.shape[1]
    min_tt = (_STOP_RTOL * np.linalg.norm(X0)) ** 2
    W, P = np.empty((2, m, n_components))
    Q, T = np.empty((l, n_components)), np.empty((n, n_components))
    extracted, reason = 0, "requested"
    for a in range(n_components):
        S = np.asarray(cross_product(Xa, Ya), dtype=float)
        if S.shape != (m, l):
            raise ValueError(f"cross product returned shape {S.shape}, expected {(m, l)}")
        if not np.isfinite(S).all():
            raise ValueError(f"cross product of component {a + 1} contains non-finite entries")
        size = np.linalg.norm(S)
        min_size = min_size if a else _STOP_RTOL * size
        if size <= min_size:
            reason = "small-cross-product"
            break
        w = leading_left_singular_vector(S)
        t = Xa @ w
        tt = float(t @ t)
        if tt <= min_tt:
            reason = "small-score"
            break
        p = Xa.T @ t / tt
        q = Ya.T @ t / tt
        Xa -= np.outer(t, p)
        Ya -= np.outer(t, q)
        W[:, a], P[:, a], Q[:, a], T[:, a] = w, p, q, t
        extracted = a + 1
    return LatentDecomposition(*(M[:, :extracted] for M in (W, P, Q, T)), reason)


def back_project(decomposition, gamma):
    """Map inner coefficients on the scores back to predictor space.

    Solves ``(P.T @ W) R = gamma`` and returns ``W @ R``; with no components
    that is ``W @ gamma``, the zero matrix. A condition number above 1e12 is
    reported but not fatal.
    """
    if decomposition.n_components == 0:
        return decomposition.weights @ gamma
    M = decomposition.x_loadings.T @ decomposition.weights
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1.0 / _RCOND_WARN:
        warn("loading/weight system is ill conditioned; coefficients may be unstable", IllConditionedWarning)
    try:
        R = np.linalg.solve(M, gamma)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"loading/weight system is singular: {exc}") from exc
    return decomposition.weights @ R


def _loadings_inner(decomposition, Yc):
    """Least squares on the mutually orthogonal scores: the y-loadings, with zero intercepts."""
    return np.ascontiguousarray(decomposition.y_loadings.T), np.zeros(Yc.shape[1])


# What fit_pls hands the fitting core after ``center``: cross product, inner fit, metric, tau.
PLS_PARTS = (lambda Xa, Ya: Xa.T @ Ya, _loadings_inner, None, None)


def component_path(X, Y, n_components, center, cross_product, inner, metric=None, tau=None):
    """Validate and center the data, extract ``n_components``, and return ``finish``.

    ``finish(h)`` is the fit at any ``h`` up to ``n_components`` bit for bit,
    early stop included: extraction reads the count only as its loop bound, and
    the first h components are copied to contiguous memory before use.
    ``inner(decomposition, Yc)`` takes the h-component prefix and returns
    ``gamma`` (h, l) and the intercepts (l,).

    The fit runs in binary units: X and Y are each scaled exactly by the power
    of two that brings its largest |entry| into [0.5, 1). ``finish`` scales each
    result back with ``np.ldexp`` and raises :class:`SolverFailure` where one
    overflows, or where nonzero ``gamma`` or coefficients lie wholly below 2**-1022.
    """
    X, Y = as_blocks(X, Y)
    n, m = X.shape
    extracted = resolve_components(n_components, n, m)
    # M * 2**-e is exact and lies in (-1, 1) for the e with M's largest |entry| in [2**(e-1), 2**e).
    ex, ey = (int(np.frexp(np.abs(M).max())[1]) for M in (X, Y))
    Xc, x_centers = center_columns(np.ldexp(X, -ex), center)
    Yc, y_centers = center_columns(np.ldexp(Y, -ey), center)
    x_centers, y_centers = np.ldexp(x_centers, ex), np.ldexp(y_centers, ey)
    path = extract_components(Xc, Yc, extracted, cross_product)

    def finish(h):
        h = resolve_components(h, n, m)
        if h > extracted:
            raise ValueError(f"the path holds {extracted} components, got {h}")
        arrays = (path.weights, path.x_loadings, path.y_loadings, path.scores)
        reason = path.stop_reason if path.n_components < h else "requested"
        prefix = LatentDecomposition(*(np.ascontiguousarray(a[:, :h]) for a in arrays), reason)
        gamma, intercepts = inner(prefix, Yc)
        least = _TINY if gamma.any() else 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an inf result fails the range check below
            q, t = np.ldexp(prefix.y_loadings, ey - ex), np.ldexp(prefix.scores, ex)
            real = LatentDecomposition(prefix.weights, prefix.x_loadings, q, t, reason)
            model = FittedModel(real, np.ldexp(gamma, ey - ex), np.ldexp(intercepts, ey), x_centers, y_centers,
                                center, metric, tau, h)
        results = zip((q, t, model.intercepts, model.gamma, model.coefficients), (0.0, 0.0, 0.0, least, least))
        if not all(low <= np.abs(a).max(initial=0.0) <= _HUGE for a, low in results):
            raise SolverFailure("the fit's coefficients, or another of its results, do not fit in a double")
        return model

    return finish


def fit_pls(X, Y, n_components=None, center="mean"):
    """Mean-based latent-component regression.

    Parameters
    ----------
    X : array, shape (n, m) or (n,)
    Y : array, shape (n, l) or (n,)
        Finite and non-empty, with one row count; a 1-d array is one column (see :func:`~fpqr.linalg.as_matrix`).
    n_components : int, optional
        Defaults to ``min(10, m, n - 1)``.
    center : {"mean", "none"}

    Returns
    -------
    FittedModel
        With ``metric`` and ``tau`` unset; the inner coefficients are the
        y-loadings, which solve least squares on the (orthogonal) scores.
    """
    return component_path(X, Y, n_components, center, *PLS_PARTS)(n_components)

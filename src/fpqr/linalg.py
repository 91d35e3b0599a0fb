"""Dense-matrix building blocks: validation, column centering and the leading
left singular direction of a cross-product matrix."""

__all__ = ["as_matrix", "center_columns", "leading_left_singular_vector"]

import numpy as np

from .exceptions import AllZeroCrossProduct

CENTERING_MODES = ("mean", "none")


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite, non-empty 2-d float64 array in C order, so one layout reaches the fit."""
    M = np.asarray(a, dtype=np.float64, order="C")
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got {M.ndim}-d")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def column_centers(M):
    """Column means, except that a constant column's center is its value, so it centers to exact zeros."""
    constant = M[-1] == M[0]  # rules out most columns before the full comparison
    if constant.any():
        constant[constant] = (M[:, constant] == M[0, constant]).all(axis=0)
    return np.where(constant, M[0], M.mean(axis=0))


def validate_center(mode):
    """Return ``mode`` after checking it is one of ``CENTERING_MODES``."""
    if mode not in CENTERING_MODES:
        raise ValueError(f"unknown centering mode {mode!r}; expected one of {CENTERING_MODES}")
    return mode


def center_columns(M, mode="mean"):
    """Shift each column of ``M`` by its center.

    Returns ``(centered, centers)``, the centers from :func:`column_centers`.
    With ``mode="none"`` the centers are all zero, so the result is an
    unchanged copy and downstream arithmetic needs no special casing.
    """
    M = as_matrix(M, "M")
    centers = column_centers(M) if validate_center(mode) == "mean" else np.zeros(M.shape[1])
    return M - centers, centers


def _fix_sign(w):
    # Deterministic orientation: the largest-magnitude entry is positive,
    # first index winning ties (np.argmax returns the first maximum).
    idx = int(np.argmax(np.abs(w)))
    if w[idx] < 0:
        return -w
    return w


def leading_left_singular_vector(S):
    """Unit vector ``w`` maximizing ``||S.T @ w||^2`` and the attained maximum.

    Parameters
    ----------
    S : array, shape (m, l)
        Cross-product matrix between predictor and response columns.

    Returns
    -------
    w : array, shape (m,)
        Leading left singular direction with a deterministic sign.
    value : float
        The leading eigenvalue of ``S @ S.T``.

    Raises
    ------
    AllZeroCrossProduct
        If ``S`` is exactly zero; how small is too small is the caller's call.
    """
    S = as_matrix(S, "S")
    if not S.any():
        raise AllZeroCrossProduct("cross-product matrix is zero")
    U, s, _ = np.linalg.svd(S, full_matrices=False)
    return _fix_sign(U[:, 0]), float(s[0] ** 2)

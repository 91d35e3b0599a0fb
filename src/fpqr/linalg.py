"""Dense-matrix building blocks: validation, column centering and the leading
left singular direction of a cross-product matrix. :func:`as_matrix` is the
package's one array check; the fitting core checks each block once with it."""

__all__ = ["as_matrix"]

import numpy as np

from .exceptions import DimensionMismatch

CENTERING_MODES = ("mean", "none")


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a finite, non-empty 2-d float64 array in C order, so one layout reaches the fit.
    A 1-d ``a`` is one column, a view of ``a`` where no copy is needed; else a ``ValueError`` names ``name``."""
    M = np.asarray(a, dtype=np.float64, order="C")
    if M.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-d or 2-d, got {M.ndim}-d")
    if M.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M[:, None] if M.ndim == 1 else M


def as_blocks(X, Y):
    """``X`` and ``Y`` through :func:`as_matrix`, with one row count, else :class:`DimensionMismatch`."""
    X, Y = as_matrix(X, "X"), as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    return X, Y


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
    M = np.asarray(M, dtype=np.float64)
    centers = column_centers(M) if validate_center(mode) == "mean" else np.zeros(M.shape[1])
    return M - centers, centers


def leading_left_singular_vector(S):
    """The unit vector ``w`` maximizing ``||S.T @ w||`` for a nonzero cross-product matrix ``S`` (m, l).

    The extraction loop stops before it asks for the direction of a zero
    ``S``. The sign is deterministic: the largest-magnitude entry is
    positive, the first winning ties (``np.argmax`` returns the first maximum).
    """
    w = np.linalg.svd(S, full_matrices=False)[0][:, 0]
    return -w if w[np.argmax(np.abs(w))] < 0 else w

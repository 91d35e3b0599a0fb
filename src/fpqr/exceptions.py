"""Errors and warnings shared across the package."""

__all__ = [
    "AllZeroCrossProduct", "DataError", "DegenerateDesignWarning", "DimensionMismatch", "DiscordantSlopesWarning",
    "IllConditionedWarning", "InvalidSpec", "ModelFormatError", "RankDeficient", "SolverFailure",
    "ZeroVarianceWarning",
]

import sys
import warnings


class AllZeroCrossProduct(RuntimeError):
    """The cross-product matrix is exactly zero, so it has no leading direction."""


class RankDeficient(RuntimeError):
    """A linear system that must be solvable is rank deficient."""


class SolverFailure(RuntimeError):
    """A quantile-regression simplex ran out of pivots, or its optimum or a dodge/choi value overflows a double."""


class DimensionMismatch(ValueError):
    """Arrays that must fit together (in length, rows, columns or shape) do not."""


class InvalidSpec(ValueError):
    """A simulation specification violates the constraints of its scheme."""


class DataError(ValueError):
    """A dataset or model file on disk cannot be parsed."""


class ModelFormatError(DataError):
    """A model file has an unsupported version or inconsistent payload."""


class DegenerateDesignWarning(UserWarning):
    """A quantile regression dropped predictor columns dependent on earlier ones (never the intercept)."""


class ZeroVarianceWarning(UserWarning):
    """Slope regressors the QR drop rule removes (constant, even to rounding) zeroed values; one warning counts them."""


class DiscordantSlopesWarning(UserWarning):
    """Directional quantile slopes disagree in sign, so those choi values are 0; one warning per call counts them."""


class IllConditionedWarning(UserWarning):
    """A loading/weight system is close to singular; coefficients may be unstable."""


def warn(message, category):
    """``warnings.warn`` naming the first line outside this package, however deep the call."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)

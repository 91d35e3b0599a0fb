"""Errors and warnings shared across the package."""

__all__ = [
    "AllZeroCrossProduct", "DataError", "DegenerateDesignWarning", "DimensionMismatch",
    "DiscordantSlopesWarning", "EmptyInput", "IllConditionedWarning", "InvalidSpec", "LengthMismatch",
    "ModelFormatError", "RankDeficient", "ShapeMismatch", "SolverFailure", "ZeroVarianceWarning",
]


class AllZeroCrossProduct(RuntimeError):
    """The cross-product matrix is exactly zero, so it has no leading direction."""


class RankDeficient(RuntimeError):
    """A linear system that must be solvable is rank deficient."""


class SolverFailure(RuntimeError):
    """The quantile-regression simplex reached its pivot cap without an optimal vertex."""


class LengthMismatch(ValueError):
    """Paired vectors have different lengths."""


class EmptyInput(ValueError):
    """An operation received an empty vector or matrix."""


class DimensionMismatch(ValueError):
    """Matrix dimensions are incompatible with the fitted model or each other."""


class ShapeMismatch(ValueError):
    """Two arrays that must share a shape do not."""


class InvalidSpec(ValueError):
    """A simulation specification violates the constraints of its scheme."""


class DataError(ValueError):
    """A dataset or model file on disk cannot be parsed."""


class ModelFormatError(DataError):
    """A model file has an unsupported version or inconsistent payload."""


class DegenerateDesignWarning(UserWarning):
    """A quantile regression dropped predictor columns dependent on earlier ones (never the intercept)."""


class ZeroVarianceWarning(UserWarning):
    """A constant argument (every entry equal) forced a quantile dependence value to 0."""


class DiscordantSlopesWarning(UserWarning):
    """The two directional quantile slopes disagree in sign; the value is set to 0."""


class IllConditionedWarning(UserWarning):
    """A loading/weight system is close to singular; coefficients may be unstable."""

"""Latent-component regression for conditional quantiles.

The quantile fit (:func:`fit_fpqr`) mirrors the classical mean-based fit
(:func:`fit_pls`) but extracts components with a quantile dependence metric
and estimates inner coefficients by quantile regression, which makes it
robust to heavy-tailed and asymmetric response noise.
"""

from .evaluate import (
    CvResult,
    EvalReport,
    ModelRecipe,
    SimulationSpec,
    StudyAggregate,
    StudyResult,
    beta_distance,
    cross_validate,
    generate_simulation,
    make_simulation_spec,
    parse_recipe,
    quantile_error,
    run_study,
    test_mse,
)
from .exceptions import (
    AllZeroCrossProduct,
    DataError,
    DegenerateDesignWarning,
    DimensionMismatch,
    DiscordantSlopesWarning,
    EmptyInput,
    IllConditionedWarning,
    InvalidSpec,
    LengthMismatch,
    ModelFormatError,
    RankDeficient,
    ShapeMismatch,
    SolverFailure,
    ZeroVarianceWarning,
)
from .fpqr import fit_fpqr, predict_quantile
from .io import load_model, read_dataset, save_model, split_response_columns, write_matrix_csv
from .linalg import (
    CenteringInfo,
    as_matrix,
    center_columns,
    leading_left_singular_vector,
    least_squares,
)
from .pls import FittedModel, LatentDecomposition, fit_pls, predict
from .qcov import QcovMetric, qcor_choi, qcov_choi, qcov_dodge, qcov_li, qcov_matrix
from .quantreg import (
    QrFit,
    check_loss,
    empirical_quantile,
    fit_quantile_regression,
    psi,
    validate_tau,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroCrossProduct",
    "CenteringInfo",
    "CvResult",
    "DataError",
    "DegenerateDesignWarning",
    "DimensionMismatch",
    "DiscordantSlopesWarning",
    "EmptyInput",
    "EvalReport",
    "FittedModel",
    "IllConditionedWarning",
    "InvalidSpec",
    "LatentDecomposition",
    "LengthMismatch",
    "ModelFormatError",
    "ModelRecipe",
    "QcovMetric",
    "QrFit",
    "RankDeficient",
    "ShapeMismatch",
    "SimulationSpec",
    "SolverFailure",
    "StudyAggregate",
    "StudyResult",
    "ZeroVarianceWarning",
    "as_matrix",
    "beta_distance",
    "center_columns",
    "check_loss",
    "cross_validate",
    "empirical_quantile",
    "fit_fpqr",
    "fit_pls",
    "fit_quantile_regression",
    "generate_simulation",
    "leading_left_singular_vector",
    "least_squares",
    "load_model",
    "make_simulation_spec",
    "parse_recipe",
    "predict",
    "predict_quantile",
    "psi",
    "qcor_choi",
    "qcov_choi",
    "qcov_dodge",
    "qcov_li",
    "qcov_matrix",
    "quantile_error",
    "read_dataset",
    "run_study",
    "save_model",
    "split_response_columns",
    "test_mse",
    "validate_tau",
    "write_matrix_csv",
]

"""Latent-component regression for conditional quantiles.

The quantile fit (:func:`fit_fpqr`) mirrors the classical mean-based fit
(:func:`fit_pls`) but extracts components with a quantile dependence metric
and estimates inner coefficients by quantile regression, which makes it
robust to heavy-tailed and asymmetric response noise.
"""

from . import evaluate, exceptions, fpqr, io, linalg, pls, qcov, quantreg
from .evaluate import *
from .exceptions import *
from .fpqr import *
from .io import *
from .linalg import *
from .pls import *
from .qcov import *
from .quantreg import *

__version__ = "0.1.0"

# Each module lists its own public names; the package republishes all of them.
__all__ = sorted(
    name for module in (evaluate, exceptions, fpqr, io, linalg, pls, qcov, quantreg) for name in module.__all__
)

"""Rare/weak signal inference toolkit.

Higher Criticism detection under structured noise, sparse recovery by hard
thresholding and graphlet screening, HC-thresholded classification, phase
diagram boundaries, two stylized applications (covariance bandwidth
estimation and graph-guided feature ranking), and a reproducible Monte Carlo
experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    DegeneracyError,
    DomainError,
    FactorizationError,
    GenerationError,
    NotPositiveDefiniteError,
    RareWeakError,
    SolverError,
)
from .numerics import RngStream, chisq_sf, normal_sf, sym_sqrt
from .models import ArwParams, PrecisionModel, gen_arw, to_regression

__all__ = [
    "__version__",
    "RareWeakError", "DomainError", "FactorizationError",
    "NotPositiveDefiniteError", "CapacityError", "DegeneracyError",
    "GenerationError", "SolverError", "ConfigError",
    "RngStream", "normal_sf", "chisq_sf", "sym_sqrt",
    "ArwParams", "PrecisionModel", "gen_arw", "to_regression",
]

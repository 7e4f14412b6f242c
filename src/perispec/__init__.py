"""Eigenvalues of the linear peridynamic operator.

Exact hypergeometric representations (summed with cancellation-safe
fixed-point arithmetic), their closed-form large-wavenumber asymptotics, and an
independent quadrature oracle derived from the operator's integral
definition.
"""

from .asymptotics import (
    AsymptoticBranch,
    BranchInstabilityWarning,
    ErrorEnvelope,
    GrowthClass,
    asym_lambda1,
    asym_lambda11,
    asym_lambda12,
    asym_lambda2,
    branch_for,
    classify_growth,
    error_envelope,
)
from .eigenvalues import (
    DerivedParams,
    EvalPolicy,
    MaterialParams,
    SpectrumSample,
    WaveNumber,
    derive,
    eval_spectrum,
    lambda1,
    lambda11,
    lambda12,
    lambda2,
    navier_eigenvalues,
)
from .hyper import (
    EvalResult,
    HypergeometricSeries,
    InvalidSeriesError,
    PrecisionExhaustedError,
    eval_pfq,
    required_bits,
)
from .oracle import (
    QuadratureConvergenceError,
    QuadratureSpec,
    SingularKernelError,
    UnsupportedDimensionError,
    multiplier_matrix,
    oracle_multipliers,
    oracle_selftest,
)
from .special import EULER_GAMMA, GammaPoleError, digamma, gamma, pochhammer, reciprocal_gamma

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBranch",
    "BranchInstabilityWarning",
    "DerivedParams",
    "ErrorEnvelope",
    "EULER_GAMMA",
    "EvalPolicy",
    "EvalResult",
    "GammaPoleError",
    "GrowthClass",
    "HypergeometricSeries",
    "InvalidSeriesError",
    "MaterialParams",
    "PrecisionExhaustedError",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "SingularKernelError",
    "SpectrumSample",
    "UnsupportedDimensionError",
    "WaveNumber",
    "asym_lambda1",
    "asym_lambda11",
    "asym_lambda12",
    "asym_lambda2",
    "branch_for",
    "classify_growth",
    "derive",
    "digamma",
    "error_envelope",
    "eval_pfq",
    "eval_spectrum",
    "gamma",
    "lambda1",
    "lambda11",
    "lambda12",
    "lambda2",
    "multiplier_matrix",
    "navier_eigenvalues",
    "oracle_multipliers",
    "oracle_selftest",
    "pochhammer",
    "reciprocal_gamma",
    "required_bits",
]

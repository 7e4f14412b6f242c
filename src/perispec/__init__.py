"""Eigenvalues of the linear peridynamic operator.

Exact hypergeometric representations (summed with cancellation-safe
fixed-point arithmetic), their closed-form large-wavenumber asymptotics, and an
independent quadrature oracle derived from the operator's integral
definition.

The oracle and the validation suites are the only modules that load numpy.
The oracle's names here (``perispec.oracle_multipliers``, ``perispec.oracle``,
...) import it on first use, so importing the package does not load numpy.
"""

import importlib

from .asymptotics import (
    BranchInstabilityWarning,
    asym_lambda1,
    asym_lambda2,
    classify_growth,
    error_envelope,
)
from .eigenvalues import (
    SpectrumSample,
    eval_spectrum,
    lambda1,
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
from .material import DerivedParams, MaterialParams, derive
from .special import EULER_GAMMA, GammaPoleError, digamma, gamma, reciprocal_gamma

__version__ = "0.1.0"

__all__ = [
    "BranchInstabilityWarning",
    "DerivedParams",
    "EULER_GAMMA",
    "EvalResult",
    "GammaPoleError",
    "HypergeometricSeries",
    "InvalidSeriesError",
    "MaterialParams",
    "PrecisionExhaustedError",
    "QuadratureConvergenceError",
    "SingularKernelError",
    "SpectrumSample",
    "asym_lambda1",
    "asym_lambda2",
    "classify_growth",
    "derive",
    "digamma",
    "error_envelope",
    "eval_pfq",
    "eval_spectrum",
    "gamma",
    "lambda1",
    "lambda2",
    "navier_eigenvalues",
    "oracle_multipliers",
    "reciprocal_gamma",
    "required_bits",
]

_ORACLE_NAMES = frozenset({"QuadratureConvergenceError", "SingularKernelError", "oracle_multipliers"})


def __getattr__(name):
    # Module-level __getattr__ (PEP 562) runs only for names not yet bound here.
    # import_module, not "from . import oracle", which would call back into it.
    if name in _ORACLE_NAMES:
        return getattr(importlib.import_module(".oracle", __name__), name)
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

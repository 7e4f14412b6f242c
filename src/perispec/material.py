"""A material and a wavenumber: the inputs every route starts from.

The series (``eigenvalues``), the closed-form asymptotics (``asymptotics``)
and the quadrature oracle (``oracle``) all take a ``MaterialParams`` and a
wavenumber, and all need the shorthand a, b and the kernel constant c that
``derive`` computes from it.  The series and the asymptotics read the
wavenumber through z = delta * ||nu|| / 2, which ``z_of`` computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .special import gamma


@dataclass(frozen=True, slots=True)
class MaterialParams:
    """Physical and nonlocal parameters defining the operator.

    n: spatial dimension, delta: interaction horizon, beta: kernel exponent
    (kernel integrable for beta < n, singular for n <= beta < n+2), mu and
    lambda_star: the Lame parameters.  lambda_star may be negative; physical
    admissibility is the caller's concern.
    """

    n: int
    delta: float
    beta: float
    mu: float
    lambda_star: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {self.n!r}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"horizon delta must be finite and > 0, got {self.delta}")
        if not (math.isfinite(self.beta) and self.beta <= self.n + 2):
            raise ValueError(f"kernel exponent beta must satisfy beta <= n+2, got {self.beta}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"shear modulus mu must be finite and > 0, got {self.mu}")
        if not math.isfinite(self.lambda_star):
            raise ValueError(f"lambda_star must be finite, got {self.lambda_star}")


@dataclass(frozen=True)
class DerivedParams:
    """Shorthand quantities a, b and the kernel scaling constant c."""

    a: float
    b: float
    c: float


def z_of(params: MaterialParams, nu_norm: float) -> float:
    """z = delta * nu_norm / 2, the one variable of the series and the
    asymptotic forms, after checking nu_norm as ``check_nu_norms`` does."""
    check_nu_norms((nu_norm,))
    return 0.5 * params.delta * nu_norm


def check_nu_norms(nu_norms: Iterable[float]) -> None:
    """Raise ValueError at the first wavenumber magnitude that is negative,
    infinite or nan."""
    for nu_norm in nu_norms:
        if not (nu_norm >= 0 and math.isfinite(nu_norm)):
            raise ValueError(f"nu_norm must be finite and >= 0, got {nu_norm}")


def derive(params: MaterialParams) -> DerivedParams:
    """a = (n+2-beta)/2, b = (n+2)/2, and the scaling constant

    c = 2 (n+2-beta) Gamma(n/2+1) / (pi^(n/2) delta^(n+2-beta)),

    chosen so the operator converges to the Navier operator as delta -> 0 or
    beta -> n+2.  c vanishes exactly at beta = n+2.
    """
    n, beta, delta = params.n, params.beta, params.delta
    a = 0.5 * (n + 2 - beta)
    b = 0.5 * (n + 2)
    c = 2.0 * (n + 2 - beta) * gamma(0.5 * n + 1.0) / (math.pi ** (0.5 * n) * delta ** (n + 2 - beta))
    return DerivedParams(a=a, b=b, c=c)

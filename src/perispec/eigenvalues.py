"""Fourier-multiplier eigenvalues of the linear peridynamic operator.

The operator acts on plane waves e^(i nu.x) as a symmetric matrix whose
longitudinal eigenvalue lambda1 (eigenvector along nu) and transverse
eigenvalue lambda2 (multiplicity n-1) admit closed hypergeometric forms in
the single variable z = delta*||nu||/2:

    lambda2    = -mu ||nu||^2           2F3(1, a; 2, b+1, a+1; -z^2)
    lambda11   = -3 mu ||nu||^2         3F4(1, 5/2, a; 2, 3/2, b+1, a+1; -z^2)
    lambda12   = -||nu||^2 (l* - mu) [ 1F2(a; b, a+1; -z^2) ]^2
    lambda1    = lambda11 + lambda12

with a = (n+2-beta)/2 and b = (n+2)/2.  At beta = n+2 the series collapse to
1 (the a = 0 numerator parameter truncates them) and the eigenvalues reduce
to those of the classical Navier operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

from .hyper import DOUBLE_BITS, EvalResult, HypergeometricSeries, check_target_rel_err, eval_pfq
from .special import gamma

DEFAULT_TOL = 1e-10
DEFAULT_Z_SWITCH = 20.0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class WaveNumber:
    """A wavenumber magnitude with its dimensionless companion z."""

    nu_norm: float
    z: float

    @classmethod
    def of(cls, params: MaterialParams, nu_norm: float) -> "WaveNumber":
        if not (nu_norm >= 0 and math.isfinite(nu_norm)):
            raise ValueError(f"nu_norm must be finite and >= 0, got {nu_norm}")
        return cls(nu_norm=nu_norm, z=0.5 * params.delta * nu_norm)


@dataclass(frozen=True)
class EvalPolicy:
    """Spectrum evaluation policy: exact series everywhere, or series up to
    z_switch and the closed-form asymptotics beyond."""

    mode: str
    z_switch: float = DEFAULT_Z_SWITCH

    def __post_init__(self):
        if self.mode not in ("series", "hybrid"):
            raise ValueError(f"policy mode must be 'series' or 'hybrid', got {self.mode!r}")
        if not (self.z_switch > 0):
            raise ValueError(f"z_switch must be > 0, got {self.z_switch}")

    @classmethod
    def series_only(cls) -> "EvalPolicy":
        return cls(mode="series")

    @classmethod
    def hybrid(cls, z_switch: float = DEFAULT_Z_SWITCH) -> "EvalPolicy":
        return cls(mode="hybrid", z_switch=z_switch)


@dataclass(frozen=True)
class SpectrumSample:
    """One grid point: exact eigenvalues plus asymptotic companions."""

    nu_norm: float
    lambda1: float
    lambda2: float
    lambda11: float
    lambda12: float
    asym1: Optional[float]
    asym2: Optional[float]
    method: str  # which path produced the lambda columns: "series" | "asymptotic"


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


def _zero_result() -> EvalResult:
    return EvalResult(value=0.0, abs_error_estimate=0.0, terms_used=1, precision_bits_used=DOUBLE_BITS)


def _scaled(prefactor: float, res: EvalResult) -> EvalResult:
    return EvalResult(
        value=prefactor * res.value,
        abs_error_estimate=abs(prefactor) * res.abs_error_estimate,
        terms_used=res.terms_used,
        precision_bits_used=res.precision_bits_used,
    )


class _Plan:
    """The z-independent work of one material, done once for any number of
    wavenumbers: ``derive``, the three series and the asymptotic constants,
    each built on first use.  A series keeps its memo of term ratios, so every
    wavenumber evaluated through one plan reuses the ratios the earlier ones
    computed."""

    def __init__(self, params: MaterialParams):
        self.params = params

    @cached_property
    def derived(self) -> DerivedParams:
        return derive(self.params)

    @cached_property
    def transverse(self) -> HypergeometricSeries:
        d = self.derived
        return HypergeometricSeries((1.0, d.a), (2.0, d.b + 1.0, d.a + 1.0))

    @cached_property
    def dyadic(self) -> HypergeometricSeries:
        d = self.derived
        return HypergeometricSeries((1.0, 2.5, d.a), (2.0, 1.5, d.b + 1.0, d.a + 1.0))

    @cached_property
    def coupling(self) -> HypergeometricSeries:
        d = self.derived
        return HypergeometricSeries((d.a,), (d.b, d.a + 1.0))

    @cached_property
    def forms(self):
        from . import asymptotics  # deferred: asymptotics imports this module's types

        return asymptotics.AsymptoticForms(self.params, self.derived)

    def lambda2(self, nu_norm: float, tol: float, **kwargs) -> EvalResult:
        w = WaveNumber.of(self.params, nu_norm)
        if w.nu_norm == 0.0:
            return _zero_result()
        res = eval_pfq(self.transverse, w.z * w.z, tol, **kwargs)
        return _scaled(-self.params.mu * nu_norm * nu_norm, res)

    def lambda11(self, nu_norm: float, tol: float, **kwargs) -> EvalResult:
        w = WaveNumber.of(self.params, nu_norm)
        if w.nu_norm == 0.0:
            return _zero_result()
        res = eval_pfq(self.dyadic, w.z * w.z, tol, **kwargs)
        return _scaled(-3.0 * self.params.mu * nu_norm * nu_norm, res)

    def lambda12(self, nu_norm: float, tol: float, **kwargs) -> EvalResult:
        params = self.params
        w = WaveNumber.of(params, nu_norm)
        if w.nu_norm == 0.0 or params.lambda_star == params.mu:
            return _zero_result()
        res = eval_pfq(self.coupling, w.z * w.z, tol, **kwargs)
        prefactor = -(params.lambda_star - params.mu) * nu_norm * nu_norm
        value = prefactor * res.value * res.value
        err = abs(prefactor) * (2.0 * abs(res.value) + res.abs_error_estimate) * res.abs_error_estimate
        return EvalResult(
            value=value,
            abs_error_estimate=err,
            terms_used=res.terms_used,
            precision_bits_used=res.precision_bits_used,
        )


def transverse_series(params: MaterialParams) -> HypergeometricSeries:
    return _Plan(params).transverse


def longitudinal_dyadic_series(params: MaterialParams) -> HypergeometricSeries:
    return _Plan(params).dyadic


def coupling_series(params: MaterialParams) -> HypergeometricSeries:
    return _Plan(params).coupling


def lambda2(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL, **kwargs) -> EvalResult:
    """Transverse eigenvalue -mu ||nu||^2 2F3(1,a; 2,b+1,a+1; -z^2)."""
    return _Plan(params).lambda2(nu_norm, tol, **kwargs)


def lambda11(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL, **kwargs) -> EvalResult:
    """Dyadic part of the longitudinal eigenvalue, -3 mu ||nu||^2 3F4(...)."""
    return _Plan(params).lambda11(nu_norm, tol, **kwargs)


def lambda12(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL, **kwargs) -> EvalResult:
    """Rank-one coupling part, -||nu||^2 (lambda* - mu) [1F2(...)]^2."""
    return _Plan(params).lambda12(nu_norm, tol, **kwargs)


def lambda1(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL, **kwargs) -> EvalResult:
    """Longitudinal eigenvalue lambda11 + lambda12 with combined error."""
    plan = _Plan(params)
    r11 = plan.lambda11(nu_norm, tol, **kwargs)
    r12 = plan.lambda12(nu_norm, tol, **kwargs)
    return EvalResult(
        value=r11.value + r12.value,
        abs_error_estimate=r11.abs_error_estimate + r12.abs_error_estimate,
        terms_used=r11.terms_used + r12.terms_used,
        precision_bits_used=max(r11.precision_bits_used, r12.precision_bits_used),
    )


def navier_eigenvalues(params: MaterialParams, nu_norm: float):
    """Eigenvalues of the classical Navier operator's Fourier symbol:
    (-(lambda*+2mu)||nu||^2, -mu ||nu||^2), the beta = n+2 limit."""
    nu_sq = nu_norm * nu_norm
    return (-(params.lambda_star + 2.0 * params.mu) * nu_sq, -params.mu * nu_sq)


def eval_spectrum(
    params: MaterialParams,
    grid: Sequence[float],
    policy: Optional[EvalPolicy] = None,
    tol: float = DEFAULT_TOL,
) -> List[SpectrumSample]:
    """Evaluate the spectrum over a sorted nonnegative wavenumber grid.

    Under the hybrid policy, points with z above the switch use the
    closed-form large-z approximations for the lambda columns; the sample
    records which path was taken.  The asym1/asym2 companions are filled for
    every nu > 0 with beta < n+2 regardless of policy.  The material's
    z-independent work (series, term ratios, asymptotic constants) is done
    once for the whole grid.  ``tol`` is checked up front, even when every
    row takes the asymptotic path.
    """
    if policy is None:
        policy = EvalPolicy.hybrid()
    grid = [float(nu) for nu in grid]
    if any(nu < 0 or not math.isfinite(nu) for nu in grid):
        raise ValueError("grid values must be finite and >= 0")
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("grid must be sorted ascending")
    check_target_rel_err(tol)

    plan = _Plan(params)
    has_asym = params.beta < params.n + 2
    samples = []
    for nu in grid:
        w = WaveNumber.of(params, nu)
        if policy.mode == "hybrid" and w.z > policy.z_switch and has_asym:
            l11 = plan.forms.lambda11(w.z)
            l12 = plan.forms.lambda12(w.z)
            l1 = l11 + l12  # bitwise asym_lambda1, which adds the same two parts
            l2 = plan.forms.lambda2(w.z)
            samples.append(
                SpectrumSample(
                    nu_norm=nu,
                    lambda1=l1,
                    lambda2=l2,
                    lambda11=l11,
                    lambda12=l12,
                    asym1=l1,
                    asym2=l2,
                    method="asymptotic",
                )
            )
        else:
            if nu > 0.0 and has_asym:
                asym1 = plan.forms.lambda1(w.z)
                asym2 = plan.forms.lambda2(w.z)
            else:
                asym1 = None
                asym2 = None
            r11 = plan.lambda11(nu, tol)
            r12 = plan.lambda12(nu, tol)
            samples.append(
                SpectrumSample(
                    nu_norm=nu,
                    lambda1=r11.value + r12.value,
                    lambda2=plan.lambda2(nu, tol).value,
                    lambda11=r11.value,
                    lambda12=r12.value,
                    asym1=asym1,
                    asym2=asym2,
                    method="series",
                )
            )
    return samples

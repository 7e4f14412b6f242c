"""Closed-form large-wavenumber approximations of the eigenvalues.

Each eigenvalue splits, for large z = delta*||nu||/2, into an algebraic part
(two Mellin-Barnes residues, at s = -1 and s = -a) and exponentially
oscillating terms ~ e^(+-2iz) that decay like a fixed power of z.  The
algebraic part is:

    lambda2   ~ -4 mu a b / (delta^2 (a-1))
                - Gamma(b+1)Gamma(a+1) / (((beta-n)/2) Gamma((beta+2)/2))
                  * (4 mu / delta^2) * z^(beta-n)                (beta != n)
    lambda2   ~ -(4 mu a b / delta^2) (2 log z + euler_gamma - psi(b))
                                                                 (beta = n)

and analogously for lambda11 (coefficient (n-beta-1)/(n-beta), prefactor
8 mu/delta^2, log-branch constant shifted by +2) and lambda12
(pure power z^(2(beta-n-1))).  At beta = n the two power-branch terms merge
into the double-pole logarithm; within ``BRANCH_TOLERANCE`` of that point the
power branch subtracts two nearly identical huge terms, so the logarithmic
branch is used instead.  ``classify_growth`` alone tests that window, and the
forms take the logarithmic branch exactly where it says "log_divergent".

The discarded oscillatory terms give the error envelopes: absolute error
~ C * z^(-(n+3)/2) for lambda2 and ~ C * z^(-(n+1)/2) for lambda11 (the
dyadic part of lambda1).  The envelope-slope validation fits the exponents
that ``envelope_for`` returns.

``AsymptoticForms`` computes one material's branch and constants once, when
it is built; its ``parts(z)`` gives lambda11, lambda12 and lambda2 at any
number of wavenumbers.  ``asym_lambda1`` and ``asym_lambda2`` take ||nu||
and build one per call.
"""

from __future__ import annotations

import math
import warnings
from typing import Tuple

from .material import MaterialParams, derive, z_of
from .special import EULER_GAMMA, digamma, gamma, reciprocal_gamma

#: Width of the logarithmic-branch window around beta = n.
BRANCH_TOLERANCE = 1e-9

_SQRT_PI = math.sqrt(math.pi)


class BranchInstabilityWarning(RuntimeWarning):
    """beta is so close to n that the power branch would cancel catastrophically."""


def _positive(z: float) -> float:
    if z <= 0.0:
        raise ValueError("asymptotic forms need nu_norm > 0 (log z and negative powers)")
    return z


def classify_growth(params: MaterialParams) -> str:
    """The growth class: "bounded" for beta < n, "log_divergent" within
    BRANCH_TOLERANCE of beta = n, else "power_divergent", like z^(beta-n)
    (the slower z^(2(beta-n-1)) part never wins below beta = n+2)."""
    if not params.beta < params.n + 2:
        raise ValueError(f"asymptotic formulas require beta < n+2, got beta = {params.beta} with n = {params.n}")
    gap = params.beta - params.n
    if abs(gap) < BRANCH_TOLERANCE:
        return "log_divergent"
    return "bounded" if gap < 0 else "power_divergent"


def bounded_limit(params: MaterialParams) -> float:
    """-4 mu a b / (delta^2 (a-1)): the residue at s = -1, common to lambda2
    and lambda11 on the power branch, and their large-z limit for beta < n."""
    d = derive(params)
    return -4.0 * params.mu * d.a * d.b / (params.delta ** 2 * (d.a - 1.0))


class AsymptoticForms:
    """The large-z forms above for one material (beta < n+2).

    The constructor picks the branch ("logarithmic" where ``classify_growth``
    says "log_divergent", else "power_law"), computes its z-independent
    constants (``bounded_limit`` and the coefficient products, or psi(b)) and
    lambda12's coefficient, so one object serves any number of wavenumbers.
    ``parts`` takes z = delta ||nu|| / 2 > 0 and evaluates each formula's
    floating-point expression in its original order.
    """

    def __init__(self, params: MaterialParams):
        self.params = p = params
        self._logarithmic = classify_growth(p) == "log_divergent"  # also rejects beta >= n+2
        self.branch = "logarithmic" if self._logarithmic else "power_law"
        if self._logarithmic and p.beta != p.n:
            warnings.warn(
                f"beta - n = {p.beta - p.n:.3e} lies inside the branch tolerance "
                f"{BRANCH_TOLERANCE:g}; using the logarithmic branch",
                BranchInstabilityWarning,
                stacklevel=2,  # the line that built the forms
            )
        d = derive(p)
        if self._logarithmic:  # -(4 mu a b / delta^2) and psi(b)
            self._constants = -(4.0 * p.mu * d.a * d.b / p.delta ** 2), digamma(d.b)
        else:  # bounded_limit and coeff * (prefactor / delta^2) of lambda2 and lambda11
            g_b, g_a, rg = gamma(d.b + 1.0), gamma(d.a + 1.0), reciprocal_gamma(0.5 * (p.beta + 2.0))
            coeff2 = g_b * g_a * rg / (0.5 * (p.beta - p.n))
            coeff11 = (p.n - p.beta - 1.0) / (p.n - p.beta) * g_b * g_a * rg
            limit = bounded_limit(p)
            self._constants = limit, coeff2 * (4.0 * p.mu / p.delta ** 2), coeff11 * (8.0 * p.mu / p.delta ** 2)
        # reciprocal_gamma makes beta in {0, -2, -4, ...} an exact zero, not a pole error
        coeff12 = gamma(d.b) * gamma(d.a + 1.0) * reciprocal_gamma(0.5 * p.beta)
        self._lambda12_scale = -(p.lambda_star - p.mu) * coeff12 * coeff12 * (4.0 / p.delta ** 2)

    def parts(self, z: float) -> Tuple[float, float, float]:
        """(lambda11, lambda12, lambda2) at one z, from one positivity check
        and one shared power or logarithm; lambda12 is exactly 0.0 at
        lambda* = mu."""
        z = _positive(z)
        p = self.params
        if self._logarithmic:
            scale, psi = self._constants
            t = 2.0 * math.log(z) + EULER_GAMMA
            l11, l2 = scale * (t + 2.0 - psi), scale * (t - psi)
        else:
            limit, scale2, scale11 = self._constants
            power = z ** (p.beta - p.n)
            l11, l2 = limit - scale11 * power, limit - scale2 * power
        if p.lambda_star == p.mu:
            return l11, 0.0, l2
        return l11, self._lambda12_scale * z ** (2.0 * (p.beta - (p.n + 1.0))), l2


def asym_lambda2(params: MaterialParams, nu_norm: float) -> float:
    return AsymptoticForms(params).parts(z_of(params, nu_norm))[2]


def asym_lambda1(params: MaterialParams, nu_norm: float) -> float:
    l11, l12, _ = AsymptoticForms(params).parts(z_of(params, nu_norm))
    return l11 + l12


def envelope_for(which: str, params: MaterialParams) -> float:
    """z-exponent of the decay of |exact - asymptotic| for 'lambda2' or
    'lambda11'.

    The oscillatory terms of the underlying series decay like
    |z|^(-(n+7)/2) (transverse) and |z|^(-(n+5)/2) (longitudinal dyadic);
    the ||nu||^2 ~ z^2 prefactor shifts both by +2.
    """
    n = params.n
    if which == "lambda2":
        return -(n + 3.0) / 2.0
    if which == "lambda11":
        return -(n + 1.0) / 2.0
    raise ValueError(f"which must be 'lambda2' or 'lambda11', got {which!r}")


def error_envelope(which: str, params: MaterialParams, nu_norm: float) -> float:
    """Conservative magnitude C * z^decay of the neglected oscillation.

    The prefactor collapses to 4 mu a Gamma(b+1) / (delta^2 sqrt(pi)) for
    lambda2 (assembled from (2 pi)^(-1/2) 2^(b+3) (2z)^(-(n+7)/2) times the
    series prefactor mu ||nu||^2 a Gamma(b+1)) and twice that for lambda11.
    Not a hard bound: the tests hold the asymptotics to 1.5 times it.
    """
    z = _positive(z_of(params, nu_norm))
    exponent = envelope_for(which, params)
    d = derive(params)
    base = 4.0 * params.mu * d.a * gamma(d.b + 1.0) / (params.delta ** 2 * _SQRT_PI)
    if which == "lambda11":
        base *= 2.0
    return base * z ** exponent


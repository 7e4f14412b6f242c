"""Gamma-family special functions in double precision.

Covers exactly what the eigenvalue formulas and their asymptotic coefficients
consume: gamma, reciprocal gamma (entire, exact zeros at the poles), digamma
at integer and half-integer arguments, and the Euler-Mascheroni constant.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606065120900824024

_LN2 = math.log(2.0)


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function for real x away from the nonpositive integers.

    Raises ``GammaPoleError`` at poles and ``OverflowError`` when the result
    exceeds the double range (|x| beyond ~171.6).
    """
    if math.isnan(x):
        raise ValueError("gamma argument is NaN")
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x = {x}")
    return math.gamma(x)  # C library Lanczos-type kernel with reflection


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x; exactly 0 at the nonpositive integers."""
    if math.isnan(x):
        raise ValueError("reciprocal_gamma argument is NaN")
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        # Gamma(x) > 0 here; going through lgamma keeps x > 171 from overflowing.
        return math.exp(-math.lgamma(x))
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    s = _sin_pi(x)
    try:
        return s * math.exp(math.lgamma(1.0 - x)) / math.pi
    except OverflowError:
        # |1/Gamma| genuinely exceeds the double range below x ~ -171
        return math.copysign(math.inf, s)


def _sin_pi(x: float) -> float:
    # sin(pi*x) with the argument reduced in exact arithmetic, so integers map
    # to exactly 0 and half-integers to exactly +-1.
    r = x - 2.0 * math.floor(x / 2.0)  # r in [0, 2)
    if r == math.floor(r):
        return 0.0
    if r == 0.5:
        return 1.0
    if r == 1.5:
        return -1.0
    return math.sin(math.pi * r) if r < 1.0 else -math.sin(math.pi * (r - 1.0))


def digamma(x: float) -> float:
    """Digamma psi(x) for an integer or half-integer x > 0.

    These are the only arguments the asymptotic formulas need (psi(b) with
    b = (n+2)/2), and they have the exact closed form psi(1) = -gamma,
    psi(1/2) = -gamma - 2 ln 2, psi(x+1) = psi(x) + 1/x.  Any other argument
    raises ``ValueError``.
    """
    two_x = 2.0 * x
    if not (x > 0.0 and two_x.is_integer()):
        raise ValueError(f"digamma requires an integer or half-integer x > 0, got {x}")
    m = int(two_x)
    if m % 2 == 0:  # integer argument
        return -EULER_GAMMA + math.fsum(1.0 / j for j in range(1, m // 2))
    # half-integer argument
    return -EULER_GAMMA - 2.0 * _LN2 + math.fsum(2.0 / (2 * j - 1) for j in range(1, (m + 1) // 2))

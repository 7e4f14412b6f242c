"""Generalized hypergeometric series pFq at negative real argument -z^2.

For p <= q these series are entire, but at large z they are dominated by
catastrophic cancellation: the terms peak near e^(2z) while the sum is O(1).
``eval_pfq`` therefore sums the term recurrence in binary fixed point on
Python integers: every term is an integer scaled by 2^bits, with ``bits`` from
``required_bits``.  All series parameters and z^2 are doubles, hence exact
dyadic rationals, so each term step is one integer multiply and one floor
division (error below one unit of 2^-bits), the truncation test is an exact
integer comparison, and the sum is rounded to double once at the end.  The
result carries an explicit error estimate.

The integer term ratios do not depend on z, so each ``HypergeometricSeries``
object memoises them: a later evaluation of the same object, at any z, looks
them up instead of recomputing them.  The memo is per series object, not
process-wide; it grows to the highest term any evaluation reached and is freed
with the object.  ``eval_pfq_float64`` is the
deliberately naive double-precision summation kept around to demonstrate (and
regression-test) why the fixed-point path exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Hard ceiling on working precision; beyond it evaluation refuses to run.
MAX_PRECISION_BITS = 1 << 20

#: Floor for the adaptive term cap.  Terms of a pFq series at -z^2 start
#: decreasing near k ~ z and are negligible by k ~ e*z, so the cap scales
#: with z instead of silently mis-summing long series.
MIN_TERM_CAP = 10_000

DOUBLE_BITS = 53

_LOG2_E = math.log2(math.e)

_REL_ERR_RANGE = (1e-15, 1e-2)


class InvalidSeriesError(ValueError):
    """Series parameters violate the pFq preconditions."""


class PrecisionExhaustedError(ArithmeticError):
    """Evaluation would exceed the configured precision or term budget."""


def required_bits(z: float, headroom: int = 40) -> int:
    """Working precision for summing a pFq series at argument -z^2.

    53 base bits, plus ceil(2*z*log2(e)) bits lost to cancellation against the
    e^(2z) term peak, plus fixed headroom.
    """
    if z < 0 or not math.isfinite(z):
        raise ValueError(f"z must be finite and >= 0, got {z}")
    return DOUBLE_BITS + math.ceil(2.0 * z * _LOG2_E) + headroom


def check_target_rel_err(target_rel_err: float) -> None:
    """Raise ``ValueError`` unless the relative tolerance lies in [1e-15, 1e-2]."""
    lo, hi = _REL_ERR_RANGE
    if not (lo <= target_rel_err <= hi):
        raise ValueError(f"target_rel_err must lie in [{lo}, {hi}], got {target_rel_err}")


def default_max_terms(z: float) -> int:
    return max(MIN_TERM_CAP, math.ceil(3.3 * z) + 200)


@dataclass(frozen=True)
class HypergeometricSeries:
    """A pFq specification: numerator a_1..a_p and denominator b_1..b_q.

    Outside its two fields, and so outside equality and hashing, the object
    keeps the memo of z-independent term ratios that ``eval_pfq`` fills.
    """

    numerator_params: tuple
    denominator_params: tuple

    def __post_init__(self):
        nums = tuple(float(a) for a in self.numerator_params)
        dens = tuple(float(b) for b in self.denominator_params)
        object.__setattr__(self, "numerator_params", nums)
        object.__setattr__(self, "denominator_params", dens)
        if len(nums) > len(dens):
            raise InvalidSeriesError(
                f"need p <= q for an entire series, got p={len(nums)}, q={len(dens)}"
            )
        for b in dens:
            if b <= 0.0 and b == math.floor(b):
                raise InvalidSeriesError(f"denominator parameter {b} is a nonpositive integer")
        # Every double is a dyadic rational p/q, so a + k = (p + k q)/q exactly.
        nums = tuple(a.as_integer_ratio() for a in nums)
        dens = tuple(b.as_integer_ratio() for b in dens)
        scales = (math.prod(q for _, q in dens), math.prod(q for _, q in nums))
        object.__setattr__(self, "_integer_params", (nums, dens) + scales)
        # Memo of the term ratios, flat: num_0, den_0, num_1, den_1, ... (see
        # eval_pfq).  A published list is never mutated: eval_pfq replaces it.
        object.__setattr__(self, "_ratios", [])


@dataclass(frozen=True)
class EvalResult:
    """A computed value with its certified error and evaluation bookkeeping."""

    value: float
    abs_error_estimate: float
    terms_used: int
    precision_bits_used: int

    def __post_init__(self):
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")


def eval_pfq(
    series: HypergeometricSeries,
    z_sq: float,
    target_rel_err: float = 1e-12,
    *,
    bits: Optional[int] = None,
    max_terms: Optional[int] = None,
) -> EvalResult:
    """Sum pFq(a_1..a_p; b_1..b_q; -z_sq) in fixed point.

    Terms follow the recurrence
    t_{k+1} = t_k * (-z_sq) * prod(a_i + k) / (prod(b_j + k) * (k + 1)),
    held as integers scaled by 2^bits, with ``bits = required_bits(sqrt(z_sq))``
    unless overridden.  Truncation requires |t_k| < target_rel_err * |sum| for
    three consecutive terms *after* the term-magnitude peak; a single small
    term before the peak of an alternating series proves nothing.

    Raises ``PrecisionExhaustedError`` when the required precision exceeds
    ``MAX_PRECISION_BITS`` or the term budget runs out.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    check_target_rel_err(target_rel_err)
    if bits is not None and (not isinstance(bits, int) or bits < DOUBLE_BITS):
        raise ValueError(f"bits must be an integer >= {DOUBLE_BITS}, got {bits!r}")

    z = math.sqrt(z_sq)
    if bits is None:
        bits = required_bits(z)
    if bits > MAX_PRECISION_BITS:
        raise PrecisionExhaustedError(
            f"z = {z:g} needs {bits} bits > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}"
        )
    cap = max_terms if max_terms is not None else default_max_terms(z)

    # With each parameter a = p/q exactly, t_{k+1}/t_k = -z_sq num_k / den_k for
    # the z-independent integers num_k = prod q_b prod(p_a + k q_a) and
    # den_k = prod q_a (k+1) prod(p_b + k q_b).  The series memoises them:
    # entry k is computed when a sum first reaches term k.
    nums, dens, num_scale, den_scale = series._integer_params
    memo = list(series._ratios)  # extended privately, published after the sum
    known = len(memo) // 2
    zp, zq = z_sq.as_integer_ratio()
    mzp = -zp
    tol_p, tol_q = target_rel_err.as_integer_ratio()

    one = 1 << bits
    term = one
    total = one
    prev_mag = one
    peak_mag = one
    past_peak = False
    terminated = False
    consecutive_small = 0
    last_mag = 0

    for k in range(cap):
        if k < known:
            num = memo[2 * k]
            den = memo[2 * k + 1]
        else:
            num = num_scale
            for p, q in nums:
                num *= p + k * q
            den = den_scale * (k + 1)
            for p, q in dens:
                den *= p + k * q
            memo.append(num)
            memo.append(den)
        num *= mzp
        if num == 0:
            terminated = True  # a numerator parameter hit a nonpositive integer
            break
        term = term * num // (den * zq)
        mag = abs(term)
        total += term
        if not past_peak:
            if mag >= prev_mag:  # still rising: no truncation test can pass yet
                peak_mag = prev_mag = mag
                continue
            past_peak = True
        elif mag > peak_mag:
            peak_mag = mag
        if mag * tol_q < tol_p * abs(total):
            consecutive_small += 1
            if consecutive_small >= 3:
                last_mag = mag
                break
        else:
            consecutive_small = 0
    else:
        raise PrecisionExhaustedError(
            f"series did not converge within {cap} terms at z = {z:g} "
            f"(past_peak={past_peak}); raise max_terms if the argument is legitimate"
        )
    if len(memo) > len(series._ratios):
        object.__setattr__(series, "_ratios", memo)  # one assignment: readers see old or new list
    terms_used = k + 1 if terminated else k + 2

    value = total / one  # int / int: one correct rounding to double
    rounding = peak_mag * (terms_used + 2) / (1 << (2 * bits - 1))  # peak * 2^(1-bits) * (terms+2)
    if terminated:
        abs_err = rounding
    else:
        abs_err = target_rel_err * abs(value) + last_mag / one + rounding
    return EvalResult(
        value=value,
        abs_error_estimate=abs_err,
        terms_used=terms_used,
        precision_bits_used=bits,
    )


def eval_pfq_float64(series: HypergeometricSeries, z_sq: float, target_rel_err: float = 1e-12) -> float:
    """Naive double-precision summation of the same recurrence.

    Useless beyond small z (the e^(2z) term peak eats the 53-bit mantissa);
    exists so tests can measure exactly how wrong it goes.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    cap = default_max_terms(math.sqrt(z_sq))
    term = 1.0
    total = 1.0
    prev_mag = 1.0
    past_peak = False
    consecutive_small = 0
    for k in range(cap):
        num = -z_sq
        for a in series.numerator_params:
            num *= a + k
        den = k + 1.0
        for b in series.denominator_params:
            den *= b + k
        term = term * num / den
        mag = abs(term)
        if mag == 0.0:
            break
        total += term
        if mag < prev_mag:
            past_peak = True
        prev_mag = mag
        if past_peak and mag < target_rel_err * abs(total):
            consecutive_small += 1
            if consecutive_small >= 3:
                break
        else:
            consecutive_small = 0
    return total

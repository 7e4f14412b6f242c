"""Generalized hypergeometric series pFq at negative real argument -z^2.

For p <= q these series are entire, but at large z they are dominated by
catastrophic cancellation: the terms peak near e^(2z) while the sum is O(1).
So they are summed in binary fixed point, every term an integer count of
one unit, 2^-bits at first (``required_bits``).  Parameters and z^2 are
doubles, hence exact dyadic rationals: a term step is one integer multiply and
one floor division (error below one unit), the truncation test is an exact
integer comparison, and each sum is rounded to double once, with an explicit
error estimate.  Floor errors reach a term amplified to about |t_k| 2^-bits,
so its low bits carry nothing: once the terms outgrow bits by 2
``_GUARD_BITS``, the walk coarsens its unit, and no integer in it gets much
wider than that, where the peak terms would otherwise be 2 bits wide.

``eval_contiguous`` is the one summation loop.  It walks the terms t_k of a
base series once and sums t_k W(k) / W(0) for each weight the caller states,
W(k) a product of integer linear factors: with t_k the term of
2F3(1, a; 2, b+1, a+1), the 3F4(1, 5/2, a; 2, 3/2, b+1, a+1) term is
t_k (2k+3)/3 and the 1F2(a; b, a+1) term is t_k (k+1)(b+k)/b.  ``eval_pfq``
is its one-weight case, W = 1.  The z-independent term ratios and weight
values are memoised on the base series (not process-wide) up to the highest
term any sum reached.  ``eval_pfq_float64`` is the deliberately naive
double-precision summation kept to demonstrate (and regression-test) why the
fixed-point path exists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence

#: Hard ceiling on working precision; beyond it evaluation refuses to run.
MAX_PRECISION_BITS = 1 << 20

#: Floor for the adaptive term cap.  Terms of a pFq series at -z^2 start
#: decreasing near k ~ z and are negligible by k ~ e*z, so the cap scales
#: with z instead of silently mis-summing long series.
MIN_TERM_CAP = 10_000

DOUBLE_BITS = 53

#: Most base terms ``eval_contiguous`` makes per pass over its weighted sums.
_CHUNK = 16

#: Bits a base term keeps past ``bits`` when the walk coarsens its unit, which it
#: does once a term carries twice as many.
_GUARD_BITS = 64

_LOG2_E = math.log2(math.e)

_REL_ERR_RANGE = (1e-15, 1e-2)


class InvalidSeriesError(ValueError):
    """Series parameters violate the pFq preconditions."""


class PrecisionExhaustedError(ArithmeticError):
    """Evaluation would exceed the configured precision or term budget."""


def required_bits(z: float) -> int:
    """Working precision for summing a pFq series at argument -z^2.

    53 base bits, plus ceil(2*z*log2(e)) bits lost to cancellation against the
    e^(2z) term peak, plus 40 bits of headroom.
    """
    if z < 0 or not math.isfinite(z):
        raise ValueError(f"z must be finite and >= 0, got {z}")
    return DOUBLE_BITS + math.ceil(2.0 * z * _LOG2_E) + 40


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
    keeps the memos of z-independent term ratios and weight values that
    ``eval_contiguous`` fills.
    """

    numerator_params: tuple
    denominator_params: tuple

    def __post_init__(self):
        nums = tuple(map(float, self.numerator_params))
        dens = tuple(map(float, self.denominator_params))
        if len(nums) > len(dens):
            raise InvalidSeriesError(
                f"need p <= q for an entire series, got p={len(nums)}, q={len(dens)}"
            )
        for b in dens:
            if b <= 0.0 and b == math.floor(b):
                raise InvalidSeriesError(f"denominator parameter {b} is a nonpositive integer")
        # Every double is a dyadic rational p/q, so a + k = (p + k q)/q exactly.
        int_nums = tuple(map(float.as_integer_ratio, nums))
        int_dens = tuple(map(float.as_integer_ratio, dens))
        scales = math.prod(map(itemgetter(1), int_dens)), math.prod(map(itemgetter(1), int_nums))
        # Set in the instance dict, as the fields are frozen.  Memos (see eval_contiguous): term ratios
        # ([num_0, ...], [den_0, ...]) and {factors: [W(0), W(1), ...]} for each weight summed.
        vars(self).update(numerator_params=nums, denominator_params=dens, _ratios=([], []), _weights={})
        vars(self)["_integer_params"] = (int_nums, int_dens + ((1, 1),)) + scales


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


def _products(scale: int, factors: tuple, start: int, stop: int) -> Iterator[int]:
    """scale * prod(p + k q for (p, q) in factors) for k in range(start, stop)."""
    values = repeat(scale, stop - start)
    for p, q in factors:
        values = map(operator.mul, values, range(p + start * q, p + stop * q, q))
    return values


def eval_contiguous(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sq: float,
    target_rel_err: float = 1e-12, *, bits: Optional[int] = None,
) -> List[EvalResult]:
    """Sum t_k W(k) / W(0) at -z_sq for each weight W, from one walk of the base terms t_k.

    A weight is a tuple of integer factors (p, q), p > 0 and q >= 0, with
    W(k) = prod(p + k q); ``()`` sums the base itself.  Base terms
    t_{k+1} = t_k (-z_sq) prod(a_i + k) / (prod(b_j + k) (k + 1)) are integer
    counts of a unit u = 2^(shift - bits), ``bits = required_bits(sqrt(z_sq))``
    unless overridden.  Each weight keeps its own sum of t_k W(k), peak, term
    count and error estimate; D = W(0) enters once, in the final rounding, a
    division by D 2^(bits - shift).  A sum stops at three consecutive terms with
    |term| < target_rel_err |sum| *after* the peak term (before it, a small
    term of an alternating series proves nothing).

    The shift starts at 0.  A base term wider than bits + 2G bits, G =
    ``_GUARD_BITS``, ends its chunk; once the live sums have added it, the
    term, each live sum and its previous and peak magnitudes are shifted right
    until the term is bits + G bits wide, and the shift grows by as much.  So
    the rule follows the walk alone, not the chunk sizes.

    Rounding: a term step floors below one unit, and later steps scale that
    error with the terms.  The estimate charges peak 2^(1-bits) for each term,
    and two more, as at the finest unit 2^-bits.  A coarser unit stays within
    that charge: a rescale at t_k leaves the term at least 2^(bits+G-1) units,
    so one unit is at most |t_k| 2^(1-bits-G) <= 2 peak 2^-bits.  ``peak`` and
    a member's W(last) floor are read in the final unit.  Each rescale also
    floors every live sum, by under one unit; the estimate adds one unit per
    rescale a sum went through.

    Raises ``PrecisionExhaustedError`` when the required precision exceeds
    ``MAX_PRECISION_BITS`` or the term budget ``default_max_terms`` runs out.
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
    cap = default_max_terms(z)

    # With each parameter a = p/q exactly, t_{k+1}/t_k = -z_sq num_k / den_k for the
    # z-independent integers num_k = prod q_b prod(p_a + k q_a), den_k = prod q_a
    # (k+1) prod(p_b + k q_b).  The base memoises them and each weight's W(k); the
    # sum extends private copies of the memo lists and publishes them if longer.
    nums, dens, num_scale, den_scale = base._integer_params
    ratio_nums, ratio_dens = map(list, base._ratios)
    memo = base._weights
    zp, zq = z_sq.as_integer_ratio()
    mzp = -zp
    tol_p, tol_q = target_rel_err.as_integer_ratio()
    # |t| tol_q < tol_p |S| cannot hold once a nonzero |t| has this many more bits than S
    reject_bits = tol_p.bit_length() - tol_q.bit_length() + 2

    one = 1 << bits
    limit = bits + 2 * _GUARD_BITS
    shift = rescales = 0
    # Per weight, scaled by D / u: [(factors, W values) or None, sum, previous |term|,
    # peak |term|, past peak, small terms in a row, terms used, last |term|, D 2^bits,
    # the walk's shift and rescale count when the sum last took part in a rescale]
    states = []
    for factors in weights:
        weight = None
        if factors:  # the memo's values, or just W(0)
            weight = (factors, list(memo.get(factors) or [math.prod(map(itemgetter(0), factors))]))
        t0 = one if weight is None else one * weight[1][0]
        states.append([weight, t0, t0, t0, False, 0, 0, None, t0, 0, 0])
    active = states
    term = one
    k = 0  # term steps taken: the walk holds t_0 .. t_k
    size = min(_CHUNK, 8 + int(3.0 * z))  # steps in the next chunk; the terms rise until k ~ z
    while active:
        if k >= cap:
            raise PrecisionExhaustedError(
                f"series did not converge within {cap} terms at z = {z:g} (past_peak={active[0][4]})"
            )
        first = k
        last = min(first + size, cap)
        if len(ratio_nums) < last:
            ratio_nums += _products(num_scale, nums, len(ratio_nums), last)
            ratio_dens += _products(den_scale, dens, len(ratio_dens), last)
        chunk = []
        terminated = False  # a numerator parameter hit a nonpositive integer
        for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
            num *= mzp
            if num == 0:
                terminated = True
                break
            term = term * num // (den * zq)
            chunk.append(term)
            if term.bit_length() > limit:  # the sums add it, then the unit coarsens
                break
        k = first + len(chunk)
        # The next chunk ends about where the last sum can stop, so a cold memo is not
        # extended far past it: a sum's excess bits over its threshold, at the base's rate.
        drop = chunk[-2].bit_length() - term.bit_length() if len(chunk) > 1 else 0
        size = 1
        for st in active:
            weight, total, prev_mag, peak_mag, past_peak, small, _, _, _, _, _ = st
            xs = chunk
            if weight is not None:
                factors, values = weight
                if len(values) <= k:
                    values += _products(1, factors, len(values), k + 1)
                xs = map(operator.mul, chunk, values[first + 1 : k + 1])
            for used, x in enumerate(xs, first + 2):
                mag = abs(x)
                total += x
                if not past_peak:
                    if mag >= prev_mag:  # still rising: no truncation test can pass yet
                        peak_mag = prev_mag = mag
                        continue
                    past_peak = True
                elif mag > peak_mag:
                    peak_mag = mag
                if (not mag or mag.bit_length() < total.bit_length() + reject_bits) and (
                    mag * tol_q < tol_p * abs(total)
                ):
                    small += 1
                    if small >= 3:
                        st[1:8] = total, prev_mag, peak_mag, past_peak, small, used, mag
                        break
                else:
                    small = 0
            else:
                st[1:6] = total, prev_mag, peak_mag, past_peak, small
                if past_peak and drop > 0:
                    excess = max(0, mag.bit_length() - total.bit_length() - reject_bits)
                    size = max(size, min(_CHUNK, 3 - small - (-excess // drop)))
                else:
                    size = _CHUNK
        active = [st for st in active if not st[6]]
        if terminated:
            for st in active:
                st[6] = k + 1
            break
        cut = term.bit_length() - bits - _GUARD_BITS
        if cut > _GUARD_BITS:  # a unit 2^cut times coarser
            shift += cut
            rescales += 1
            term >>= cut
            for st in active:
                st[1:4] = st[1] >> cut, st[2] >> cut, st[3] >> cut
                st[9:] = shift, rescales

    # one assignment each: readers see the old memo or the new one
    if len(ratio_nums) > len(base._ratios[0]):
        object.__setattr__(base, "_ratios", (ratio_nums, ratio_dens))
    memo = base._weights
    grown = {f: values for f, values in (st[0] for st in states if st[0]) if len(values) > len(memo.get(f, ()))}
    if grown:
        object.__setattr__(base, "_weights", {**memo, **grown})

    out = []
    for weight, total, _, peak_mag, _, _, terms_used, last_mag, scale, shift, rescales in states:
        value = (total << shift) / scale  # int / int: one correct rounding to double
        if weight is not None:  # a tail term carries the base's floor errors, times W(k) <= W(last)
            peak_mag = max(peak_mag, weight[1][terms_used - 1] * one)
        # (peak * 2^(1-bits) * (terms+2) + rescales) units
        abs_err = ((peak_mag * (terms_used + 2) + (rescales << (bits - 1))) << shift) / (scale << (bits - 1))
        if last_mag is not None:
            abs_err = target_rel_err * abs(value) + (last_mag << shift) / scale + abs_err
        out.append(EvalResult(value, abs_err, terms_used, bits))
    return out


def eval_pfq(
    series: HypergeometricSeries, z_sq: float, target_rel_err: float = 1e-12, *, bits: Optional[int] = None
) -> EvalResult:
    """Sum pFq(a_1..a_p; b_1..b_q; -z_sq): ``eval_contiguous`` of the series
    with the one weight W = 1 and the same optional ``bits``."""
    return eval_contiguous(series, ((),), z_sq, target_rel_err, bits=bits)[0]


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

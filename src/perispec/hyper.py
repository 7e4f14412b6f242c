"""Generalized hypergeometric series pFq at negative real argument -z^2.

For p <= q these series are entire, but at large z they are dominated by
catastrophic cancellation: the terms peak near e^(2z) while the sum is O(1).
So they are summed in binary fixed point, every term an integer count of
one unit, 2^-bits at first (``required_bits``).  Parameters and z^2 are
doubles, hence exact dyadic rationals: a term step is one integer multiply and
one floor division (error below one unit), the stop test is an exact integer
comparison, and each sum is rounded to double once.  Its error estimate is
certified: a geometric bound on the omitted tail, the floor errors, and the
rounding to double.  Floor errors reach a term amplified to about |t_k| 2^-bits,
so its low bits carry nothing: once the terms outgrow bits by 2
``_GUARD_BITS``, the walk coarsens its unit, and no integer in it gets much
wider than that, where the peak terms would otherwise be 2 bits wide.

``eval_contiguous`` is the one summation loop.  It walks the terms t_k of a
base series once and sums t_k W(k) / W(0) for each weight the caller states,
W(k) a product of integer linear factors: with t_k the term of
2F3(1, a; 2, b+1, a+1), the 3F4(1, 5/2, a; 2, 3/2, b+1, a+1) term is
t_k (2k+3)/3 and the 1F2(a; b, a+1) term is t_k (k+1)(b+k)/b.  It adds the
terms to each sum a chunk at a time, with one builtin ``sum``, and tests the
stop once per chunk: a sum stops when the bound |t_k W(k)| rho / (1 - rho)
on its tail, rho a bound on every later term ratio, is within a quarter of
the relative tolerance.  ``eval_pfq`` is its one-weight case, W = 1, and
``contiguous_values`` its values alone.  The z-independent term ratios and weight
values are memoised on the base series (not process-wide) up to the highest
term any sum reached.  ``eval_pfq_float64`` is the deliberately naive
double-precision summation kept to demonstrate (and regression-test) why the
fixed-point path exists.
"""

from __future__ import annotations

import functools
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

#: ``eval_contiguous`` tests its stop at every multiple of this many base terms.
_CHUNK = 16

#: A sum stops once its tail bound is within target_rel_err / 2^_BUDGET_SHIFT of |S|.
_BUDGET_SHIFT = 2

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
        vars(self)["_tail"] = _tail_bound(nums, dens)


@functools.lru_cache(maxsize=256)
def _tail_bound(nums: tuple, dens: tuple) -> tuple:
    """The z-independent parts of ``eval_contiguous``'s ratio bound: (k_min, end,
    a_scale, a_factors, b_scale, b_factors).  Cached: every public
    ``lambda1``/``lambda2`` call builds its series afresh.

    For k >= k_min every a + k >= 0 and b + k > 0, and every later term ratio
    is at most z_sq A_k / B_k, A_k = a_scale prod(p + k q) over a_factors, B_k
    likewise.  ``end`` is the first nonpositive integer numerator's -a (the
    series' last term), or infinity.
    """
    free = sorted(zip(dens + (1.0,), map(float.as_integer_ratio, dens + (1.0,))))
    a_factors, b_factors = [], []  # the pairs with a > b: (a + k) / (b + k) falls to 1
    for a, pq in sorted(zip(nums, map(float.as_integer_ratio, nums)), reverse=True):
        i = 0
        while i < len(free) - 1 and free[i][0] < a:
            i += 1
        b, bq = free.pop(i)
        if a > b:
            a_factors.append(pq)
            b_factors.append(bq)
    rest = [bq for _, bq in free]
    a_scale = math.prod([q for _, q in b_factors + rest])
    b_scale = math.prod([q for _, q in a_factors])
    k_min = max(0, math.ceil(-min(nums, default=0.0)), math.floor(-min(dens)) + 1)
    end = min([int(-a) for a in nums if a <= 0 and a == int(a)], default=math.inf)
    return k_min, end, a_scale, tuple(a_factors), b_scale, tuple(b_factors + rest)


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


def _at(scale: int, factors: tuple, k: int) -> int:
    """scale * prod(p + k q for (p, q) in factors) at one k."""
    for p, q in factors:
        scale *= p + k * q
    return scale


def _walk(base: HypergeometricSeries, weights: Sequence[tuple], z_sq: float, target_rel_err: float,
          bits: Optional[int]) -> tuple:
    """``eval_contiguous``'s walk, without its argument checks.

    Returns (bits, shift, rescales, peak, sums): the walk's final unit
    2^(shift - bits), its rescale count, max |t_k| in that unit, and per
    weight [sum, factors, W memo values or None, terms used, (|t_N W(N)|, P,
    Q - P) of the stopping checkpoint or None if the series ended, D 2^bits].
    Every sum ends at the walk's final unit: a sum stops only past the turn
    (below), and no rescale or new peak comes after it.
    """
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
    k_min, end, a_scale, a_factors, b_scale, b_factors = base._tail
    ratio_nums, ratio_dens = map(list, base._ratios)
    memo = base._weights
    zp, zq = z_sq.as_integer_ratio()
    mzp = -zp
    if not zp:
        end = 0
    tol_p, tol_q = target_rel_err.as_integer_ratio()
    tol_q <<= _BUDGET_SHIFT
    # |t W| P tol_q > tol_p |S| (Q - P) holds whenever a bit-length sum reaches this
    reject_bits = tol_q.bit_length() - tol_p.bit_length() - 4

    one = 1 << bits
    limit = bits + 2 * _GUARD_BITS
    shift = rescales = 0
    peak = one
    sums = []
    for factors in weights:
        values = list(memo.get(factors) or [math.prod(map(itemgetter(0), factors))]) if factors else None
        scale = one if values is None else one * values[0]
        sums.append([scale, factors, values, 0, None, scale])
    live = sums
    term = one
    k = 0  # term steps taken: the walk holds t_0 .. t_k
    rising = True  # until a checkpoint bounds every later term ratio below 1
    extended = False  # a weight's memo list grew
    while live:
        if k == end:  # the next term is 0: every live sum is exact
            for st in live:
                st[3] = k + 1
            break
        if k >= cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        first = k
        last = min(first - first % _CHUNK + _CHUNK, cap, end)
        if len(ratio_nums) < last:
            ratio_nums += _products(num_scale, nums, len(ratio_nums), last)
            ratio_dens += _products(den_scale, dens, len(ratio_dens), last)
        chunk = []
        for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
            term = term * (num * mzp) // (den * zq)
            chunk.append(term)
            if term.bit_length() > limit:  # the sums add it, then the unit coarsens
                break
        if not term:  # so is every later term: the first zero ends the chunk
            del chunk[chunk.index(0) + 1 :]
        k = first + len(chunk)
        if rising:  # past the turn no term is wider than the one before it
            peak = max(peak, max(map(abs, chunk)))
        for st in live:
            values = st[2]
            if values is None:
                st[0] += sum(chunk)
                continue
            if len(values) <= k + 1:
                values += _products(1, st[1], len(values), k + 2)
                extended = True
            st[0] += sum(map(operator.mul, chunk, values[first + 1 : k + 1]))
        cut = term.bit_length() - bits - _GUARD_BITS
        if cut > _GUARD_BITS:  # a unit 2^cut times coarser
            shift += cut
            rescales += 1
            term >>= cut
            peak >>= cut
            for st in live:
                st[0] >>= cut
        if k < k_min or k == end:
            continue
        # every later base ratio |t_{j+1}/t_j|, j >= k, is at most p0/q0
        p0 = zp * _at(a_scale, a_factors, k)
        q0 = zq * _at(b_scale, b_factors, k)
        if p0 >= q0:
            continue
        rising = stopped = False
        t_bits = term.bit_length()
        for st in live:
            values = st[2]
            w = 1 if values is None else values[k]
            p = p0 if values is None else p0 * values[k + 1]
            d = q0 * w - p
            if d <= 0:  # this sum's terms t_j W(j) may still rise
                continue
            total = st[0]
            if term and (
                t_bits + w.bit_length() + p.bit_length() + reject_bits >= total.bit_length() + d.bit_length()
            ):
                continue
            mag = abs(term) * w
            if mag * p * tol_q <= tol_p * abs(total) * d:
                st[3:5] = k + 1, (mag, p, d)
                stopped = True
        if stopped:
            live = [st for st in live if not st[3]]

    # one assignment each: readers see the old memo or the new one
    if len(ratio_nums) > len(base._ratios[0]):
        object.__setattr__(base, "_ratios", (ratio_nums, ratio_dens))
    if extended:
        memo = base._weights
        grown = {st[1]: st[2] for st in sums if st[2] and len(st[2]) > len(memo.get(st[1], ()))}
        object.__setattr__(base, "_weights", {**memo, **grown})
    return bits, shift, rescales, peak, sums


def _result(bits: int, shift: int, rescales: int, peak: int, st: list) -> tuple:
    """(value, abs_error_estimate, terms_used) of one sum of ``_walk``."""
    total, _, values, terms, stop, scale = st
    exact = total << shift
    value = exact / scale  # int / int: one correct rounding to double
    # every term's floor errors, t_j W(j) for j < terms within peak W(terms - 1)
    peak_w = peak if values is None else peak * values[terms - 1]
    num = peak_w * (terms + 2) + (rescales << (bits - 1))  # units 2^(1 - bits)
    den = scale << (bits - 1)
    if stop is not None:  # the tail, (|t_N W(N)| + its floor errors) P / (Q - P)
        mag, p, d = stop
        num = ((mag << (bits - 1)) + peak_w) * p + num * d
        den *= d
    vp, vq = value.as_integer_ratio()
    # plus the rounding to double, exactly; the bound rounds up
    residual = abs(exact * vq - vp * scale) * (den // scale)
    return value, math.nextafter(((num << shift) * vq + residual) / (den * vq), math.inf), terms


def eval_contiguous(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sq: float,
    target_rel_err: float = 1e-12, *, bits: Optional[int] = None,
) -> List[EvalResult]:
    """Sum t_k W(k) / W(0) at -z_sq for each weight W, from one walk of the base terms t_k.

    A weight is a tuple of integer factors (p, q), p > 0 and q >= 0, with
    W(k) = prod(p + k q); ``()`` sums the base itself.  Base terms
    t_{k+1} = t_k (-z_sq) prod(a_i + k) / (prod(b_j + k) (k + 1)) are integer
    counts of a unit u = 2^(shift - bits), ``bits = required_bits(sqrt(z_sq))``
    unless overridden.  Each weight keeps its own sum S of t_k W(k); D = W(0)
    enters once, in the final rounding, a division by D 2^(bits - shift).

    The walk takes its terms in chunks: each weight adds a chunk with one
    builtin ``sum``, and the stop is tested at the chunk's end, a checkpoint.
    Checkpoints are the step counts k that are multiples of ``_CHUNK``, the
    rescales below, the first zero term (all later ones are 0 too), the term
    cap and the last term of a terminating series, so they follow the walk
    alone.  At a checkpoint k, once every a_i + k >= 0 and b_j + k > 0, pair
    each numerator a with the smallest free denominator b >= a, else the
    largest free one ((k+1) is the denominator 1): each pair's (a + j) /
    (b + j) is monotone in j, so rho = z_sq prod over pairs
    max(1, |a + k| / (b + k)) / prod over unpaired (b + k), times W(k+1)/W(k),
    bounds every later ratio |t_{j+1} W(j+1) / (t_j W(j))|, j >= k.  When
    rho < 1 the tail is at most |t_k W(k)| rho / (1 - rho) (Johansson,
    arXiv:1606.06977), and a sum stops at the first checkpoint where that is
    within target_rel_err / 4 of |S|.  The other three quarters are headroom:
    a caller may square a sum, as lambda12 squares its 1F2, which doubles its
    relative error, and the rounding to double and the caller's prefactors
    take the rest, so an eigenvalue holds target_rel_err.  A series whose
    numerator is a nonpositive integer -m, or z_sq = 0, ends exactly at t_m.

    The shift starts at 0.  A base term wider than bits + 2G bits, G =
    ``_GUARD_BITS``, ends its chunk; once the live sums have added it, the
    term, each live sum and the peak are shifted right until the term is
    bits + G bits wide, and the shift grows by as much.  Past the turn (rho <
    1 for the base) no term is wider than the one before it, so no rescale
    comes and the peak stays.

    ``abs_error_estimate`` is the certified tail plus rounding.  A term step
    floors below one unit, and later steps scale that error with the terms.
    The estimate charges peak W(N) 2^(1-bits) for each term, N = terms_used
    - 1, peak = max |t_k| (W is nondecreasing), two more, and one for the
    tail's first term, as at the finest unit 2^-bits.  A coarser unit stays
    within that charge: a rescale at t_k leaves the term at least 2^(bits+G-1)
    units, so one unit is at most |t_k| 2^(1-bits-G) <= 2 peak 2^-bits.  Each
    rescale also floors every live sum, by under one unit; the estimate adds
    one unit per rescale.  Last comes the exact error of the rounding to
    double, and the sum of the parts rounds up.

    Raises ``PrecisionExhaustedError`` when the required precision exceeds
    ``MAX_PRECISION_BITS`` or the term budget ``default_max_terms`` runs out.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    check_target_rel_err(target_rel_err)
    if bits is not None and (not isinstance(bits, int) or bits < DOUBLE_BITS):
        raise ValueError(f"bits must be an integer >= {DOUBLE_BITS}, got {bits!r}")
    bits, shift, rescales, peak, sums = _walk(base, weights, z_sq, target_rel_err, bits)
    return [EvalResult(*_result(bits, shift, rescales, peak, st), bits) for st in sums]


def contiguous_values(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sq: float, target_rel_err: float
) -> List[float]:
    """The values alone of ``eval_contiguous``, for a caller that has checked
    z_sq and target_rel_err."""
    _, shift, _, _, sums = _walk(base, weights, z_sq, target_rel_err, None)
    return [(st[0] << shift) / st[5] for st in sums]


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

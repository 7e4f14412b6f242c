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
the relative tolerance.  ``eval_pfq`` is its one-weight case, W = 1.
``contiguous_values`` gives the values alone at a block of arguments: the
walk steps the block's rows in lockstep, each term step one builtin ``map``
pass over the live rows with the ratios they share, while every row keeps
its own checkpoints, so each row's integers are those of a walk at its
argument alone.  The z-independent term ratios and weight values are
memoised on the base series (not process-wide) up to the highest term any
sum reached.  ``eval_pfq_float64`` is the deliberately naive
double-precision summation kept to demonstrate (and regression-test) why the
fixed-point path exists.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
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


def _walk(base: HypergeometricSeries, weights: Sequence[tuple], z_sqs: Sequence[float], target_rel_err: float,
          bits: Optional[int], errors: bool = False) -> Iterator[tuple]:
    """``eval_contiguous``'s walk at every z_sq of a block, without its argument checks.

    Yields (i, bits, shift, rescales, floors, sums) for the i-th z_sq once its
    last sum stops: the row's final unit 2^(shift - bits), its rescale count,
    its floor-error state (``_floors_at``; None unless ``errors``, which needs
    a single z_sq) and per weight (S, terms used, (|t_N W(N)|, P, Q - P) of
    the stopping checkpoint or None if the series ended, the W memo values or
    None for W = 1).  Every sum ends at its row's final unit: a sum stops only
    past the turn (below), and no rescale comes after it.  The memos are
    published after the last row.
    """
    # With each parameter a = p/q exactly, t_{k+1}/t_k = -z_sq num_k / den_k for the
    # z-independent integers num_k = prod q_b prod(p_a + k q_a), den_k = prod q_a
    # (k+1) prod(p_b + k q_b).  The base memoises them and each weight's W(k); the
    # walk extends private copies of the memo lists and publishes them if longer.
    nums, dens, num_scale, den_scale = base._integer_params
    k_min, end, a_scale, a_factors, b_scale, b_factors = base._tail
    ratio_nums, ratio_dens = map(list, base._ratios)
    memo = base._weights
    values = [list(memo.get(f) or [_at(1, f, 0)]) if f else None for f in weights]
    tol_p, tol_q = target_rel_err.as_integer_ratio()
    tol_q <<= _BUDGET_SHIFT
    # |t W| P tol_q > tol_p |S| (Q - P) holds whenever a bit-length sum reaches this
    reject_bits = tol_q.bit_length() - tol_p.bit_length() - 4

    # One list per quantity of the live rows: the index i of z_sq, its bits,
    # shift, rescale count and term cap; t_k, -zp and log2 zq (z_sq = zp / zq
    # exactly) and the width that rescales, which the steps read; max |t_k|;
    # per weight the sums and the stops, each None until its sum stops; and
    # the count of sums still open.
    rows, row_bits, caps, terms, mzps, exps, limits = [], [], [], [], [], [], []
    floors = (0, 0.0, 0.0) if errors else None
    for i, z_sq in enumerate(z_sqs):
        z = math.sqrt(z_sq)
        b = required_bits(z) if bits is None else bits
        if b > MAX_PRECISION_BITS:
            raise PrecisionExhaustedError(f"z = {z:g} needs {b} bits > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
        zp, zq = z_sq.as_integer_ratio()
        if not zp:  # t_1 = 0: every sum is exact at t_0
            yield i, b, 0, 0, floors, [((1 << b) * (v[0] if v else 1), 1, None, v) for v in values]
            continue
        rows.append(i)
        row_bits.append(b)
        caps.append(default_max_terms(z))
        terms.append(1 << b)
        mzps.append(-zp)
        exps.append(zq.bit_length() - 1)
        limits.append(b + 2 * _GUARD_BITS)
    shifts, rescales, peaks = [0] * len(rows), [0] * len(rows), terms.copy()
    sums, stops = [], []
    for v in values:
        sums.append(terms.copy() if v is None else list(map(operator.mul, terms, repeat(v[0]))))
        stops.append([None] * len(rows))
    opens = [len(weights)] * len(rows)
    active = range(len(weights))  # the weights some live row still sums
    rising = True  # until a checkpoint of every live row bounds its later term ratios below 1
    extended = False  # a weight's memo list grew
    known = 0  # every weight's memo list holds W(0) .. W(known - 1)

    k = 0  # term steps taken: the walk holds t_0 .. t_k of every live row
    while rows:
        if k == end:  # the next term is 0: every live sum is exact
            for r in range(len(rows)):
                yield rows[r], row_bits[r], shifts[r], rescales[r], floors, [
                    stop[r] or (s[r], k + 1, None, v) for stop, s, v in zip(stops, sums, values)]
            break
        cap = min(caps)
        if k >= cap:
            z = math.sqrt(z_sqs[rows[caps.index(cap)]])
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        first = k
        last = min(first - first % _CHUNK + _CHUNK, cap, end)
        if len(ratio_nums) < last:
            ratio_nums += _products(num_scale, nums, len(ratio_nums), last)
            ratio_dens += _products(den_scale, dens, len(ratio_dens), last)
        if known < last + 2:
            for factors, vals in zip(weights, values):
                if vals is not None and len(vals) < last + 2:
                    vals += _products(1, factors, len(vals), last + 2)
                    extended = True
            known = last + 2
        # A step ends its chunk at a row's first zero term (every later one is 0
        # too) or at a term to rescale: the sums add it, then the unit coarsens.
        if len(rows) == 1:  # one row: the plain step
            term, mzp, zq, limit = terms[0], mzps[0], 1 << exps[0], limits[0]
            chunk = []
            if floors is not None and rising:  # and the floor errors, step by step, until the turn
                _, e, f = floors
                for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
                    x, y = num * mzp, den * zq
                    term = term * x // y
                    chunk.append(term)
                    try:
                        e = e * abs(x / y) + 1.0
                    except OverflowError:  # a term ratio beyond the doubles
                        e = math.inf
                    f += e
                    if not term or term.bit_length() > limit:
                        break
                floors = (first + len(chunk), e, f)
            else:
                for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
                    term = term * (num * mzp) // (den * zq)
                    chunk.append(term)
                    if term.bit_length() > limit:
                        break
                if not term:
                    del chunk[chunk.index(0) + 1 :]
            k = first + len(chunk)
            terms[0] = term
            for w in active:
                vals = values[w]
                sums[w][0] += sum(chunk if vals is None else map(operator.mul, chunk, vals[first + 1 : k + 1]))
        else:  # the rows in lockstep: each term step is one builtin pass over them
            # The chunk is tested once, on its terms and peaks (past every row's
            # turn no term outgrows its limit), and stepped again, testing each
            # step, only where a row's term hit 0 or outgrew its limit.
            start, checking = terms, False
            while True:
                cols, terms = [], start  # the chunk's terms, a list per step
                for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
                    terms = list(map(operator.rshift, map(operator.floordiv, map(
                        operator.mul, map(operator.mul, terms, mzps), repeat(num)), repeat(den)), exps))
                    cols.append(terms)
                    if checking and (not all(terms) or any(map(operator.gt, map(int.bit_length, terms), limits))):
                        break
                if rising:  # a row past its turn keeps its peak, so every row may take the max
                    chunk_peaks = list(map(max, peaks, *[map(abs, col) for col in cols]))
                if checking or all(map(all, cols)) and not (
                    rising and any(map(operator.gt, map(int.bit_length, chunk_peaks), limits))
                ):
                    break
                checking = True
            if rising:
                peaks = chunk_peaks
            k = first + len(cols)
            for w in active:  # each row adds the chunk to each sum with one builtin sum
                vals = values[w]
                if vals is not None:
                    cols_w = map(map, repeat(operator.mul), cols, map(repeat, vals[first + 1 : k + 1]))
                sums[w] = list(map(sum, zip(sums[w], *(cols if vals is None else cols_w))))

        # The checkpoints at k: every row's at a multiple of _CHUNK, at the series'
        # end or if it walks alone, else those of the rows whose term is 0, is to
        # rescale or reached its cap.
        every = len(rows) == 1 or k % _CHUNK == 0 or k == end
        test = k_min <= k != end
        if test:
            ma_k = -_at(a_scale, a_factors, k)
            b_k = _at(b_scale, b_factors, k)
            at_k = None  # per weight: W(k), W(k+1) and the part of the bit-length test they share
        done = False  # a row's last sum stops here
        turned = every  # and every live row is past its turn
        for r, term in enumerate(terms):
            t_bits = term.bit_length()
            if not (every or not term or t_bits > limits[r] or caps[r] == k):
                continue
            cut = t_bits - row_bits[r] - _GUARD_BITS
            if cut > _GUARD_BITS:  # a unit 2^cut times coarser
                shifts[r] += cut
                rescales[r] += 1
                terms[r] = term = term >> cut
                t_bits = term.bit_length()
                peaks[r] >>= cut
                for s in sums:
                    s[r] >>= cut
                if floors is not None:  # the term's floor and each sum's add a unit each
                    e, f = _floors_at(floors, k)
                    floors = (k, math.ldexp(e, -cut) + 1.0, math.ldexp(f, -cut) + 1.0)
            if not test:
                turned = False
                continue
            # every later base ratio |t_{j+1}/t_j|, j >= k, is at most p0/q0
            p0 = mzps[r] * ma_k
            q0 = b_k << exps[r]
            if p0 >= q0:
                turned = False
                continue
            if at_k is None:
                at_k = [(1, 1, reject_bits) if v is None else (v[k], v[k + 1], v[k].bit_length() + reject_bits) for v in values]
            for stop, s, v, (wk, wk1, shared_bits) in zip(stops, sums, values, at_k):
                if stop[r] is not None:
                    continue
                p = p0 * wk1
                d = q0 * wk - p
                if d <= 0:  # this sum's terms t_j W(j) may still rise
                    continue
                total = s[r]
                if term and t_bits + shared_bits + p.bit_length() >= total.bit_length() + d.bit_length():
                    continue
                mag = abs(term) * wk
                if mag * p * tol_q <= tol_p * abs(total) * d:
                    stop[r] = (total, k + 1, (mag, p, d), v)
                    opens[r] -= 1
            if not opens[r]:
                done = True
                yield rows[r], row_bits[r], shifts[r], rescales[r], floors, [stop[r] for stop in stops]
        if turned:
            rising = False
        if done:  # the rows whose last sum stopped leave
            if not any(opens):
                break
            keep = opens
            rows, row_bits, shifts, rescales, caps, terms, mzps, exps, limits, peaks, opens = (
                list(compress(col, keep))
                for col in (rows, row_bits, shifts, rescales, caps, terms, mzps, exps, limits, peaks, opens)
            )
            sums, stops = ([list(compress(col, keep)) for col in cols] for cols in (sums, stops))
            active = [w for w in active if None in stops[w]]

    # one assignment each: readers see the old memo or the new one
    if len(ratio_nums) > len(base._ratios[0]):
        object.__setattr__(base, "_ratios", (ratio_nums, ratio_dens))
    if extended:
        memo = base._weights
        grown = {f: v for f, v in zip(weights, values) if v and len(v) > len(memo.get(f, ()))}
        object.__setattr__(base, "_weights", {**memo, **grown})


def _floors_at(floors: tuple, k: int) -> tuple:
    """(e, f) at step k of a one-row walk's floor-error state (k_s, e, f), k >= k_s.

    In units, e bounds the error of the walk's t_k and f the sum of those
    bounds over t_1 .. t_k, with the sums' rescale floors.  The walk steps
    them up to k_s, its turn or last rescale; past the turn every term ratio
    is below 1, so each step adds at most one unit to e.
    """
    k_s, e, f = floors
    n = k - k_s
    if n:
        f += n * e + n * (n + 1) / 2
        e += n
    return e, f


def _result(bits: int, shift: int, floors: tuple, st: tuple) -> tuple:
    """(value, abs_error_estimate, terms_used) of one sum of a row of ``_walk``."""
    total, terms, stop, values = st
    scale = (1 if values is None else values[0]) << bits
    exact = total << shift
    value = exact / scale  # int / int: one correct rounding to double
    e, f = _floors_at(floors, terms - 1)
    # e and f took under 20 roundings to nearest per term, each of a positive
    # quantity by a factor within 1 +- 2^-53: the slack covers them
    slack = 1.0 + terms * 2.0**-46
    e, f = e * slack, f * slack
    if not f < math.inf:
        return value, math.inf, terms
    w = 1 if values is None else values[terms - 1]  # W(N) >= W(j) for every j <= N
    fp, fq = f.as_integer_ratio()
    num, den = fp * w, fq * scale  # every term's floor errors, f W(N) units
    if stop is not None:  # the tail, (|t_N W(N)| + e W(N)) P / (Q - P)
        mag, p, d = stop
        ep, eq = e.as_integer_ratio()
        num = num * eq * d + (mag * eq + ep * w) * p * fq
        den *= eq * d
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
    term and each live sum are shifted right until the term is bits + G bits
    wide, and the shift grows by as much.  Past the turn (rho < 1 for the
    base) no term is wider than the one before it, so no rescale comes.

    ``contiguous_values`` runs the same walk for a block of arguments in
    lockstep: a term step is one ``map`` pass over the rows still live, and a
    chunk ends where any row has a checkpoint, but a row runs the stop test
    and the rescale only at its own checkpoints and leaves the block once its
    last sum stops, so it gets the integers of its walk alone.  The block
    tests a chunk once, on its terms and peaks, and steps it again, testing
    each step, only where a row's term hit 0 or outgrew its limit.

    ``abs_error_estimate`` is the certified tail plus rounding.  A term step
    floors below one unit, and later steps scale that error with the terms,
    by |t_k / t_j| from step j to step k: a floor made at a term far below
    t_0 grows with the terms that rise after it.  So the walk carries e_k,
    a bound on the error of t_k in units, with e_k = e_{k-1} |t_k / t_{k-1}|
    + 1 (in doubles, the ratio rounded from its exact integers) and their sum
    f, up to the turn; past it every ratio is below 1, so each step adds at
    most one unit to e.  A rescale by 2^-cut takes e to e 2^-cut + 1 and f to
    f 2^-cut + 1, the floors of the term and of each live sum.  The estimate
    charges f W(N) units for the terms, N = terms_used - 1 (W is
    nondecreasing), and the tail (|t_N W(N)| + e_N W(N)) P / (Q - P); the
    doubles' roundings stay within a slack of 1 + terms_used 2^-46 on e and
    f.  Last comes the exact error of the rounding to double, and the sum of
    the parts rounds up.

    Raises ``PrecisionExhaustedError`` when the required precision exceeds
    ``MAX_PRECISION_BITS`` or the term budget ``default_max_terms`` runs out.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    check_target_rel_err(target_rel_err)
    if bits is not None and (not isinstance(bits, int) or bits < DOUBLE_BITS):
        raise ValueError(f"bits must be an integer >= {DOUBLE_BITS}, got {bits!r}")
    ((_, bits, shift, _, floors, sums),) = _walk(base, weights, (z_sq,), target_rel_err, bits, True)
    return [EvalResult(*_result(bits, shift, floors, st), bits) for st in sums]


def contiguous_values(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sqs: Sequence[float], target_rel_err: float
) -> List[List[float]]:
    """The values alone of ``eval_contiguous`` at each z_sq of ``z_sqs``, from
    one lockstep walk, for a caller that has checked every z_sq and
    target_rel_err.  Each row equals the row of a walk at its z_sq alone."""
    w0s = [_at(1, factors, 0) for factors in weights]
    rows = [None] * len(z_sqs)
    for i, bits, shift, _, _, sums in _walk(base, weights, z_sqs, target_rel_err, None):
        rows[i] = [(st[0] << shift) / (w0 << bits) for st, w0 in zip(sums, w0s)]
    return rows


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

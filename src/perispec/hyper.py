"""Generalized hypergeometric series pFq at negative real argument -z^2.

For p <= q these series are entire, but at large z they are dominated by
catastrophic cancellation: the terms peak near e^(2z) while the sum is O(1).
So they are summed in binary fixed point, every term an integer count of
one unit, 2^-bits at first (``required_bits``).  Parameters and z^2 are
doubles, hence exact dyadic rationals: a term step is one integer multiply and
one floor division (error below one unit) by the term ratio, kept in lowest
terms as a floor depends on the rational ratio alone; the stop test is an
exact integer comparison, and each sum is rounded to double once.  Its error
estimate is certified: a geometric bound on the omitted tail, the floor
errors, and the rounding to double.  Floor errors reach a term amplified to
about |t_k| 2^-bits, so its low bits carry nothing: once the terms outgrow
bits by 2 ``_GUARD_BITS``, the walk coarsens its unit, and no integer in it
gets much wider than that, where the peak terms would otherwise be 2 bits wide.

``eval_contiguous`` walks the terms t_k of a base series once and sums
t_k W(k) / W(0) for each weight the caller states, W(k) a product of integer
linear factors: with t_k the term of 2F3(1, a; 2, b+1, a+1), the
3F4(1, 5/2, a; 2, 3/2, b+1, a+1) term is t_k (2k+3)/3 and the 1F2(a; b, a+1)
term is t_k (k+1)(b+k)/b.  ``eval_pfq`` is its one-weight case, W = 1.  There
are two walks, which share one stop test (``_stops``) and the state of one
call (``_Walk``).  A single point walks alone, its state in scalar locals
(``_row_walk``): the only walk that coarsens its unit, it carries the
floor-error bound the estimate needs.
``contiguous_values`` gives the values alone at many arguments and picks each
one's walk: rows at z <= ``RESCALE_FREE_Z`` (44.36), where no walk coarsens,
go in lockstep blocks (``_block_walk``: a term step is one builtin ``map`` pass
over the live rows, and each row keeps its own checkpoints, so its integers
are those of its walk alone), and every other row walks alone.  Each call
memoises the z-independent term ratios and weight values up to the highest
term any of its sums reached; a series keeps no state after it is built.
``eval_pfq_float64`` is the deliberately naive double-precision summation
kept to demonstrate (and regression-test) why the fixed-point path exists.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import compress, groupby, repeat
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

#: Terms bounded by e^(2z), as the eigenvalue series' are, never reach the coarsening
#: width while 2 z log2(e) <= 2 _GUARD_BITS: a walk at z up to this (44.36) never rescales.
RESCALE_FREE_Z = _GUARD_BITS / _LOG2_E

#: Rows ``contiguous_values`` walks in lockstep: enough to spread the interpreter's
#: work per term step, few enough to keep the walk's state small.
_BLOCK_ROWS = 48

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
    keeps its term ratios' integer factors, in lowest structural terms (no
    factor on both sides, coprime scales), and the z-independent parts of its
    tail bound; no evaluation changes it.
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
        # Every double is a dyadic rational p/q, so a + k = (p + k q)/q exactly.  A factor on
        # both sides (a numerator 1 against the (k+1) of k!) cancels from every ratio, and
        # the scales' gcd from both: a floor depends on the ratio alone.
        int_nums = list(map(float.as_integer_ratio, nums))
        int_dens = list(map(float.as_integer_ratio, dens)) + [(1, 1)]
        for pq in int_nums.copy():
            if pq in int_dens:
                int_nums.remove(pq)
                int_dens.remove(pq)
        num_scale, den_scale = math.prod(map(itemgetter(1), int_dens)), math.prod(map(itemgetter(1), int_nums))
        g = math.gcd(num_scale, den_scale)
        # Set in the instance dict, as the fields are frozen.
        vars(self).update(numerator_params=nums, denominator_params=dens)
        vars(self)["_integer_params"] = (tuple(int_nums), tuple(int_dens), num_scale // g, den_scale // g)
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


class _Walk:
    """The state of one ``eval_contiguous`` or ``contiguous_values`` call, which
    all its rows share: the base and weights, the stop's budget target_rel_err
    / 2^_BUDGET_SHIFT as tol_p / tol_q, and the memos: per weight [W(0), W(1),
    ...] (None for W = 1) and the term ratios [num_k], [den_k], t_{k+1}/t_k =
    -z_sq num_k / den_k.  With each parameter a = p/q exactly, num_k = prod q_b
    prod(p_a + k q_a) and den_k = prod q_a (k+1) prod(p_b + k q_b), less the
    factors on both sides and the scales' gcd."""

    def __init__(self, base: HypergeometricSeries, weights: Sequence[tuple], target_rel_err: float):
        self.base, self.weights = base, weights
        self.tol_p, tol_q = target_rel_err.as_integer_ratio()
        self.tol_q = tol_q << _BUDGET_SHIFT
        # |t W| P tol_q > tol_p |S| (Q - P) holds whenever a bit-length sum reaches this
        self.reject_bits = self.tol_q.bit_length() - self.tol_p.bit_length() - 4
        self.nums, self.dens = [], []
        self.values = [[_at(1, f, 0)] if f else None for f in weights]

    def grow(self, last: int) -> None:
        """Extend the memos to num_k, den_k for k < last and W(k) for k < last + 2."""
        have = len(self.dens)
        if have < last:
            nums, dens, num_scale, den_scale = self.base._integer_params
            self.nums += _products(num_scale, nums, have, last)
            self.dens += _products(den_scale, dens, have, last)
        for factors, vals in zip(self.weights, self.values):
            if vals is not None and len(vals) < last + 2:
                vals += _products(1, factors, len(vals), last + 2)

    def checkpoint(self, k: int) -> tuple:
        """What the stop tests at step k share: A_k and B_k (``_tail_bound``),
        tol_p, tol_q and per weight W(k), W(k+1) and the bits that W(k) and
        the budget add to the bit-length pre-test."""
        _, _, a_scale, a_factors, b_scale, b_factors = self.base._tail
        shared = self.reject_bits
        return _at(a_scale, a_factors, k), _at(b_scale, b_factors, k), self.tol_p, self.tol_q, [
            (1, 1, shared) if v is None else (v[k], v[k + 1], v[k].bit_length() + shared) for v in self.values
        ]


def _stops(at_k: tuple, zp: int, exp: int, term: int, totals: list) -> Optional[list]:
    """The stop test of both walks at a checkpoint ``at_k`` (``_Walk.checkpoint``)
    of a row at z_sq = zp / 2^exp with base term ``term``: None while its
    terms may still rise, else per sum S of ``totals`` (None where it has
    stopped) its stop (|t_k W(k)|, P, Q - P), or None where the tail bound is
    not yet within the budget.
    """
    a_k, b_k, tol_p, tol_q, at_w = at_k
    # every later base ratio |t_{j+1}/t_j|, j >= k, is at most p0/q0
    p0 = zp * a_k
    q0 = b_k << exp
    if p0 >= q0:
        return None
    t_bits = term.bit_length()
    found = []
    for total, (wk, wk1, shared_bits) in zip(totals, at_w):
        stop = None
        if total is not None:
            p = p0 * wk1
            d = q0 * wk - p  # d <= 0: this sum's terms t_j W(j) may still rise
            if d > 0 and not (term and t_bits + shared_bits + p.bit_length() >= total.bit_length() + d.bit_length()):
                mag = abs(term) * wk
                if mag * p * tol_q <= tol_p * abs(total) * d:
                    stop = (mag, p, d)
        found.append(stop)
    return found


def _row_walk(walk: _Walk, z_sq: float, bits: Optional[int]) -> tuple:
    """``eval_contiguous``'s walk, without its argument checks: (bits, shift,
    floors, sums), the final unit 2^(shift - bits), the floor-error state
    (k_s, e, f) and per weight (S, terms used, the stop of ``_stops`` or None
    if the series ended, the W memo values or None for W = 1).  Every sum
    ends at the final unit: it stops only past the turn, where no rescale comes.
    """
    z = math.sqrt(z_sq)
    bits = required_bits(z) if bits is None else bits
    if bits > MAX_PRECISION_BITS:
        raise PrecisionExhaustedError(f"z = {z:g} needs {bits} bits > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
    cap = default_max_terms(z)
    k_min, end = walk.base._tail[:2]
    ratio_nums, ratio_dens, values = walk.nums, walk.dens, walk.values
    zp, zq = z_sq.as_integer_ratio()
    if not zp:  # t_1 = 0: every sum is exact at t_0
        end = 0
    mzp, exp = -zp, zq.bit_length() - 1
    limit = bits + 2 * _GUARD_BITS
    term = 1 << bits
    totals = [term if v is None else term * v[0] for v in values]  # each None once its sum stops
    sums = [None] * len(values)
    shift = k_s = 0
    e = f = 0.0  # in units: bounds on the error of t_k and on the sum of those, as of step k_s
    rising = True  # until a checkpoint bounds every later term ratio below 1
    k = 0  # term steps taken: the walk holds t_0 .. t_k
    while None in sums:
        if k == end:  # the next term is 0: every open sum is exact
            sums = [st or (s, k + 1, None, v) for st, s, v in zip(sums, totals, values)]
            break
        if k >= cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        first = k
        last = min(first - first % _CHUNK + _CHUNK, cap, end)
        walk.grow(last)
        chunk = []
        for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
            x, y = num * mzp, den * zq
            term = term * x // y
            chunk.append(term)
            if rising:  # the floor errors, step by step
                try:
                    e = e * abs(x / y) + 1.0
                except OverflowError:  # a term ratio beyond the doubles
                    e = math.inf
                f += e
            if not term or term.bit_length() > limit:  # a zero term (so is every later one) or a term to rescale
                break
        k = first + len(chunk)
        if rising:
            k_s = k
        for w, s in enumerate(totals):
            if s is not None:
                vals = values[w]
                totals[w] = s + sum(chunk if vals is None else map(operator.mul, chunk, vals[first + 1 : k + 1]))
        cut = term.bit_length() - bits - _GUARD_BITS
        if cut > _GUARD_BITS:  # a unit 2^cut times coarser: only before the turn, so k_s = k and every sum is open
            shift += cut
            term >>= cut
            totals = [s >> cut for s in totals]
            e, f = math.ldexp(e, -cut) + 1.0, math.ldexp(f, -cut) + 1.0  # the floors of the term and of each sum
        if k < k_min or k == end:
            continue
        found = _stops(walk.checkpoint(k), zp, exp, term, totals)
        if found is not None:
            rising = False
            for w, stop in enumerate(found):
                if stop:
                    sums[w] = (totals[w], k + 1, stop, values[w])
                    totals[w] = None
    return bits, shift, (k_s, e, f), sums


def _block_walk(walk: _Walk, z_sqs: Sequence[float]) -> Iterator[tuple]:
    """``_row_walk`` in lockstep at each z_sq of a block, every one at most
    ``RESCALE_FREE_Z``^2: yields (i, bits, sums) for the i-th once its last sum
    stops.  No row coarsens its unit, so a row's checkpoints are the multiples
    of ``_CHUNK``, the cap (``MIN_TERM_CAP`` at every such z) and its steps from
    its first zero term on: a chunk ends at any row's first zero term, and only
    the rows at a zero term test their stop there.
    """
    k_min, end = walk.base._tail[:2]
    ratio_nums, ratio_dens, values = walk.nums, walk.dens, walk.values
    # Per live row: the index i of z_sq, its bits, t_k, -zp and log2 zq (z_sq = zp / zq);
    # per weight and row the sum and the stop, None until it stops; the count of sums open.
    rows, row_bits, terms, mzps, exps = [], [], [], [], []
    for i, z_sq in enumerate(z_sqs):
        b = required_bits(math.sqrt(z_sq))
        zp, zq = z_sq.as_integer_ratio()
        if not zp:  # t_1 = 0: every sum is exact at t_0
            yield i, b, [((1 << b) * (v[0] if v else 1), 1, None, v) for v in values]
            continue
        rows.append(i)
        row_bits.append(b)
        terms.append(1 << b)
        mzps.append(-zp)
        exps.append(zq.bit_length() - 1)
    sums = [terms.copy() if v is None else list(map(operator.mul, terms, repeat(v[0]))) for v in values]
    stops = [[None] * len(rows) for _ in values]
    opens = [len(values)] * len(rows)
    active = range(len(values))  # the weights some live row still sums
    cap = default_max_terms(RESCALE_FREE_Z)
    k = 0  # term steps taken: the walk holds t_0 .. t_k of every live row
    while rows:
        if k == end:  # the next term is 0: every live sum is exact
            for r, i in enumerate(rows):
                yield i, row_bits[r], [stop[r] or (s[r], k + 1, None, v) for stop, s, v in zip(stops, sums, values)]
            break
        if k >= cap:
            z = math.sqrt(z_sqs[rows[0]])
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        first = k
        last = min(first - first % _CHUNK + _CHUNK, cap, end)
        walk.grow(last)
        cols = []  # the chunk's terms, a list per step
        for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
            terms = list(map(operator.rshift, map(operator.floordiv, map(
                operator.mul, map(operator.mul, terms, mzps), repeat(num)), repeat(den)), exps))
            cols.append(terms)
        if not all(map(all, cols)):  # a row's first zero term ends the chunk
            del cols[next(j for j, col in enumerate(cols) if not all(col)) + 1 :]
            terms = cols[-1]
        k = first + len(cols)
        for w in active:  # each row adds the chunk to each sum with one builtin sum
            vals = values[w]
            if vals is not None:
                cols_w = map(map, repeat(operator.mul), cols, map(repeat, vals[first + 1 : k + 1]))
            sums[w] = list(map(sum, zip(sums[w], *(cols if vals is None else cols_w))))
        if k < k_min or k == end:
            continue
        every = k % _CHUNK == 0 or k == cap
        at_k = walk.checkpoint(k)
        done = False  # a row's last sum stops here
        for r, term in enumerate(terms):
            if not (every or not term):
                continue
            totals = [None if stop[r] else s[r] for stop, s in zip(stops, sums)]
            found = _stops(at_k, -mzps[r], exps[r], term, totals)
            for stop, total, new, v in zip(stops, totals, found or (), values):
                if new:
                    stop[r] = (total, k + 1, new, v)
                    opens[r] -= 1
            if not opens[r]:
                done = True
                yield rows[r], row_bits[r], [stop[r] for stop in stops]
        if done:  # the rows whose last sum stopped leave
            if not any(opens):
                break
            keep = opens
            rows, row_bits, terms, mzps, exps, opens = (
                list(compress(col, keep)) for col in (rows, row_bits, terms, mzps, exps, opens)
            )
            sums, stops = ([list(compress(col, keep)) for col in cols] for cols in (sums, stops))
            active = [w for w in active if None in stops[w]]


def _result(bits: int, shift: int, floors: tuple, st: tuple) -> tuple:
    """(value, abs_error_estimate, terms_used) of one sum of ``_row_walk``."""
    total, terms, stop, values = st
    scale = (1 if values is None else values[0]) << bits
    exact = total << shift
    value = exact / scale  # int / int: one correct rounding to double
    k_s, e, f = floors
    n = terms - 1 - k_s
    if n:  # past the turn every term ratio is below 1: each step adds at most one unit to e
        f += n * e + n * (n + 1) / 2
        e += n
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
    ``_GUARD_BITS``, ends its chunk; once the open sums have added it, the
    term and each open sum are shifted right until the term is bits + G bits
    wide, and the shift grows by as much.  Past the turn (rho < 1 for the
    base) no term is wider than the one before it, so no rescale comes.  The
    walk keeps its state in scalar locals, one per quantity and weight.

    ``contiguous_values`` picks the walk of each of many arguments: it walks
    those at z <= ``RESCALE_FREE_Z`` in lockstep blocks, where no rescale
    comes, and a chunk ends at any row's first zero term, but each row tests
    its stop only at its own checkpoints; every other argument walks alone.

    ``abs_error_estimate`` is the certified tail plus rounding.  A term step
    floors below one unit, and later steps scale that error with the terms,
    by |t_k / t_j| from step j to step k: a floor made at a term far below
    t_0 grows with the terms that rise after it.  So the walk carries e_k,
    a bound on the error of t_k in units, with e_k = e_{k-1} |t_k / t_{k-1}|
    + 1 (in doubles, the ratio rounded from its exact integers) and their sum
    f, up to the turn; past it every ratio is below 1, so each step adds at
    most one unit to e.  A rescale by 2^-cut takes e to e 2^-cut + 1 and f to
    f 2^-cut + 1, the floors of the term and of each open sum.  The estimate
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
    bits, shift, floors, sums = _row_walk(_Walk(base, weights, target_rel_err), z_sq, bits)
    return [EvalResult(*_result(bits, shift, floors, st), bits) for st in sums]


def contiguous_values(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sqs: Sequence[float], target_rel_err: float
) -> Iterator[List[float]]:
    """The values alone of ``eval_contiguous`` at each z_sq of ``z_sqs``, yielded
    in their order, for a caller that has checked every z_sq and target_rel_err.
    Each run of arguments at z <= ``RESCALE_FREE_Z`` goes in lockstep blocks of
    ``_BLOCK_ROWS``, and every other argument walks alone, without the error
    arithmetic of ``_result``; a lone row is walked once the rows before it are
    yielded, so the first row that fails raises first.  Each row equals the row
    of a walk at its z_sq alone, for a base whose terms stay below e^(2z), as
    the eigenvalue series' do: the block walk does not coarsen its unit."""
    w0s = [_at(1, factors, 0) for factors in weights]
    walk = _Walk(base, weights, target_rel_err)
    for small, run in groupby(z_sqs, lambda z_sq: z_sq <= RESCALE_FREE_Z**2):
        if not small:
            for z_sq in run:
                bits, shift, _, sums = _row_walk(walk, z_sq, None)
                yield [(st[0] << shift) / (w0 << bits) for st, w0 in zip(sums, w0s)]
            continue
        run = list(run)
        for start in range(0, len(run), _BLOCK_ROWS):
            block = run[start : start + _BLOCK_ROWS]
            rows = [None] * len(block)
            for i, bits, sums in _block_walk(walk, block):
                rows[i] = [st[0] / (w0 << bits) for st, w0 in zip(sums, w0s)]
            yield from rows


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

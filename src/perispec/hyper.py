"""Generalized hypergeometric series pFq at negative real argument -z^2.

For p <= q these series are entire, but at large z they are dominated by
catastrophic cancellation: the terms peak near e^(2z) while the sum is O(1).
So they are summed in binary fixed point, each term an integer count of a unit
near 2^-bits of t_0 (``required_bits``).  Parameters and z^2 are doubles, hence
exact dyadic rationals: a term step is one integer multiply and one floor division
(error below one unit) by the term ratio, kept in lowest terms; the stop test is
exact, and each sum is rounded to double once, with a certified error estimate.

``eval_contiguous`` walks the terms t_k of a base series once and sums
t_k W(k) / W(0) for each weight, W(k) a product of integer linear factors: with
t_k the term of 2F3(1, a; 2, b+1, a+1), the 3F4(1, 5/2, a; 2, 3/2, b+1, a+1)
term is t_k (2k+3)/3 and the 1F2(a; b, a+1) term is t_k (k+1)(b+k)/b.
``eval_pfq`` is its one-weight case.  Two walks share one stop test
(``_stops``) and the state of one call (``_Walk``).  A single point walks
alone (``_row_walk``) outward from its anchor, the first term past which the
tail bound holds every ratio below 1: back to t_0 and on to the stop, the
recurrence's stable directions (Gautschi, SIAM Rev. 9, 1967), so no term
outgrows the anchor by much and no floor error grows with the rise.
``contiguous_values`` gives the values alone at many arguments: rows at z <=
``RESCALE_FREE_Z`` go in lockstep blocks from t_0 (``_block_walk``, one builtin
``map`` pass over the live rows per term step), and every other row walks alone.
A call memoises the term ratios and weights it reaches; a series keeps none.
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

#: Bits the lone walk's anchor may carry past ``bits``: t_0 gets about 2^bits
#: while |t_K / t_0| <= 2^_GUARD_BITS, and fewer bits past it.
_GUARD_BITS = 64

_LOG2_E = math.log2(math.e)

#: Terms bounded by e^(2z), as the eigenvalue series' are, stay within bits + 2 _GUARD_BITS
#: from t_0 = 2^bits while 2 z log2(e) <= 2 _GUARD_BITS: blocks walk up to this z (44.36).
RESCALE_FREE_Z = _GUARD_BITS / _LOG2_E

#: Rows ``contiguous_values`` walks in lockstep: enough to spread the interpreter's
#: work per term step, few enough to keep the walk's state small.
_BLOCK_ROWS = 48

_REL_ERR_RANGE = (1e-15, 1e-2)


class InvalidSeriesError(ValueError):
    """Series parameters violate the pFq preconditions."""


class PrecisionExhaustedError(ArithmeticError):
    """Evaluation would exceed the configured precision or term budget."""


def check_precision(z: float, bits: Optional[int] = None) -> int:
    """``bits``, by default ``required_bits(z)``, or ``PrecisionExhaustedError`` naming z past
    ``MAX_PRECISION_BITS``: callers check z before squaring it, as z^2 overflows far past it."""
    if bits is None and not z < 2.0**40:  # far past the ceiling, where the count is unreadable
        raise PrecisionExhaustedError(f"z = {z:g} needs more than MAX_PRECISION_BITS = {MAX_PRECISION_BITS} bits")
    bits = required_bits(z) if bits is None else bits
    if bits > MAX_PRECISION_BITS:
        raise PrecisionExhaustedError(f"z = {z:g} needs {bits} bits > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
    return bits


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


def _anchor(tail: tuple, zp: int, exp: int, guess: int, limit: int) -> int:
    """The first step k in [k_min, limit] at which ``_stops`` bounds every later
    base ratio below 1, z_sq A_k < B_k with z_sq = zp / 2^exp, else limit + 1.
    Past k_min, A_k / B_k falls as k grows: a search out from ``guess`` finds it."""
    k_min, _, a_scale, a_factors, b_scale, b_factors = tail
    lo, hi = k_min - 1, limit + 1  # not below 1 at lo; below 1 at hi, as far as the walk needs
    k, step = min(max(guess, k_min), limit), 1
    while lo + 1 < hi:
        if zp * _at(a_scale, a_factors, k) < _at(b_scale, b_factors, k) << exp:
            hi, k = k, k - step
        else:
            lo, k = k, k + step
        step *= 2
        if not lo < k < hi:
            k, step = (lo + hi) // 2, 0  # bisect from here on
    return hi


def _row_walk(walk: _Walk, z_sq: float, bits: Optional[int]) -> tuple:
    """``eval_contiguous``'s walk, without its argument checks: (bits, t0, (K, e, f),
    sums), each value S / (t0 W(0)), the floor-error bounds of the walk back from
    the anchor K, and per weight (S, terms used, the stop of ``_stops`` or None
    if the series ended, the W memo values or None for W = 1)."""
    z = math.sqrt(z_sq)
    bits = check_precision(z, bits)
    cap = default_max_terms(z)
    tail = walk.base._tail
    zp, zq = z_sq.as_integer_ratio()
    end = tail[1] if zp else 0  # at z_sq = 0, t_1 = 0: every sum is exact at t_0
    mzp, exp = -zp, zq.bit_length() - 1
    rest = len(tail[5]) - len(tail[3])  # the ratio bound falls as z_sq / k^rest
    anchor = _anchor(tail, zp, exp, int(z_sq ** (1.0 / rest)), min(cap, end))
    if anchor > min(cap, end):  # no ratio bound below 1 by the cap or the last term
        if end > cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        anchor = end
    # one growth for the anchor and, for the eigenvalue series, every checkpoint (~ e z)
    walk.grow(min(cap, end, (max(anchor, math.ceil(2.75 * z) + 5) // _CHUNK + 1) * _CHUNK))
    ratio_nums, ratio_dens, values = walk.nums, walk.dens, walk.values
    lift = 1.0  # |t_k / t_0| up to k = K, or to the first k past 2^_GUARD_BITS
    for k in range(anchor):
        try:
            lift *= abs(ratio_nums[k] / ratio_dens[k]) * z_sq
        except OverflowError:  # a term ratio beyond the doubles
            lift = math.inf
        if not lift < 2.0**_GUARD_BITS:
            break
    # t_K, exact: t_0 gets about the unit 2^-bits while |t_K / t_0| <= 2^_GUARD_BITS
    top = 1 << bits + (0 if lift <= 1.0 else math.ceil(math.log2(lift)) if lift < 2.0**_GUARD_BITS else _GUARD_BITS)
    term, totals = top, [0] * len(values)
    e = f = 0.0  # in units: bounds on the error of t_j and on the sum of those of t_j .. t_{K-1}
    j = hi = anchor  # the walk holds t_j .. t_K
    while hi:  # back to t_0, one chunk [lo, hi) at a time
        lo = (hi - 1) // _CHUNK * _CHUNK
        chunk = []
        for num, den in zip(reversed(ratio_nums[lo:hi]), reversed(ratio_dens[lo:hi])):
            x, y = num * mzp, den * zq
            term = term * y // x
            chunk.append(term)
            if abs(x) < abs(y):  # a ratio below 1: the step back amplifies the error of t_{i+1}
                i = hi - len(chunk)
                n = j - i - 1  # the steps since t_j, each adding at most one unit
                f += n * e + n * (n + 1) / 2
                try:
                    e = (e + n) * abs(y / x) + 1.0
                except OverflowError:  # a term ratio beyond the doubles
                    e = math.inf
                f += e
                j = i
        chunk.reverse()
        for w, vals in enumerate(values):
            totals[w] += sum(chunk if vals is None else map(operator.mul, chunk, vals[lo:hi]))
        hi = lo
    f, e = f + j * e + j * (j + 1) / 2, e + j  # the steps from t_j back to t_0
    if not term:
        raise PrecisionExhaustedError(f"bits = {bits} leave t_0 no bits at z = {z:g}")
    t0, term = term, top
    totals = [s + term * (1 if v is None else v[anchor]) for s, v in zip(totals, values)]  # each None once its sum stops
    sums = [None] * len(values)
    k = anchor  # term steps taken: the walk holds t_K .. t_k
    while None in sums:
        if k == end:  # the next term is 0: every open sum is exact
            sums = [st or (s, k + 1, None, v) for st, s, v in zip(sums, totals, values)]
            break
        if k >= cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        first = k
        last = min(first - first % _CHUNK + _CHUNK, cap, end)
        if last > len(ratio_dens):  # past the first growth: two chunks more
            walk.grow(min(cap, end, last + _CHUNK))
        chunk = []
        for num, den in zip(ratio_nums[first:last], ratio_dens[first:last]):
            term = term * (num * mzp) // (den * zq)
            chunk.append(term)
            if not term:  # a zero term: so is every later one
                break
        k = first + len(chunk)
        for w, s in enumerate(totals):
            if s is not None:
                vals = values[w]
                totals[w] = s + sum(chunk if vals is None else map(operator.mul, chunk, vals[first + 1 : k + 1]))
        if k == end:
            continue
        for w, stop in enumerate(_stops(walk.checkpoint(k), zp, exp, term, totals)):
            if stop:
                sums[w] = (totals[w], k + 1, stop, values[w])
                totals[w] = None
    return bits, t0, (anchor, e, f), sums


def _block_walk(walk: _Walk, z_sqs: Sequence[float]) -> Iterator[tuple]:
    """The walk on from t_0 = 2^bits in lockstep at each z_sq of a block, every one at
    most ``RESCALE_FREE_Z``^2: yields (i, bits, sums) for the i-th once its last sum
    stops.  A row's checkpoints are the multiples of ``_CHUNK``, the cap
    (``MIN_TERM_CAP`` at every such z) and its steps from its first zero term on: a
    chunk ends at any row's first zero term, and only those rows test their stop there.
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


def _result(t0: int, floors: tuple, st: tuple) -> tuple:
    """(value, abs_error_estimate, terms_used) of one sum of ``_row_walk``."""
    total, terms, stop, values = st
    w0 = 1 if values is None else values[0]
    value = total / (t0 * w0)  # int / int: one correct rounding to double
    anchor, e, f = floors
    n = terms - 1 - anchor  # steps past the anchor, each adding at most one unit to the term's error
    # e and f took under 20 roundings to nearest per term, each of a positive
    # quantity by a factor within 1 +- 2^-53: the slack covers them
    slack = 1.0 + terms * 2.0**-46
    e, f = e * slack, f * slack
    t = abs(t0)
    if not (f < math.inf and e < t):
        return value, math.inf, terms
    w = 1 if values is None else values[terms - 1]  # W(N) >= W(j) for every j <= N
    ep, eq = e.as_integer_ratio()
    fp, fq = f.as_integer_ratio()
    fp += fq * (n * (n + 1) // 2)
    # (every floor error, (f + n(n+1)/2) W(N), plus |S| e / t for t0's own, plus
    # the tail (|t_N W(N)| + n W(N)) P / (Q - P)) over |t0| W(0) (1 - e / t)
    num, den = (fp * w * t * eq + abs(total) * ep * fq), fq * w0 * t * (t * eq - ep)
    if stop is not None:
        mag, p, d = stop
        num = num * d + (mag + n * w) * p * t * fq * eq
        den *= d
    vp, vq = value.as_integer_ratio()
    # plus the rounding to double, exactly; the bound rounds up
    residual = abs(total * vq - vp * t0 * w0) * (den // (t * w0))
    return value, math.nextafter((num * vq + residual) / (den * vq), math.inf), terms


def eval_contiguous(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sq: float,
    target_rel_err: float = 1e-12, *, bits: Optional[int] = None,
) -> List[EvalResult]:
    """Sum t_k W(k) / W(0) at -z_sq for each weight W, from one walk of the base terms t_k.

    A weight is a tuple of integer factors (p, q), p > 0 and q >= 0, with W(k) =
    prod(p + k q); ``()`` sums the base itself.  The terms t_{k+1} = t_k r_k, r_k =
    -z_sq prod(a_i + k) / (prod(b_j + k) (k + 1)), are integers T_k, and a weight's
    sum S of T_k W(k) gives the value S / (T_0 W(0)).  Once every a_i + k >= 0 and
    b_j + k > 0, pair each numerator a with the smallest free denominator b >= a,
    else the largest free one ((k+1) is the denominator 1): rho = z_sq prod over
    pairs max(1, |a + k| / (b + k)) / prod over unpaired (b + k), times
    W(k+1)/W(k), bounds every later |t_{j+1} W(j+1) / (t_j W(j))| (Johansson,
    arXiv:1606.06977).  The anchor K is the first k where the base's rho < 1, or
    the last term if the series ends first (t_m for a numerator -m, t_0 at z_sq =
    0); T_K = 2^(bits + d), bits = ``required_bits(sqrt(z_sq))`` unless overridden
    and 2^d about |t_K / t_0| up to 2^``_GUARD_BITS`` (T_0 = 2^bits at K = 0).
    Back from K, T_k = floor(T_{k+1} / r_k), each chunk of ``_CHUNK`` terms summed
    and dropped; on from K, T_{k+1} = floor(T_k r_k), and a sum stops at the first
    checkpoint (a multiple of ``_CHUNK``, the first zero term, the term cap) where
    |T_k W(k)| rho / (1 - rho) is within target_rel_err / 4 of |S|: a caller may
    square a sum, as lambda12 does, and the roundings take the rest.

    ``abs_error_estimate`` is certified.  A floor errs by under one unit.  On from
    K each ratio is below 1, so each step adds at most one unit to the error of
    T_k: n(n+1)/2 units in all, n = N - K, N = terms_used - 1.  Back from K the
    error grows only where |r_k| < 1: e, bounding the error of T_k, takes
    e / |r_k| + 1 there (in doubles) and e + 1 elsewhere; f sums it over T_0 ..
    T_{K-1}.  With W nondecreasing and e_0 = e at T_0, the estimate is ((f +
    n(n+1)/2) W(N) + |S| e_0 / |T_0| + (|T_N W(N)| + n W(N)) P / (Q - P)) /
    ((|T_0| - e_0) W(0)), with a slack of 1 + terms_used 2^-46 on the doubles,
    plus the exact error of the rounding to double, rounded up.

    Raises ``PrecisionExhaustedError`` when the required precision exceeds
    ``MAX_PRECISION_BITS``, the term budget ``default_max_terms`` runs out or a
    ``bits`` override leaves T_0 = 0.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    check_target_rel_err(target_rel_err)
    if bits is not None and (not isinstance(bits, int) or bits < DOUBLE_BITS):
        raise ValueError(f"bits must be an integer >= {DOUBLE_BITS}, got {bits!r}")
    bits, t0, floors, sums = _row_walk(_Walk(base, weights, target_rel_err), z_sq, bits)
    return [EvalResult(*_result(t0, floors, st), bits) for st in sums]


def contiguous_values(
    base: HypergeometricSeries, weights: Sequence[tuple], z_sqs: Sequence[float], target_rel_err: float
) -> Iterator[List[float]]:
    """The values alone of ``eval_contiguous`` at each z_sq of ``z_sqs``, yielded
    in their order, for a caller that has checked every z_sq and target_rel_err.
    Each run of arguments at z <= ``RESCALE_FREE_Z`` goes in lockstep blocks of
    ``_BLOCK_ROWS``, and every other argument walks alone, without the error
    arithmetic of ``_result``; a lone row is walked once the rows before it are
    yielded, so the first row that fails raises first.  A block row's sums,
    from t_0 = 2^bits, are those of ``eval_contiguous`` to within about 2^-80,
    for a base whose terms stay below e^(2z), as the eigenvalue series' do."""
    w0s = [_at(1, factors, 0) for factors in weights]
    walk = _Walk(base, weights, target_rel_err)
    for small, run in groupby(z_sqs, lambda z_sq: z_sq <= RESCALE_FREE_Z**2):
        if not small:
            for z_sq in run:
                _, t0, _, sums = _row_walk(walk, z_sq, None)
                yield [st[0] / (w0 * t0) for st, w0 in zip(sums, w0s)]
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

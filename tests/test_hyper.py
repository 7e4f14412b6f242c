import contextlib
import copy
import math
import random
import sys
import threading
import time
from fractions import Fraction
from typing import Optional
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perispec.hyper as hyper
from perispec.hyper import (
    _GUARD_BITS,
    _REL_ERR_RANGE,
    DOUBLE_BITS,
    MAX_PRECISION_BITS,
    EvalResult,
    HypergeometricSeries,
    InvalidSeriesError,
    PrecisionExhaustedError,
    contiguous_values,
    default_max_terms,
    eval_contiguous,
    eval_pfq,
    eval_pfq_float64,
    required_bits,
)


def bruteforce_pfq(nums, dens, z_sq, dps=60, kmax=2000):
    """Independent oracle: direct rising-factorial summation under mpmath.

    No shared code with eval_pfq: terms come from mpmath's rf/factorial at
    high decimal precision, not from the production term recurrence.
    """
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        small = 0
        for k in range(kmax):
            t = mpmath.mpf(1)
            for a in nums:
                t *= mpmath.rf(mpmath.mpf(a), k)
            for b in dens:
                t /= mpmath.rf(mpmath.mpf(b), k)
            t *= (-mpmath.mpf(z_sq)) ** k / mpmath.factorial(k)
            total += t
            if k > 0 and abs(t) < mpmath.mpf(10) ** (-dps) * (1 + abs(total)):
                small += 1
                if small >= 5:
                    break
            else:
                small = 0
        return total


# frozen via bruteforce_pfq at 40+ digits
F23_AT_MINUS_001 = 0.9991433104973032
F12_AT_MINUS_1 = 0.7831299937241398


class TestEvalPfqExamples:
    def test_zero_argument_is_exactly_one(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        res = eval_pfq(series, 0.0, 1e-12)
        assert res.value == 1.0
        assert res.terms_used == 1

    def test_wrappers_at_zero(self):
        # the 1F2 and 3F4 shapes the spectrum code evaluates
        for nums, dens in (((0.7,), (1.3, 1.7)), ((1.0, 2.5, 0.7), (2.0, 1.5, 2.3, 1.7))):
            res = eval_pfq(HypergeometricSeries(nums, dens), 0.0, 1e-12)
            assert res.value == 1.0
            assert res.terms_used == 1

    def test_zero_numerator_truncates(self):
        # a numerator parameter 0 kills every k >= 1 term
        series = HypergeometricSeries((1.0, 0.0), (2.0, 3.5, 1.0))
        res = eval_pfq(series, 4.0, 1e-12)
        assert res.value == 1.0
        assert res.abs_error_estimate < 1e-28  # pure rounding bound, no truncation term

    def test_small_argument_against_bruteforce(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        res = eval_pfq(series, 0.01, 1e-12)
        assert res.value == pytest.approx(F23_AT_MINUS_001, rel=1e-13)
        ref = float(bruteforce_pfq((1.0, 1.5), (2.0, 3.5, 2.5), 0.01))
        assert res.value == pytest.approx(ref, rel=1e-13)
        # hand Taylor through k=1 brackets the value
        k1 = 1.0 * 1.5 / (2.0 * 3.5 * 2.5) * 0.01
        assert 1.0 - k1 < res.value < 1.0

    def test_1f2_alternating_bracket(self):
        res = eval_pfq(HypergeometricSeries((1.5,), (2.5, 2.5)), 1.0, 1e-12)
        assert 0.0 < res.value < 1.0
        assert res.value == pytest.approx(F12_AT_MINUS_1, rel=1e-13)
        assert res.value == pytest.approx(float(bruteforce_pfq((1.5,), (2.5, 2.5), 1.0)), rel=1e-13)


class TestValidation:
    def test_nonpositive_integer_denominator_rejected(self):
        with pytest.raises(InvalidSeriesError):
            HypergeometricSeries((1.0,), (0.0, 2.0))
        with pytest.raises(InvalidSeriesError):
            HypergeometricSeries((1.0,), (-3.0, 2.0))

    def test_p_greater_than_q_rejected(self):
        with pytest.raises(InvalidSeriesError):
            HypergeometricSeries((1.0, 2.0), (3.0,))

    def test_negative_argument_rejected(self):
        series = HypergeometricSeries((1.0,), (2.0, 3.0))
        with pytest.raises(ValueError):
            eval_pfq(series, -1.0, 1e-12)

    @pytest.mark.parametrize("tol", [1e-16, 0.1])
    def test_target_rel_err_range(self, tol):
        series = HypergeometricSeries((1.0,), (2.0, 3.0))
        with pytest.raises(ValueError):
            eval_pfq(series, 1.0, tol)

    def test_eval_result_invariants(self):
        with pytest.raises(ValueError):
            EvalResult(value=1.0, abs_error_estimate=0.0, terms_used=0, precision_bits_used=64)
        with pytest.raises(ValueError):
            EvalResult(value=1.0, abs_error_estimate=-1.0, terms_used=1, precision_bits_used=64)

    def test_term_budget_exhaustion(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        with mock.patch.object(hyper, "default_max_terms", lambda z: 5), pytest.raises(PrecisionExhaustedError):
            eval_pfq(series, 100.0, 1e-12)

    def test_minimum_bits(self):
        series = HypergeometricSeries((1.0,), (2.0, 3.0))
        assert eval_pfq(series, 1.0, 1e-12, bits=DOUBLE_BITS).precision_bits_used == DOUBLE_BITS
        for bits in (DOUBLE_BITS - 1, 0, 100.5):
            with pytest.raises(ValueError):
                eval_pfq(series, 1.0, 1e-12, bits=bits)

    def test_bits_too_few_for_t0(self):
        # at z = 150 the anchor's t_K is 2^(bits + 64) and |t_K / t_0| ~ 2^430:
        # 53 bits leave t_0 at 0, a precision failure, not a division by zero
        with pytest.raises(PrecisionExhaustedError, match="leave t_0 no bits"):
            eval_pfq(LARGE_Z_2F3, 150.0**2, bits=DOUBLE_BITS)

    def test_precision_ceiling(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        z = 4e5  # required_bits(z) > MAX_PRECISION_BITS
        assert required_bits(z) > MAX_PRECISION_BITS
        with pytest.raises(PrecisionExhaustedError):
            eval_pfq(series, z * z, 1e-12)


class TestPrecisionPolicy:
    def test_precision_adequacy_randomized(self):
        # doubling the working precision moves the result by less than the
        # reported error estimate, over random series shapes and arguments
        rng = np.random.default_rng(424242)
        for _ in range(200):
            p = rng.integers(1, 4)
            nums = tuple(rng.uniform(0.1, 5.0, size=p))
            dens = tuple(rng.uniform(0.5, 6.0, size=p + 1))
            z = rng.uniform(0.0, 40.0)
            series = HypergeometricSeries(nums, dens)
            base = eval_pfq(series, z * z, 1e-12)
            doubled = eval_pfq(series, z * z, 1e-12, bits=2 * base.precision_bits_used)
            assert abs(doubled.value - base.value) <= base.abs_error_estimate

    def test_reported_bits_follow_policy(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        res = eval_pfq(series, 900.0, 1e-12)  # z = 30
        assert res.precision_bits_used == required_bits(30.0) == 180

    def test_term_cap_scales_with_argument(self):
        assert default_max_terms(10.0) == 10_000
        assert default_max_terms(5000.0) > 16_000


class TestRequiredBits:
    def test_zero_argument(self):
        assert required_bits(0.0) == DOUBLE_BITS + 40

    def test_grows_with_cancellation(self):
        # ceil(60 * log2(e)) = 87 bits lost at z = 30
        assert required_bits(30.0) == 53 + 87 + 40

    def test_monotone(self):
        zs = [0.0, 1.0, 10.0, 100.0, 1000.0]
        bits = [required_bits(z) for z in zs]
        assert bits == sorted(bits)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            required_bits(-1.0)


@st.composite
def series_shapes(draw):
    p = draw(st.integers(min_value=1, max_value=3))
    nums = draw(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=p, max_size=p))
    dens = draw(st.lists(st.floats(min_value=0.5, max_value=6.0), min_size=p + 1, max_size=p + 1))
    return HypergeometricSeries(tuple(nums), tuple(dens))


#: Doubles nearest the first roots of the coupling series 1F2(1.5; 2, 2.5; -z^2)
#: (n = 2, beta = 1), where the sum is ~1e-18 against terms of order 1 or more.
COUPLING = HypergeometricSeries((1.5,), (2.0, 2.5))
COUPLING_ROOTS = (2.942150483191762, 6.037984514005027, 43.65185023512907)


class TestErrorBound:
    @given(
        series=series_shapes(),
        z=st.floats(min_value=0.0, max_value=60.0),
        tol=st.sampled_from([1e-15, 1e-12, 1e-8]),
    )
    @example(series=COUPLING, z=COUPLING_ROOTS[0], tol=1e-12)
    @example(series=COUPLING, z=COUPLING_ROOTS[1], tol=1e-12)
    @example(series=COUPLING, z=COUPLING_ROOTS[2], tol=1e-12)
    # the walk's anchor: a first term ratio below 1 before the terms rise (the
    # n = 2 transverse series at beta = n + 2 - 1e-3), and z_sq = 0
    @example(series=HypergeometricSeries((1.0, 5e-4), (2.0, 3.0, 1.0005)), z=10.0, tol=1e-15)
    @example(series=COUPLING, z=0.0, tol=1e-12)
    @settings(max_examples=300, deadline=None)
    def test_estimate_bounds_error_vs_mpmath(self, series, z, tol):
        # the reported error estimate is a true bound on |value - exact|, with
        # mpmath's own summation at twice the working precision as the exact value
        res = eval_pfq(series, z * z, tol)
        with mpmath.workprec(2 * res.precision_bits_used):
            ref = mpmath.hyper(
                [mpmath.mpf(a) for a in series.numerator_params],
                [mpmath.mpf(b) for b in series.denominator_params],
                -mpmath.mpf(z * z),
            )
            assert abs(res.value - ref) <= res.abs_error_estimate


@st.composite
def contiguous_families(draw):
    """A ``series_shapes`` base on a 2^-10 grid and 1-3 weights for it, each
    of 0-2 linear factors (p, q).  Some take s = p/q from the base's own
    parameters, as the coupling weight's (1, 1) raises the numerator 1 to 2;
    others are arbitrary, as the dyadic weight (3, 2) adds the pair (5/2; 3/2)."""
    shape = draw(series_shapes())
    grid = lambda x: max(round(x * 1024), 1) / 1024  # noqa: E731
    base = HypergeometricSeries(tuple(map(grid, shape.numerator_params)), tuple(map(grid, shape.denominator_params)))
    own = [x.as_integer_ratio() for x in base.numerator_params + base.denominator_params]
    factor = st.one_of(st.sampled_from(own), st.tuples(st.integers(1, 40), st.integers(1, 8)))
    weights = draw(st.lists(st.lists(factor, max_size=2).map(tuple), min_size=1, max_size=3))
    return base, weights


def member_series(base, weights):
    """The series whose terms are the base's times W(k) / W(0): one extra
    (s + 1; s) pair, s = p/q, per factor, as exact mpmath parameters."""
    nums = [mpmath.mpf(a) for a in base.numerator_params]
    dens = [mpmath.mpf(b) for b in base.denominator_params]
    for p, q in weights:
        s = mpmath.mpf(p) / q
        nums.append(s + 1)
        dens.append(s)
    return nums, dens


#: The n = 2, beta = 1 transverse series and its dyadic and coupling weights,
#: (2k+3) and (k+1)(k+2); the coupling weight's member series is COUPLING.
EIGEN_FAMILY = (HypergeometricSeries((1.0, 1.5), (2.0, 3.0, 2.5)), [((3, 2),), ((1, 1), (2, 1))])


class TestContiguousMembers:
    @given(
        family=contiguous_families(),
        z=st.floats(min_value=0.0, max_value=60.0),
        tol=st.sampled_from([1e-15, 1e-12, 1e-8]),
    )
    @example(family=EIGEN_FAMILY, z=COUPLING_ROOTS[0], tol=1e-12)
    @example(family=EIGEN_FAMILY, z=COUPLING_ROOTS[1], tol=1e-12)
    @example(family=EIGEN_FAMILY, z=COUPLING_ROOTS[2], tol=1e-12)
    @settings(max_examples=150, deadline=None)
    def test_each_estimate_bounds_error_vs_mpmath(self, family, z, tol):
        # every weighted sum's error estimate is a true bound, against mpmath's
        # own summation of the member series at twice the working precision
        base, weights = family
        for factors, res in zip(weights, eval_contiguous(base, weights, z * z, tol)):
            with mpmath.workprec(2 * res.precision_bits_used):
                ref = mpmath.hyper(*member_series(base, factors), -mpmath.mpf(z * z))
                assert abs(res.value - ref) <= res.abs_error_estimate, factors

    def test_threads_sharing_one_family(self):
        # Eight threads sum one fresh base with three weights at shuffled z; each
        # call's memos are its own, so no thread's walk disturbs another's.
        base, weights = EIGEN_FAMILY
        weights = [(), *weights]
        zs = [1.5 * k for k in range(1, 21)]
        copy = HypergeometricSeries(base.numerator_params, base.denominator_params)
        ref = {z: eval_contiguous(copy, weights, z * z, 1e-12) for z in zs}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = HypergeometricSeries(base.numerator_params, base.denominator_params)
            barrier = threading.Barrier(8)
            results = [[] for _ in range(8)]

            def work(i):
                order = list(zs)
                random.Random(i).shuffle(order)
                barrier.wait(timeout=30)
                results[i] = [(z, eval_contiguous(shared, weights, z * z, 1e-12)) for z in order]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        for got in results:
            assert len(got) == len(zs)
            for z, res in got:
                assert res == ref[z], z

    def test_identity_member_is_eval_pfq(self):
        base = EIGEN_FAMILY[0]
        for z in (0.0, 0.5, 7.0, 40.0):
            assert eval_contiguous(base, [(), ()], z * z, 1e-12) == [eval_pfq(base, z * z, 1e-12)] * 2


class TestRecurrenceConsistency:
    def test_entire_function_sanity(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        for z_sq in np.linspace(0.0, 1600.0, 9):
            res = eval_pfq(series, float(z_sq), 1e-10)
            assert math.isfinite(res.value)


class TestCancellationWitness:
    def test_naive_double_summation_fails_at_z30(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        z_sq = 900.0
        ext = eval_pfq(series, z_sq, 1e-12)
        naive = eval_pfq_float64(series, z_sq)
        assert abs(naive - ext.value) / abs(ext.value) > 1e-6
        doubled = eval_pfq(series, z_sq, 1e-12, bits=2 * ext.precision_bits_used)
        assert abs(doubled.value - ext.value) <= 1e-12 * abs(ext.value)

    def test_naive_agrees_at_small_argument(self):
        series = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        ext = eval_pfq(series, 0.25, 1e-12)
        naive = eval_pfq_float64(series, 0.25)
        assert naive == pytest.approx(ext.value, rel=1e-12)


def reference_eval_pfq(
    series: HypergeometricSeries,
    z_sq: float,
    target_rel_err: float = 1e-12,
    *,
    bits: Optional[int] = None,
) -> EvalResult:
    """The anchored fixed-point kernel term by term, its estimate in exact fractions.

    It recomputes every ratio r_k = t_{k+1} / t_k from the series parameters on
    every call, so ``eval_pfq`` must return an equal ``EvalResult`` whatever its
    memo holds.  Its term cap is the kernel's, ``hyper.default_max_terms``,
    looked up at call time so that a test can patch both.

    rho_k pairs each numerator a with the smallest free denominator b >= a,
    else the largest free one (the (k+1) factor is the denominator 1): rho_k =
    z_sq prod over pairs max(1, |a + k| / (b + k)) / prod over the rest
    (b + k), once every a + k >= 0 and b + k > 0.  The anchor K is the first
    k <= cap with rho_k < 1, or the last term if the series ends first; past
    the cap without either, the series does not converge.  |t_K / t_0| is
    taken as a product of doubles, |r_k| in the kernel's double operations,
    stopped at the first k past 2^_GUARD_BITS, and t_K = 2^(bits + d) exactly,
    with d its ceil(log2) clamped to [0, _GUARD_BITS].  Back to t_0, t_k =
    floor(t_{k+1} / r_k), and e, the error of t_k in units, takes e |1 / r_k|
    + 1 where |r_k| < 1 and e + 1 elsewhere; f sums those of t_0 .. t_{K-1}.
    Forward, t_{k+1} = floor(t_k r_k), each adding at most one unit of error,
    and the sum S stops at the first k > K that is a multiple of
    ``hyper._CHUNK``, a zero term or the cap, where |t_k| rho_k / (1 - rho_k)
    <= target_rel_err / 4 |S|.  The value is S / t_0, and the estimate (f +
    n(n+1)/2 + |S| e_0 / |t_0| + the tail (|t_N| + n) rho / (1 - rho)) / (|t_0|
    - e_0), n = N - K steps past the anchor, plus the rounding to double.
    """
    if not (z_sq >= 0.0 and math.isfinite(z_sq)):
        raise ValueError(f"z_sq must be finite and >= 0, got {z_sq}")
    lo, hi = _REL_ERR_RANGE
    if not (lo <= target_rel_err <= hi):
        raise ValueError(f"target_rel_err must lie in [{lo}, {hi}], got {target_rel_err}")
    if bits is not None and (not isinstance(bits, int) or bits < DOUBLE_BITS):
        raise ValueError(f"bits must be an integer >= {DOUBLE_BITS}, got {bits!r}")

    z = math.sqrt(z_sq)
    if bits is None:
        bits = required_bits(z)
    if bits > MAX_PRECISION_BITS:
        raise PrecisionExhaustedError(
            f"z = {z:g} needs {bits} bits > MAX_PRECISION_BITS = {MAX_PRECISION_BITS}"
        )
    cap = hyper.default_max_terms(z)

    nums = [Fraction(a) for a in series.numerator_params]
    dens = [Fraction(b) for b in series.denominator_params]
    free = sorted(dens + [Fraction(1)])
    pairs = []
    for a in sorted(nums, reverse=True):
        b = next((b for b in free if b >= a), free[-1])
        free.remove(b)
        pairs.append((a, b))
    x = Fraction(z_sq)
    budget = Fraction(target_rel_err) / 4

    def step(k):  # r_k / -z_sq
        return math.prod(a + k for a in nums) / ((k + 1) * math.prod(b + k for b in dens))

    def rho(k):  # None until every a + k >= 0 and b + k > 0
        if not (all(a + k >= 0 for a in nums) and all(b + k > 0 for b in dens)):
            return None
        bound = x / math.prod(b + k for b in free)
        for a, b in pairs:
            bound *= max(Fraction(1), abs(a + k) / (b + k))
        return bound

    for anchor in range(cap + 1):
        r = rho(anchor)
        if (r is not None and r < 1) or not x * step(anchor):
            break
    else:
        raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")

    lift = 1.0
    for k in range(anchor):
        try:
            lift *= abs(float(step(k))) * z_sq
        except OverflowError:
            lift = math.inf
        if not lift < 2.0**_GUARD_BITS:
            break
    top = 1 << bits + (0 if lift <= 1.0 else math.ceil(math.log2(lift)) if lift < 2.0**_GUARD_BITS else _GUARD_BITS)

    term = total = top
    e = f = 0.0
    j = anchor  # e bounds the error of t_j
    for k in reversed(range(anchor)):
        ratio = -x * step(k)
        term = term * ratio.denominator // ratio.numerator
        total += term
        if abs(ratio) < 1:
            n = j - k - 1
            f += n * e + n * (n + 1) / 2
            try:
                e = (e + n) * float(abs(1 / ratio)) + 1.0
            except OverflowError:
                e = math.inf
            f += e
            j = k
    if j:
        f += j * e + j * (j + 1) / 2
        e += j
    if not term:
        raise PrecisionExhaustedError(f"bits = {bits} leave t_0 no bits at z = {z:g}")
    t0, term = term, top

    k = anchor  # steps taken: t_0 .. t_k summed
    stop = None  # (|t_k|, rho) where the sum stopped
    while True:
        ratio = -x * step(k)
        if ratio == 0:  # t_{k+1} and every later term vanish
            break
        if k >= cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        term = term * ratio.numerator // ratio.denominator
        k += 1
        total += term
        if (k % hyper._CHUNK == 0 or not term or k == cap) and x * step(k):
            r = rho(k)
            assert r < 1  # every ratio past the anchor is below 1
            if abs(term) * r <= budget * abs(total) * (1 - r):
                stop = abs(term), r
                break

    terms_used = k + 1
    exact = Fraction(total, t0)
    value = float(exact)
    n = k - anchor
    slack = 1.0 + terms_used * 2.0**-46
    e, f = e * slack, f * slack
    t = abs(t0)
    if not (f < math.inf and e < t):
        return EvalResult(value, math.inf, terms_used, bits)
    err = Fraction(f) + n * (n + 1) // 2 + abs(total) * Fraction(e) / t
    if stop is not None:
        mag, r = stop
        err += (mag + n) * r / (1 - r)
    err = err / (t - Fraction(e)) + abs(exact - Fraction(value))
    return EvalResult(
        value=value,
        abs_error_estimate=math.nextafter(float(err), math.inf),
        terms_used=terms_used,
        precision_bits_used=bits,
    )


def outcome(kernel, series, z_sq, tol, **overrides):
    """The EvalResult, or the type of the arithmetic error the kernel raised."""
    try:
        return kernel(series, z_sq, tol, **overrides)
    except ArithmeticError as exc:  # PrecisionExhaustedError, or OverflowError at tiny bits
        return type(exc)


@st.composite
def memo_series(draw):
    """Series shapes of the spectrum code, sometimes with a numerator that
    truncates the series (a nonpositive integer)."""
    p = draw(st.integers(min_value=1, max_value=3))
    nums = draw(st.lists(st.floats(min_value=-3.0, max_value=5.0), min_size=p, max_size=p))
    if draw(st.booleans()):
        nums[draw(st.integers(0, p - 1))] = -float(draw(st.integers(0, 6)))
    dens = draw(st.lists(st.floats(min_value=0.25, max_value=6.0), min_size=p + 1, max_size=p + 1))
    return HypergeometricSeries(tuple(nums), tuple(dens))


#: The transverse 2F3(1, a; 2, b+1, a+1) of the large-z material, n = 2 and beta =
#: 2.123456789: its numerator 1 cancels the k! and its scales 2^52 each other.
LARGE_Z_A = 0.5 * (4 - 2.123456789)
LARGE_Z_2F3 = HypergeometricSeries((1.0, LARGE_Z_A), (2.0, 3.0, LARGE_Z_A + 1.0))


@st.composite
def cancelling_series(draw):
    """``memo_series`` draws, some with a denominator copied into the
    numerators or a numerator 1.0 (which cancels the k! of the terms)."""
    series = draw(memo_series())
    nums, dens = list(series.numerator_params), series.denominator_params
    kind = draw(st.sampled_from(["drawn", "copied", "one"]))
    if kind != "drawn":
        nums[draw(st.integers(0, len(nums) - 1))] = draw(st.sampled_from(dens)) if kind == "copied" else 1.0
    return HypergeometricSeries(tuple(nums), dens)


class TestLowestTerms:
    @given(series=cancelling_series(), z=st.floats(min_value=0.5, max_value=20.0))
    @example(series=LARGE_Z_2F3, z=20.0)
    @example(series=HypergeometricSeries((2.25, 2.25, 1.0), (2.25, 1.0, 0.75, 1.0)), z=5.0)
    @settings(max_examples=100, deadline=None)
    def test_memo_ratios_are_exact_in_lowest_terms(self, series, z):
        # a walk's memo of num_k / den_k is the exact term ratio over -z_sq; the scales
        # are coprime and no factor appears on both sides
        walk = hyper._Walk(series, ((),), 1e-12)
        hyper._row_walk(walk, z * z, None)
        ratio_nums, ratio_dens = walk.nums, walk.dens
        assert ratio_nums or 0.0 in series.numerator_params  # a numerator 0 ends the walk at t_0
        nums = [Fraction(a) for a in series.numerator_params]
        dens = [Fraction(b) for b in series.denominator_params]
        for k, (num, den) in enumerate(zip(ratio_nums, ratio_dens)):
            want = math.prod(a + k for a in nums) / ((k + 1) * math.prod(b + k for b in dens))
            assert Fraction(num, den) == want, k
        int_nums, int_dens, num_scale, den_scale = series._integer_params
        assert math.gcd(num_scale, den_scale) == 1
        assert not set(int_nums) & set(int_dens)


class TestMemoisedRatios:
    @given(
        series=memo_series(),
        zs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=40.0)), min_size=1, max_size=8),
        order=st.sampled_from(["shuffled", "descending", "ascending"]),
        tol=st.sampled_from([1e-15, 1e-12, 1e-8, 1e-2]),
        bits_extra=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        max_terms=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_kernel(self, series, zs, order, tol, bits_extra, max_terms):
        # one series object across the whole z list: its memo starts cold, is
        # warm for a smaller z and grows mid-sum for a larger one
        if order == "descending":
            zs = sorted(zs, reverse=True)
        elif order == "ascending":
            zs = sorted(zs)
        overrides = {} if bits_extra is None else {"bits": DOUBLE_BITS + bits_extra}
        cap = contextlib.nullcontext()
        if max_terms is not None:  # both kernels take their term cap from hyper.default_max_terms
            cap = mock.patch.object(hyper, "default_max_terms", lambda z: max_terms)
        fresh = HypergeometricSeries(series.numerator_params, series.denominator_params)
        with cap:
            for z in zs:
                got = outcome(eval_pfq, series, z * z, tol, **overrides)
                assert got == outcome(reference_eval_pfq, fresh, z * z, tol, **overrides)

    def test_zero_terms_pass_the_truncation_test(self):
        # Near a root of 1F2(2.25; 1.5, 3.25) (n = 1, beta = -1.5) the tail terms
        # underflow to 0 while tol * |sum| is below one unit: only exact zeros
        # pass the test, and the bit-length early reject must not refuse them.
        series = HypergeometricSeries((2.25,), (1.5, 3.25))
        z = 1.9819187543694081
        for tol in (1e-15, 1e-12):
            got = eval_pfq(series, z * z, tol)
            assert got == reference_eval_pfq(HypergeometricSeries((2.25,), (1.5, 3.25)), z * z, tol)
        assert got.terms_used < 30

    def test_memo_stays_out_of_equality_and_hash(self):
        used = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        eval_pfq(used, 400.0, 1e-12)
        fresh = HypergeometricSeries((1.0, 1.5), (2.0, 3.5, 2.5))
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_calls_leave_the_series_as_built(self):
        # the memos belong to each call's walk: no evaluation changes a series
        series = HypergeometricSeries((1.0, 2.5, 1.25), (2.0, 1.5, 3.5, 2.25))
        built = copy.deepcopy(vars(series))
        weights = [(), ((3, 2),), ((1, 1), (5, 2))]
        eval_pfq(series, 400.0, 1e-12)
        eval_contiguous(series, weights, 2500.0, 1e-10)
        list(contiguous_values(series, weights, [0.0, 1.0, 2500.0, 4.0, 1e4, 9.0], 1e-10))
        assert copy.deepcopy(vars(series)) == built

    def test_threads_sharing_one_series(self):
        # Eight threads evaluate one fresh series at shuffled z, so they grow
        # its memo concurrently; a lost or misplaced ratio changes a result.
        shape = ((1.0, 2.5, 1.25), (2.0, 1.5, 3.5, 2.25))
        zs = [0.75 * k for k in range(1, 41)]
        ref = {z: reference_eval_pfq(HypergeometricSeries(*shape), z * z, 1e-12) for z in zs}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            rounds = 0
            while rounds < 3 or time.monotonic() < deadline:
                series = HypergeometricSeries(*shape)
                barrier = threading.Barrier(8)
                results = [[] for _ in range(8)]

                def work(i, series=series, barrier=barrier, results=results, seed=rounds):
                    order = list(zs)
                    random.Random(8 * seed + i).shuffle(order)
                    barrier.wait(timeout=30)
                    results[i] = [(z, eval_pfq(series, z * z, 1e-12)) for z in order]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for got in results:
                    assert len(got) == len(zs)
                    for z, res in got:
                        assert res == ref[z], z
                rounds += 1
        finally:
            sys.setswitchinterval(old_interval)


def absolute_tail(base, factors, z_sq, start, extra=300):
    """Sum of |t_j W(j) / W(0)| over j = start .. start + extra - 1, under
    mpmath at 400 bits: the magnitudes of the terms a sum omits.  An
    alternating tail can sum to less; the certified geometric bound covers this one."""
    with mpmath.workprec(400):
        x = mpmath.mpf(z_sq)
        nums = [mpmath.mpf(a) for a in base.numerator_params]
        dens = [mpmath.mpf(b) for b in base.denominator_params]
        weight = lambda j: math.prod(p + j * q for p, q in factors)  # noqa: E731
        term, tail = mpmath.mpf(1), mpmath.mpf(0)
        for j in range(start + extra):
            if j >= start:
                tail += abs(term) * weight(j) / weight(0)
            term *= -x * math.prod(a + j for a in nums) / ((j + 1) * math.prod(b + j for b in dens))
            if not term:
                break
        return tail


class TestTailBound:
    """The estimate covers the magnitudes of every omitted term, |t_N W(N)|
    rho / (1 - rho) and beyond: with rho alone it would not (the examples)."""

    @given(
        series=memo_series(),
        z=st.floats(min_value=0.0, max_value=20.0),
        tol=st.sampled_from([1e-15, 1e-10, 1e-2]),
    )
    @example(series=EIGEN_FAMILY[0], z=7.5, tol=1e-2)
    @example(series=EIGEN_FAMILY[0], z=9.5, tol=1e-10)
    # t_1 ~ 1e-32 is 2^-106 of t_0, and t_3 ~ 45 t_1: the floor error made at
    # t_1 grows with the terms after it
    @example(series=HypergeometricSeries((-3.0, 1.0, 4.795649000782479e-35), (1.0, 1.0, 1.0, 1.0)), z=11.0, tol=1e-15)
    # the series ends at t_3, before any checkpoint bounds its ratios below 1:
    # the walk's anchor is its last term
    @example(series=HypergeometricSeries((-3.0, 2.5), (1.5, 0.25, 1.0)), z=20.0, tol=1e-15)
    @settings(max_examples=100, deadline=None)
    def test_estimate_covers_absolute_tail(self, series, z, tol):
        res = eval_pfq(series, z * z, tol)
        assert res.abs_error_estimate >= absolute_tail(series, (), z * z, res.terms_used)
        with mpmath.workprec(2 * res.precision_bits_used):
            ref = mpmath.hyper(
                [mpmath.mpf(a) for a in series.numerator_params],
                [mpmath.mpf(b) for b in series.denominator_params],
                -mpmath.mpf(z * z),
            )
            assert abs(res.value - ref) <= res.abs_error_estimate

    @pytest.mark.parametrize("z", [3.0, 7.5, 12.0])
    @pytest.mark.parametrize("tol", [1e-2, 1e-10])
    def test_members_cover_absolute_tail(self, z, tol):
        base, weights = EIGEN_FAMILY
        weights = [(), *weights]
        for factors, res in zip(weights, eval_contiguous(base, weights, z * z, tol)):
            assert res.abs_error_estimate >= absolute_tail(base, factors, z * z, res.terms_used), factors


class TestCoarsenedUnit:
    """Past z ~ 55 the base terms outgrow bits + 2 _GUARD_BITS: the walk starts
    at its anchor, 2^(bits + _GUARD_BITS), and every term shrinks away from it."""

    @pytest.mark.parametrize("z", [150.0, 600.0])
    @pytest.mark.parametrize("tol", [1e-15, 1e-10])
    def test_members_bound_error_vs_mpmath(self, z, tol):
        # each member's sum is rescaled as the walk goes, and every estimate
        # must still bound its error, against mpmath at twice the working precision
        base, weights = EIGEN_FAMILY
        weights = [(), *weights]
        for factors, res in zip(weights, eval_contiguous(base, weights, z * z, tol)):
            with mpmath.workprec(2 * res.precision_bits_used):
                ref = mpmath.hyper(*member_series(base, factors), -mpmath.mpf(z * z))
                assert abs(res.value - ref) <= res.abs_error_estimate, factors

    @given(
        series=memo_series(),
        z=st.floats(min_value=60.0, max_value=150.0),
        tol=st.sampled_from([1e-15, 1e-10]),
        bits_extra=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    )
    # the large-z transverse 2F3, where the cancellation bites
    @example(series=LARGE_Z_2F3, z=150.0, tol=1e-15, bits_extra=None)
    @example(series=LARGE_Z_2F3, z=60.0, tol=1e-10, bits_extra=150)
    @example(series=LARGE_Z_2F3, z=150.0, tol=1e-10, bits_extra=0)  # t_0 floors to 0
    # a numerator equal to a denominator cancels from every ratio
    @example(series=HypergeometricSeries((math.e, 0.3), (1.1, math.e, 4.5)), z=97.0, tol=1e-10, bits_extra=None)
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_kernel(self, series, z, tol, bits_extra):
        # the reference applies the same rule term by term, so both kernels
        # must anchor, floor and stop at the same terms whatever the chunk sizes
        overrides = {} if bits_extra is None else {"bits": DOUBLE_BITS + bits_extra}
        fresh = HypergeometricSeries(series.numerator_params, series.denominator_params)
        got = outcome(eval_pfq, series, z * z, tol, **overrides)
        assert got == outcome(reference_eval_pfq, fresh, z * z, tol, **overrides)

import contextlib
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
        # Eight threads sum one fresh base with three weights at shuffled z, so
        # they grow its ratio memo and its factor-keyed weight memo concurrently.
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
        assert set(shared._weights) == {factors for factors in weights if factors}

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
    """The fixed-point kernel term by term, its tail bound in exact fractions.

    It recomputes every ratio from the series parameters on every call, so
    ``eval_pfq`` must return an equal ``EvalResult`` whatever its memo holds.
    Its term cap is the kernel's, ``hyper.default_max_terms``, looked up at
    call time so that a test can patch both.
    It coarsens its unit by the same rule, term by term: once a term is more
    than 2 _GUARD_BITS wider than bits and has been summed, the term, the sum
    and the peak are shifted right until the term is bits + _GUARD_BITS bits
    wide.  It tests the stop at the same checkpoints, step counts k that are
    multiples of ``hyper._CHUNK``, a rescale, a zero term or the cap, once
    every a + k >= 0 and b + k > 0: pairing each numerator a with the
    smallest free denominator b >= a, else the largest free one (the (k+1)
    factor is the denominator 1), rho = z_sq prod over pairs max(1, |a + k| /
    (b + k)) / prod over the rest (b + k), and the sum stops once rho < 1 and
    |t_k| rho / (1 - rho) <= target_rel_err / 4 |S|.
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

    one = 1 << bits
    term = total = peak = one
    shift = rescales = 0
    k = 0  # steps taken: t_0 .. t_k summed
    wide = False  # the last step rescaled
    stop = None  # (|t_k|, rho) where the sum stopped
    while True:
        ratio = -x * math.prod(a + k for a in nums) / ((k + 1) * math.prod(b + k for b in dens))
        if ratio == 0:  # t_{k+1} and every later term vanish
            break
        if k and (k % hyper._CHUNK == 0 or wide or not term or k == cap):
            if all(a + k >= 0 for a in nums) and all(b + k > 0 for b in dens):
                rho = x / math.prod(b + k for b in free)
                for a, b in pairs:
                    rho *= max(Fraction(1), abs(a + k) / (b + k))
                if rho < 1 and abs(term) * rho <= budget * abs(total) * (1 - rho):
                    stop = abs(term), rho
                    break
        if k >= cap:
            raise PrecisionExhaustedError(f"series did not converge within {cap} terms at z = {z:g}")
        term = term * ratio.numerator // ratio.denominator
        k += 1
        total += term
        peak = max(peak, abs(term))
        cut = term.bit_length() - bits - _GUARD_BITS
        wide = cut > _GUARD_BITS
        if wide:
            shift += cut
            rescales += 1
            term >>= cut
            total >>= cut
            peak >>= cut

    terms_used = k + 1
    exact = Fraction(total << shift, one)
    value = float(exact)
    unit = Fraction(1 << shift, one)
    charge = peak * Fraction(2, one)  # one term's floor errors, in units
    err = (charge * (terms_used + 2) + rescales) * unit
    if stop is not None:
        mag, rho = stop
        err += (mag + charge) * rho / (1 - rho) * unit
    err += abs(exact - Fraction(value))
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
    """Past z ~ 55 the base terms outgrow bits + 2 _GUARD_BITS, and the walk
    coarsens its unit at every few terms of the rise."""

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
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_kernel(self, series, z, tol, bits_extra):
        # the reference applies the same rule term by term, so both kernels
        # must rescale at the same terms whatever the chunk sizes
        overrides = {} if bits_extra is None else {"bits": DOUBLE_BITS + bits_extra}
        fresh = HypergeometricSeries(series.numerator_params, series.denominator_params)
        got = outcome(eval_pfq, series, z * z, tol, **overrides)
        assert got == outcome(reference_eval_pfq, fresh, z * z, tol, **overrides)

import dataclasses
import math
import pickle
import re
import struct
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perispec.asymptotics import AsymptoticForms, asym_lambda2
from perispec.eigenvalues import (
    _BLOCK_ROWS,
    MaterialParams,
    _Plan,
    derive,
    eval_spectrum,
    lambda1,
    lambda2,
    navier_eigenvalues,
    z_of,
)
from perispec.hyper import HypergeometricSeries, PrecisionExhaustedError, _walk, eval_pfq
from test_hyper import bruteforce_pfq


def params_for(n, beta, delta=1.0, mu=1.0, lambda_star=2.0):
    return MaterialParams(n=n, delta=delta, beta=beta, mu=mu, lambda_star=lambda_star)


def series_row(params, nu):
    """The ``eval_spectrum`` row at one wavenumber, on the series."""
    (row,) = eval_spectrum(params, [nu], math.inf)
    return row


class TestMaterialParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, delta=1.0, beta=0.0, mu=1.0, lambda_star=2.0),
            dict(n=3, delta=0.0, beta=0.0, mu=1.0, lambda_star=2.0),
            dict(n=3, delta=1.0, beta=5.5, mu=1.0, lambda_star=2.0),  # beta > n+2
            dict(n=3, delta=1.0, beta=2.0, mu=0.0, lambda_star=2.0),
            dict(n=3, delta=1.0, beta=2.0, mu=1.0, lambda_star=math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MaterialParams(**kwargs)

    def test_negative_lambda_star_allowed(self):
        MaterialParams(n=2, delta=1.0, beta=1.0, mu=1.0, lambda_star=-0.5)

    def test_wavenumber_mapping(self):
        p = params_for(3, 2.0, delta=2.0)
        assert z_of(p, 3.0) == 3.0  # delta * nu / 2

    def test_slots_keep_value_semantics(self):
        p = params_for(3, 2.0, delta=2.0)
        assert not hasattr(p, "__dict__")
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p) and repr(copy) == repr(p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.beta = 1.0
        assert dataclasses.replace(p, beta=1.0) == params_for(3, 1.0, delta=2.0)


class TestDerive:
    def test_one_dimensional_integer_case(self):
        # Gamma(3/2) = sqrt(pi)/2 cancels pi^(1/2): c = 3 exactly
        d = derive(params_for(1, 0.0, delta=1.0))
        assert d.c == pytest.approx(3.0, rel=1e-14)
        assert (d.a, d.b) == (1.5, 1.5)

    def test_navier_endpoint(self):
        d = derive(params_for(3, 5.0))
        assert d.a == 0.0
        assert d.c == 0.0

    def test_hand_value(self):
        # 2*3*Gamma(2.5) / (pi^1.5 * 2^3) = 0.5625/pi
        d = derive(params_for(3, 2.0, delta=2.0))
        assert d.c == pytest.approx(0.5625 / math.pi, rel=1e-14)

    def test_c_positive_below_navier_endpoint(self):
        for n in (1, 2, 3):
            for beta in (n - 1.0, float(n), n + 1.0, n + 1.9):
                assert derive(params_for(n, beta)).c > 0.0


class TestLambda2:
    def test_zero_wavenumber(self):
        assert lambda2(params_for(3, 2.0), 0.0).value == 0.0

    def test_navier_endpoint(self):
        for n in (1, 2, 3):
            res = lambda2(params_for(n, float(n + 2)), 2.0)
            assert res.value == pytest.approx(-4.0, rel=1e-12)

    def test_small_wavenumber_frozen_and_bruteforce(self):
        p = params_for(3, 2.0)
        res = lambda2(p, 0.2)
        assert res.value == pytest.approx(-0.03996573241989213, rel=1e-13)
        ref = -1.0 * 0.2 ** 2 * float(bruteforce_pfq((1.0, 1.5), (2.0, 3.5, 2.5), (0.2 / 2) ** 2))
        assert res.value == pytest.approx(ref, rel=1e-13)

    def test_certified_error_is_honest(self):
        p = params_for(3, 2.0)
        a = lambda2(p, 7.0, 1e-10)
        b = lambda2(p, 7.0, 1e-14)
        assert abs(a.value - b.value) <= a.abs_error_estimate


class TestLambda11:
    def test_zero_wavenumber(self):
        assert series_row(params_for(2, 1.0), 0.0).lambda11 == 0.0

    def test_navier_endpoint(self):
        value = series_row(params_for(3, 5.0), 2.0).lambda11
        assert value == pytest.approx(-12.0, rel=1e-12)

    def test_small_wavenumber_frozen_and_bruteforce(self):
        p = params_for(3, 2.0)
        value = series_row(p, 0.2).lambda11
        assert value == pytest.approx(-0.11982869835499611, rel=1e-13)
        ref = -3.0 * 0.2 ** 2 * float(
            bruteforce_pfq((1.0, 2.5, 1.5), (2.0, 1.5, 3.5, 2.5), (0.2 / 2) ** 2)
        )
        assert value == pytest.approx(ref, rel=1e-13)


class TestLambda12:
    def test_zero_wavenumber(self):
        assert series_row(params_for(3, 2.0), 0.0).lambda12 == 0.0

    def test_equal_lame_parameters_vanish(self):
        p = params_for(3, 2.0, lambda_star=1.0)
        for nu in (0.5, 2.0, 10.0):
            assert series_row(p, nu).lambda12 == 0.0

    def test_navier_endpoint(self):
        value = series_row(params_for(2, 4.0), 2.0).lambda12
        assert value == pytest.approx(-4.0, rel=1e-12)

    def test_square_of_coupling_series(self):
        p = params_for(2, 1.0)
        f = float(bruteforce_pfq((1.5,), (2.0, 2.5), 1.0))  # a=1.5, b=2, z=1
        value = series_row(p, 2.0).lambda12
        assert value == pytest.approx(-(2.0 - 1.0) * 4.0 * f * f, rel=1e-12)


class TestLambda1:
    def test_navier_endpoint(self):
        res = lambda1(params_for(3, 5.0), 2.0)
        assert res.value == pytest.approx(-16.0, rel=1e-12)

    def test_zero_wavenumber(self):
        assert lambda1(params_for(3, 2.0), 0.0).value == 0.0

    def test_reduces_to_dyadic_part_when_lame_equal(self):
        p = params_for(3, 2.0, lambda_star=1.0)
        assert lambda1(p, 3.0).value == series_row(p, 3.0).lambda11

    def test_additivity(self):
        p = params_for(3, 3.5, delta=0.7, lambda_star=2.5)
        for nu in (0.3, 2.0, 8.0):
            total = lambda1(p, nu).value
            row = series_row(p, nu)
            assert total == pytest.approx(row.lambda11 + row.lambda12, rel=1e-12)


@pytest.mark.parametrize("wrapper", [lambda1, lambda2])
@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_tolerance_checked_at_every_wavenumber(wrapper, nu):
    # nu = 0 sums no series, but an out-of-range tol is still an error, as in eval_spectrum
    with pytest.raises(ValueError):
        wrapper(params_for(3, 2.0), nu, 5.0)


class TestNavier:
    def test_symbol_values(self):
        p = params_for(3, 2.0)
        assert navier_eigenvalues(p, 2.0) == (-16.0, -4.0)
        assert navier_eigenvalues(p, 0.0) == (0.0, 0.0)

    def test_degenerate_lambda_star(self):
        p = params_for(3, 2.0, lambda_star=-1.0)
        l1, l2 = navier_eigenvalues(p, 3.0)
        assert l1 == l2 == -9.0

    def test_degeneracy_across_dimensions(self):
        # beta = n+2 exactly reproduces the Navier symbol for all wavenumbers
        for n in (1, 2, 3):
            p = params_for(n, float(n + 2), delta=1.7)
            for nu in np.linspace(0.5, 30.0, 7):
                ref1, ref2 = navier_eigenvalues(p, float(nu))
                assert lambda1(p, float(nu)).value == pytest.approx(ref1, rel=1e-12)
                assert lambda2(p, float(nu)).value == pytest.approx(ref2, rel=1e-12)


class TestLimits:
    def test_vanishing_horizon(self):
        # beta = n, nu = 1: eigenvalues approach the Navier values as delta -> 0
        for n in (1, 2, 3):
            p = params_for(n, float(n), delta=1e-3)
            assert abs(lambda2(p, 1.0).value + 1.0) <= 1e-4
            assert abs(lambda1(p, 1.0).value + 4.0) <= 1e-4

    def test_small_z_expansion_matches_first_series_term(self):
        # lambda2/(-mu nu^2) - 1 = -a/(2(b+1)(a+1)) z^2 + O(z^4), checked by
        # Richardson extrapolation over three decades of z
        p = params_for(3, 2.0)
        d = derive(p)
        k1 = d.a / (2.0 * (d.b + 1.0) * (d.a + 1.0))
        gaps = []
        for z in (1e-1, 1e-2, 1e-3):
            nu = 2.0 * z / p.delta
            ratio = lambda2(p, nu, 1e-14).value / (-p.mu * nu * nu)
            gaps.append(abs((ratio - 1.0) / (z * z) + k1))
        assert gaps[2] <= 1e-5
        assert gaps[0] > gaps[1] > gaps[2]  # quadratic approach to the coefficient


class TestEvalSpectrum:
    def test_empty_grid(self):
        assert eval_spectrum(params_for(3, 2.0), []) == []

    def test_single_zero_point(self):
        (s,) = eval_spectrum(params_for(3, 2.0), [0.0])
        assert (s.lambda1, s.lambda2, s.lambda11, s.lambda12) == (0.0, 0.0, 0.0, 0.0)
        assert s.asym1 is None and s.asym2 is None

    def test_unsorted_grid_keeps_caller_order(self):
        p = params_for(3, 2.0, delta=2.0)
        grid = [30.0, 1.0, 0.0, 12.5, 1.0]
        by_nu = {s.nu_norm: s for s in eval_spectrum(p, sorted(grid))}
        assert eval_spectrum(p, grid) == [by_nu[nu] for nu in grid]

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            eval_spectrum(params_for(3, 2.0), [-1.0])

    def test_policy_validation(self):
        p = params_for(3, 2.0, delta=2.0)
        for z_switch in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                eval_spectrum(p, [1.0], z_switch)
        with pytest.raises(ValueError):  # checked even when no row would use it
            eval_spectrum(p, [], 0.0)
        assert [s.method for s in eval_spectrum(p, [1.0, 30.0], math.inf)] == ["series", "series"]

    def test_hybrid_switches_paths(self):
        p = params_for(3, 2.0, delta=2.0)
        samples = eval_spectrum(p, [1.0, 30.0], z_switch=20.0)
        assert samples[0].method == "series"  # z = 1
        assert samples[1].method == "asymptotic"  # z = 30
        # the asymptotic path still additively splits lambda1
        assert samples[1].lambda1 == samples[1].lambda11 + samples[1].lambda12

    def test_series_only_never_switches(self):
        p = params_for(3, 2.0, delta=2.0)
        samples = eval_spectrum(p, [30.0], math.inf)
        assert samples[0].method == "series"

    def test_deterministic(self):
        p = params_for(2, 2.5)
        grid = list(np.linspace(0.0, 10.0, 11))
        a = eval_spectrum(p, grid)
        b = eval_spectrum(p, grid)
        assert a == b

    def test_negative_semidefinite_when_lambda_star_dominates(self):
        # lambda* >= mu: both eigenvalues stay nonpositive on sampled grids
        for n, beta in ((1, 0.5), (2, 2.0), (3, 3.5)):
            p = params_for(n, beta, lambda_star=2.0)
            for s in eval_spectrum(p, list(np.linspace(0.0, 20.0, 21))):
                assert s.lambda1 <= 0.0 and s.lambda2 <= 0.0

    def test_subnormal_wavenumber_is_a_series_row(self):
        # z = delta nu / 2 underflows to 0.0 at nu = 5e-324: that row, like nu = 0,
        # takes the series with no asym companions, while nu = 1e-300 keeps z > 0
        p = params_for(2, 2.5)
        rows = eval_spectrum(p, [0.0, 5e-324, 1e-300, 1.0])
        assert [row.method for row in rows] == ["series"] * 4
        assert [row.asym1 is None for row in rows] == [True, True, False, False]
        assert [row.asym2 is None for row in rows] == [True, True, False, False]
        assert [row.branch for row in rows] == ["", "", "power_law", "power_law"]
        for row in rows[:3]:
            assert (row.lambda1, row.lambda2, row.lambda11, row.lambda12) == (0.0, 0.0, 0.0, 0.0)
        assert rows[3].lambda2 == lambda2(p, 1.0).value

    @pytest.mark.parametrize(
        "params, nu",
        [
            (params_for(3, 5.0, mu=1e308), 2.0),  # series row: lambda2 and both parts overflow
            (params_for(3, 5.0, lambda_star=1e308), 2.0),  # series row: only lambda12 overflows
            (params_for(3, 4.9, mu=1e300), 1e10),  # asymptotic row
        ],
    )
    def test_non_finite_row_raises_naming_nu(self, params, nu):
        with pytest.raises(OverflowError, match=re.escape(f"nu_norm = {nu!r}")):
            eval_spectrum(params, [0.0, nu])

    def test_series_row_with_only_asym1_overflowing(self):
        # the companion is a large-z form; a series row leaves it absent instead of failing
        p = params_for(3, 1.0, mu=1e300)
        (row,) = eval_spectrum(p, [0.02])
        assert row.method == "series"
        assert row.asym1 is None and row.abs_err1 is None
        assert math.isfinite(row.asym2) and row.branch == "power_law"
        assert row.lambda1 == lambda1(p, 0.02).value

    def test_series_row_whose_forms_overflow_has_no_companions(self):
        # z ** negative overflows in parts at z = 5e-101: both companions absent, as at nu = 0
        p = params_for(3, 2.0)
        (row,) = eval_spectrum(p, [1e-100])
        assert (row.method, row.asym1, row.asym2, row.branch) == ("series", None, None, "")
        assert row.lambda2 == lambda2(p, 1e-100).value

    def test_navier_endpoint_has_no_asym_columns(self):
        samples = eval_spectrum(params_for(3, 5.0), [1.0])
        assert samples[0].asym1 is None and samples[0].asym2 is None
        assert samples[0].method == "series"

    @pytest.mark.parametrize(
        "n, beta, lambda_star, branch",
        [
            (3, 2.5, 2.0, "power_law"),
            (2, 2.0, 2.0, "logarithmic"),
            (3, 2.5, 1.0, "power_law"),  # lambda* = mu: lambda12 is exactly 0.0
            (2, 2.0 + 1e-12, 2.0, "logarithmic"),  # inside the branch tolerance
        ],
    )
    def test_rows_past_switch_are_bitwise_asym_forms(self, n, beta, lambda_star, branch):
        p = params_for(n, beta, delta=2.0, lambda_star=lambda_star)
        grid = [5.0, 20.5, 25.0, 31.3, 60.0, 1000.0]  # z = nu: one series row, then past z_switch = 20
        rows = eval_spectrum(p, grid, z_switch=20.0)

        def bits(*values):
            return [struct.pack("<d", v) for v in values]

        forms = AsymptoticForms(p)
        for row in rows:
            l11, l12, _ = forms.parts(0.5 * p.delta * row.nu_norm)
            asym1, asym2 = l11 + l12, asym_lambda2(p, row.nu_norm)
            assert row.branch == branch
            assert bits(row.asym1, row.asym2) == bits(asym1, asym2)
            if row.nu_norm == 5.0:
                assert row.method == "series"
                continue
            assert row.method == "asymptotic"
            want = (asym1, asym2, l11, l12)
            assert bits(row.lambda1, row.lambda2, row.lambda11, row.lambda12) == bits(*want)
            if lambda_star == p.mu:
                assert bits(row.lambda12) == bits(0.0)


def separate_sum(params, nu, tol, part):
    """``part`` ("lambda2", "lambda11" or "lambda12") as (value, terms_used)
    from a single-series sum of its own series, or PrecisionExhaustedError."""
    d = derive(params)
    mu, lam = params.mu, params.lambda_star
    if nu == 0.0 or (part == "lambda12" and lam == mu):
        return 0.0, 1
    series, prefactor = {
        "lambda2": (HypergeometricSeries((1.0, d.a), (2.0, d.b + 1.0, d.a + 1.0)), -mu * nu * nu),
        "lambda11": (HypergeometricSeries((1.0, 2.5, d.a), (2.0, 1.5, d.b + 1.0, d.a + 1.0)), -3.0 * mu * nu * nu),
        "lambda12": (HypergeometricSeries((d.a,), (d.b, d.a + 1.0)), -(lam - mu) * nu * nu),
    }[part]
    z = z_of(params, nu)
    try:
        res = eval_pfq(series, z * z, tol)
    except PrecisionExhaustedError as exc:
        return type(exc)
    value = prefactor * res.value * res.value if part == "lambda12" else prefactor * res.value
    return value, res.terms_used


def summed(wrapper, params, nu, tol):
    """(value, terms_used) of ``lambda1`` or ``lambda2``, or PrecisionExhaustedError."""
    try:
        res = wrapper(params, nu, tol)
    except PrecisionExhaustedError as exc:
        return type(exc)
    return res.value, res.terms_used


#: beta = n+2 (terminating series), beta = n, lambda* = mu, and z up to 100
CONTIGUOUS_MATERIALS = [
    params_for(1, 0.5),
    params_for(2, 1.0),
    params_for(2, 2.0),
    params_for(3, 4.5),
    params_for(3, 5.0),
    params_for(2, 3.0, lambda_star=1.0),
    params_for(3, 2.5, delta=2.0),
]


class TestOneWalkPerPoint:
    # Each point sums its series in one walk of the transverse terms; every
    # part must equal a separate single-series sum, value and terms used.
    GRID = [0.0, 0.3, 2.5, 11.0, 40.0, 100.0]

    @pytest.mark.parametrize("params", CONTIGUOUS_MATERIALS)
    @pytest.mark.parametrize("tol", [1e-15, 1e-10])
    def test_rows_and_wrappers_equal_separate_sums(self, params, tol):
        rows = eval_spectrum(params, self.GRID, math.inf, tol)
        for row in rows:
            want = [separate_sum(params, row.nu_norm, tol, part) for part in ("lambda2", "lambda11", "lambda12")]
            assert [row.lambda2, row.lambda11, row.lambda12] == [v for v, _ in want]
            assert summed(lambda2, params, row.nu_norm, tol) == want[0]
            assert summed(lambda1, params, row.nu_norm, tol) == (want[1][0] + want[2][0], want[1][1] + want[2][1])

    def test_large_z_lambda1_keeps_no_term_list(self):
        # z = 2000: ~5,500 terms of ~5,900 bits, about 4 MB as a list of ints.
        # The walk holds a chunk of at most 16 of them at a time.
        params = params_for(2, 2.5)
        tracemalloc.start()
        try:
            lambda1(params, 4000.0, 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000


@st.composite
def block_grids(draw):
    """(params, grid, tol): n in 1..8, beta in [-4, n+2] (n+2 ends the series at
    its first term), and a shuffled grid of more rows than one block, with
    nu = 0, one tiny nu (z_sq hundreds of binades below the others) and rows up
    to z = 65..80; past z ~ 60 every walk with beta <= n+1 rescales."""
    n = draw(st.integers(1, 8))
    beta = draw(st.one_of(st.just(n + 2.0), st.floats(min_value=-4.0, max_value=n + 2.0)))
    delta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    lambda_star = draw(st.sampled_from([1.0, 2.5]))  # 1.0 = mu: no coupling series
    z_max = draw(st.floats(min_value=65.0, max_value=80.0))
    count = _BLOCK_ROWS + draw(st.integers(1, 40))
    zs = [z_max * k / count for k in range(1, count + 1)]
    tiny = draw(st.floats(min_value=1e-150, max_value=1e-100))  # z_sq stays a normal double
    grid = draw(st.permutations([0.0, tiny] + [2.0 * z / delta for z in zs]))
    return params_for(n, beta, delta, lambda_star=lambda_star), grid, draw(st.sampled_from([1e-15, 1e-10, 1e-3]))


class TestBlockWalk:
    @given(case=block_grids())
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_single_row_walks(self, case):
        # eval_spectrum walks its series rows in lockstep blocks; every row must
        # carry the bits of the walk at its wavenumber alone
        params, grid, tol = case
        plan = _Plan(params)
        for row in eval_spectrum(params, grid, math.inf, tol):
            if row.nu_norm == 0.0:
                continue
            got = (row.lambda2, row.lambda11, row.lambda12)
            want = plan.parts(row.nu_norm, z_of(params, row.nu_norm), tol)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), row.nu_norm
        # and so must its integers: unit, rescales, sums, terms and stops
        z_sqs = [z_of(params, nu) ** 2 for nu in grid if nu != 0.0]
        block = sorted(_walk(plan.transverse, plan.weights, z_sqs, tol, None), key=lambda row: row[0])
        for (i, *got), z_sq in zip(block, z_sqs):
            ((_, *want),) = _walk(plan.transverse, plan.weights, [z_sq], tol, None)
            assert got == want, z_sq
        if params.beta <= params.n + 1:  # the case covers rows that rescale
            assert any(row[3] for row in block)


def mpmath_parts(params, nu):
    """(lambda11, lambda12, lambda2) from ``mpmath.hyper`` at 160 bits, with a
    and b rebuilt from the material, as the benchmark's reference does."""
    with mpmath.workprec(160):
        a = (params.n + 2 - mpmath.mpf(params.beta)) / 2
        b = mpmath.mpf(params.n + 2) / 2
        x = -(mpmath.mpf(params.delta) * mpmath.mpf(nu) / 2) ** 2
        nu_sq = mpmath.mpf(nu) ** 2
        l2 = -params.mu * nu_sq * mpmath.hyper([1, a], [2, b + 1, a + 1], x)
        l11 = -3 * params.mu * nu_sq * mpmath.hyper([1, mpmath.mpf(5) / 2, a], [2, mpmath.mpf(3) / 2, b + 1, a + 1], x)
        l12 = -(mpmath.mpf(params.lambda_star) - params.mu) * nu_sq * mpmath.hyper([a], [b, a + 1], x) ** 2
        return l11, l12, l2


@st.composite
def series_points(draw):
    """(n, beta, delta, z): beta in [-4, n+2), the panel horizons, z <= 30."""
    n = draw(st.integers(1, 3))
    beta = draw(st.floats(min_value=-4.0, max_value=n + 2.0, exclude_max=True))
    return n, beta, draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.floats(min_value=0.0, max_value=30.0))


class TestRowAccuracy:
    """Every series row holds its tolerance per eigenvalue, as the benchmark
    checks it: lambda1 within tol (|lambda11| + |lambda12|), lambda2 within
    tol |lambda2|.  Each sum stops within tol / 4, so the square in lambda12
    and the roundings fit."""

    @given(point=series_points(), tol=st.sampled_from([1e-6, 1e-10, 1e-15]))
    # rows at the first two roots of the coupling 1F2(1.5; 2, 2.5) (n = 2, beta = 1)
    @example(point=(2, 1.0, 1.0, 2.942150483191762), tol=1e-15)
    @example(point=(2, 1.0, 1.0, 6.037984514005027), tol=1e-15)
    @example(point=(2, 1.0, 2.0, 6.037984514005027), tol=1e-10)
    # with each sum stopped at tol instead of tol / 4, lambda1 is 1.18 tol off here
    @example(point=(3, 0.5828452462452267, 1.0, 3.1862055043507818), tol=1e-15)
    @settings(max_examples=60, deadline=None)
    def test_series_rows_within_tol_vs_mpmath(self, point, tol):
        n, beta, delta, z = point
        params = params_for(n, beta, delta)
        nu = 2.0 * z / delta
        (row,) = eval_spectrum(params, [nu], math.inf, tol)
        l11, l12, l2 = mpmath_parts(params, nu)
        # below the smallest normal double (nu^2 underflows near nu = 1e-154) the bound is absolute
        assert abs(row.lambda1 - (l11 + l12)) <= tol * max(abs(l11) + abs(l12), sys.float_info.min)
        assert abs(row.lambda2 - l2) <= tol * max(abs(l2), sys.float_info.min)

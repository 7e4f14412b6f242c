import math
import warnings

import mpmath
import numpy as np
import pytest

from perispec.asymptotics import (
    BRANCH_TOLERANCE,
    AsymptoticForms,
    asym_lambda2,
    classify_growth,
    envelope_for,
    error_envelope,
)
from perispec.eigenvalues import MaterialParams, derive, eval_spectrum, lambda2
from perispec.special import EULER_GAMMA, digamma


def params_for(n, beta, delta=1.0, mu=1.0, lambda_star=2.0):
    return MaterialParams(n=n, delta=delta, beta=beta, mu=mu, lambda_star=lambda_star)


class TestBranchSelection:
    def test_power_law_away_from_critical(self):
        assert AsymptoticForms(params_for(3, 2.0)).branch == "power_law"
        assert AsymptoticForms(params_for(3, 4.0)).branch == "power_law"

    def test_logarithmic_at_critical(self):
        assert AsymptoticForms(params_for(2, 2.0)).branch == "logarithmic"

    def test_navier_endpoint_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticForms(params_for(3, 5.0))

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            asym_lambda2(params_for(3, 2.0), 0.0)
        with pytest.raises(ValueError):
            AsymptoticForms(params_for(3, 2.0)).parts(0.0)


class TestBranchWindow:
    # classify_growth owns the |beta - n| < BRANCH_TOLERANCE window; the forms'
    # branch must follow it at the window's edges, and no warning is raised there
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gap", [0.0, 5e-10, -5e-10, 2e-9, -2e-9, 0.25, -0.25])
    def test_branch_and_warning_follow_classification(self, n, gap):
        p = params_for(n, n + gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forms = AsymptoticForms(p)
        assert (forms.branch == "logarithmic") == (classify_growth(p) == "log_divergent")
        assert forms.branch == ("logarithmic" if abs(gap) < BRANCH_TOLERANCE else "power_law")


class TestTransverseAsymptote:
    def test_bounded_case_hand_value(self):
        # (n=3, beta=2, delta=1, mu=1): -30 + 8 Gamma(3.5) Gamma(2.5) / z
        p = params_for(3, 2.0)
        for z in (10.0, 1000.0):
            nu = 2.0 * z
            want = -30.0 + 8.0 * math.gamma(3.5) * math.gamma(2.5) / z
            assert asym_lambda2(p, nu) == pytest.approx(want, rel=1e-14)

    def test_bounded_case_against_series_within_envelope(self):
        p = params_for(3, 2.0)
        for z in (200.0, 1000.0):
            nu = 2.0 * z
            exact = lambda2(p, nu, 1e-12).value
            gap = abs(exact - asym_lambda2(p, nu))
            assert gap <= 1.5 * error_envelope("lambda2", p, nu)

    def test_one_dimensional_constant(self):
        # (n=1, beta=0): a = b = 3/2, constant term -4 mu a b/(d^2 (a-1)) = -18
        p = params_for(1, 0.0)
        exact = lambda2(p, 2.0 * 1000.0, 1e-12).value
        approx = asym_lambda2(p, 2.0 * 1000.0)
        d = derive(p)
        assert -4.0 * d.a * d.b / (d.a - 1.0) == pytest.approx(-18.0, rel=0)
        assert abs(exact - approx) <= 1.5 * error_envelope("lambda2", p, 2000.0)

    def test_log_branch_zero_crossing(self):
        # the parenthesis 2 log z + gamma - psi(b) vanishes at z = e^{(psi(b)-gamma)/2}
        p = params_for(2, 2.0)
        z0 = math.exp((digamma(2.0) - EULER_GAMMA) / 2.0)
        assert z0 == pytest.approx(0.9256901931930326, rel=1e-14)
        assert asym_lambda2(p, 2.0 * z0 / p.delta) == pytest.approx(0.0, abs=1e-13)

    def test_log_branch_tracks_series(self):
        for n in (1, 2, 3):
            p = params_for(n, float(n))
            nu = 800.0
            exact = lambda2(p, nu, 1e-12).value
            assert asym_lambda2(p, nu) == pytest.approx(exact, rel=1e-4)


class TestLongitudinalDyadicAsymptote:
    def test_vanishing_power_term_below_critical(self):
        # (n - beta - 1) = 0 at beta = n-1: pure constant -4 mu a b/(d^2(a-1))
        p = params_for(3, 2.0)
        forms = AsymptoticForms(p)
        assert forms.parts(5.0)[0] == forms.parts(5000.0)[0] == pytest.approx(-30.0, rel=1e-14)
        # and the series approaches that constant within the envelope
        (row,) = eval_spectrum(p, [2000.0], math.inf, 1e-12)
        exact = row.lambda11
        assert abs(exact + 30.0) <= 1.5 * error_envelope("lambda11", p, 2000.0)

    def test_linear_growth_at_beta_n_plus_one(self):
        # the power term must NOT vanish at beta = n+1: lambda11 grows ~ z
        p = params_for(3, 4.0)
        forms = AsymptoticForms(p)
        v1 = forms.parts(100.0)[0]
        v2 = forms.parts(200.0)[0]
        assert (v2 - v1) != 0.0
        assert (v2 - v1) / v1 == pytest.approx(1.0, rel=0.1)  # doubling z ~ doubles the z-term
        (row,) = eval_spectrum(p, [2.0 * 200.0], math.inf, 1e-12)
        exact = row.lambda11
        assert v2 == pytest.approx(exact, rel=1e-4)

    def test_log_branch_offset_from_transverse(self):
        # at beta = n the two log branches differ by exactly -8 mu a b / d^2
        for n in (1, 2, 3):
            p = params_for(n, float(n), delta=1.3)
            d = derive(p)
            for z in (0.5 * 1.3 * 5.0, 0.5 * 1.3 * 50.0):
                l11, _, l2 = AsymptoticForms(p).parts(z)
                gap = l11 - l2
                assert gap == pytest.approx(-8.0 * p.mu * d.a * d.b / p.delta ** 2, rel=1e-13)


class TestCouplingAsymptote:
    def test_equal_lame_parameters(self):
        assert AsymptoticForms(params_for(3, 2.0, lambda_star=1.0)).parts(2.5)[1] == 0.0

    def test_exact_zero_at_beta_zero(self):
        # 1/Gamma(0) = 0 exactly, for any dimension
        assert AsymptoticForms(params_for(2, 0.0)).parts(2.5)[1] == 0.0
        assert AsymptoticForms(params_for(3, 0.0)).parts(2.5)[1] == 0.0

    def test_hand_value_and_series_agreement(self):
        # (n=3, beta=3, mu=1, lambda*=2): -[Gamma(2.5)Gamma(2)/Gamma(1.5)]^2 4 z^-2 = -9 z^-2
        p = params_for(3, 3.0)
        forms = AsymptoticForms(p)
        for z in (10.0, 100.0):
            assert forms.parts(z)[1] == pytest.approx(-9.0 / z ** 2, rel=1e-13)
        (row,) = eval_spectrum(p, [2.0 * 100.0], math.inf, 1e-12)
        assert forms.parts(100.0)[1] == pytest.approx(row.lambda12, rel=2e-2)


class TestComposition:
    def test_sum_is_bitwise_exact(self):
        # an asymptotic row's lambda1 is the two parts' sum, to the bit
        for n, beta in ((3, 2.0), (2, 2.0), (3, 4.0)):
            p = params_for(n, beta, delta=0.8, lambda_star=3.0)
            for nu in (3.0, 30.0, 300.0):
                l11, l12, _ = AsymptoticForms(p).parts(0.5 * 0.8 * nu)
                (row,) = eval_spectrum(p, [nu], z_switch=0.5)
                assert row.method == "asymptotic"
                assert row.lambda1 == row.asym1 == l12 + l11

    def test_reduces_to_dyadic_when_lame_equal(self):
        p = params_for(3, 2.0, lambda_star=1.0)
        assert sum(AsymptoticForms(p).parts(3.5)[:2]) == AsymptoticForms(p).parts(3.5)[0]

    def test_branch_consistency_near_critical(self):
        # power branch at beta = n +- 1e-6 converges to the log branch value
        for z in (10.0, 100.0):
            log_val = asym_lambda2(params_for(3, 3.0), 2.0 * z)
            for eps in (1e-6, -1e-6):
                pl_val = asym_lambda2(params_for(3, 3.0 + eps), 2.0 * z)
                assert pl_val == pytest.approx(log_val, rel=1e-3)

    def test_sign_structure_above_critical(self):
        # beta > n, lambda* >= mu: lambda1 <= lambda2 < 0 from z0 = 2 onward
        p = params_for(3, 4.0)
        for z in np.geomspace(2.0, 500.0, 12):
            a1 = sum(AsymptoticForms(p).parts(float(z))[:2])
            a2 = asym_lambda2(p, 2.0 * float(z))
            assert a1 <= a2 < 0.0


class TestNearCriticalPowerBranch:
    # just outside the branch window the power branch cancels two ~1/(beta-n)
    # terms; the bounded limit's a - 1 must be as exact as the power term's beta - n
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [3e-9, -3e-9, 1e-6, -1e-6])
    def test_matches_60_digit_formula(self, n, eps):
        p = params_for(n, n + eps)
        forms = AsymptoticForms(p)
        assert forms.branch == "power_law"
        with mpmath.workdps(60):
            beta = mpmath.mpf(p.beta)
            a, b = (n + 2 - beta) / 2, mpmath.mpf(n + 2) / 2
            limit = -4 * a * b / (a - 1)
            g = mpmath.gamma(b + 1) * mpmath.gamma(a + 1) / mpmath.gamma((beta + 2) / 2)
            for z in (20.0, 500.0, 1e4):
                power = mpmath.mpf(z) ** (beta - n)
                want2 = limit - g / ((beta - n) / 2) * 4 * power
                want11 = limit - (n - beta - 1) / (n - beta) * g * 8 * power
                l11, _, l2 = forms.parts(z)
                assert abs(l2 - want2) <= 1e-6 * abs(want2)
                assert abs(l11 - want11) <= 1e-6 * abs(want11)


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "which,n,exponent",
        [
            ("lambda2", 3, -3.0),
            ("lambda2", 1, -2.0),
            ("lambda11", 2, -1.5),
        ],
    )
    def test_decay_exponents(self, which, n, exponent):
        assert envelope_for(which, params_for(n, float(n))) == exponent

    def test_envelope_value_scales(self):
        p = params_for(3, 2.0)
        assert error_envelope("lambda2", p, 2.0 * 100.0) == pytest.approx(
            error_envelope("lambda2", p, 2.0 * 200.0) * 2.0 ** 3, rel=1e-12
        )

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            envelope_for("lambda3", params_for(3, 2.0))


class TestGrowthClassification:
    def test_bounded(self):
        assert classify_growth(params_for(3, 2.0)) == "bounded"

    def test_logarithmic(self):
        assert classify_growth(params_for(2, 2.0)) == "log_divergent"

    def test_power_rate_is_linear_one_above_critical(self):
        assert classify_growth(params_for(3, 4.0)) == "power_divergent"

    def test_navier_endpoint_rejected(self):
        with pytest.raises(ValueError):
            classify_growth(params_for(3, 5.0))

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from perispec.special import EULER_GAMMA, digamma, reciprocal_gamma

class TestGamma:
    # math.gamma at the arguments derive and the asymptotic forms give it
    def test_gamma_one(self):
        assert math.gamma(1.0) == 1.0

    def test_half_integers_closed_form(self):
        assert math.gamma(2.5) == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, rel=1e-15)
        assert math.gamma(3.5) == pytest.approx(15.0 * math.sqrt(math.pi) / 8.0, rel=1e-15)

    @pytest.mark.parametrize("k", range(21))
    def test_half_integer_ladder(self, k):
        # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
        expected = float(Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))) * math.sqrt(math.pi)
        assert math.gamma(k + 0.5) == pytest.approx(expected, rel=1e-13)

    def test_recurrence_random(self):
        rng = np.random.default_rng(20240811)
        for x in rng.uniform(1e-3, 50.0, size=1000):
            lhs = math.gamma(x + 1.0)
            rhs = x * math.gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -170.0])
    def test_pole_error(self, x):
        # so the forms take 1/Gamma(beta/2) from reciprocal_gamma, exactly 0 there
        with pytest.raises(ValueError):
            math.gamma(x)

    def test_overflow_error_distinct_from_pole(self):
        with pytest.raises(OverflowError):
            math.gamma(172.0)

    def test_negative_arguments(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert math.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


class TestReciprocalGamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -120.0])
    def test_exact_zero_at_poles(self, x):
        assert reciprocal_gamma(x) == 0.0

    def test_inverse_sqrt_pi(self):
        assert reciprocal_gamma(0.5) == pytest.approx(0.5641895835477563, rel=1e-13)

    def test_reflection_consistency(self):
        # reciprocal_gamma(x) * math.gamma(x) = 1 away from the poles
        xs = np.concatenate(
            [
                np.linspace(0.05, 169.5, 400),
                np.linspace(-169.6, -0.1, 400) + 0.045,  # keep clear of integers
            ]
        )
        for x in xs:
            if abs(x - round(x)) < 1e-3:
                continue
            prod = reciprocal_gamma(float(x)) * math.gamma(float(x))
            assert abs(prod - 1.0) <= 1e-11

    def test_large_positive_underflow_is_graceful(self):
        assert reciprocal_gamma(500.0) == 0.0


class TestDigamma:
    def test_psi_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)

    def test_psi_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-14)

    def test_psi_two_point_five(self):
        # recurrence from psi(1/2): -gamma - 2 ln 2 + 2 + 2/3
        expected = -EULER_GAMMA - 2.0 * math.log(2.0) + 2.0 + 2.0 / 3.0
        assert digamma(2.5) == pytest.approx(expected, rel=1e-14)
        assert digamma(2.5) == pytest.approx(0.7031566406452434, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5 * k for k in range(1, 41)])
    def test_recurrence_half_grid(self, x):
        lhs = digamma(x + 1.0) - digamma(x)
        assert abs(lhs - 1.0 / x) <= 1e-12 * abs(1.0 / x)

    @pytest.mark.parametrize("x", [2.3, 3.25, 0.1, math.inf])
    def test_off_lattice_rejected(self, x):
        with pytest.raises(ValueError):
            digamma(x)

    @pytest.mark.parametrize("x", [200.5, 300.0])
    def test_large_argument_against_mpmath(self, x):
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -0.5, -3.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestEulerGamma:
    def test_published_value(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)

    def test_digamma_identity(self):
        assert digamma(1.0) == -EULER_GAMMA

    def test_bracket(self):
        assert 0.577 < EULER_GAMMA < 0.578

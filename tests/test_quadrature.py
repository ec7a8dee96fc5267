import math

import numpy as np
import pytest
from scipy.special import kve

from nilelab.quadrature import (LaplaceIntegralSpec, QuadratureFailure, bessel_k, cond_moment, cond_moment_bessel,
                                cond_second_moment_ratio, laplace_integral,
                                laplace_integral_bessel)

# Frozen oracle values (high-precision evaluation of the integral
# representations; cross-checked against standard tables).
K0_2 = 0.1138938727495334
K1_2 = 0.1398658818165224
K2_2 = 0.2537597545660558


class TestBesselK:
    def test_table_values(self):
        assert bessel_k(0, 2.0) == pytest.approx(K0_2, rel=1e-10)
        assert bessel_k(1, 2.0) == pytest.approx(K1_2, rel=1e-10)
        assert bessel_k(2, 2.0) == pytest.approx(K2_2, rel=1e-10)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_recurrence(self, nu):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for x in np.linspace(0.5, 20.0, 40):
            lhs = bessel_k(nu + 1, float(x))
            rhs = bessel_k(nu - 1, float(x)) + (2.0 * nu / x) * bessel_k(nu, float(x))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0, 1e-4)
        with pytest.raises(ValueError):
            bessel_k(-1, 2.0)
        with pytest.raises(ValueError):
            bessel_k(0, -1.0)


class TestLaplaceIntegral:
    def test_nu_zero_anchor(self):
        r = laplace_integral(LaplaceIntegralSpec(0.0, 1.0, 1.0))
        assert r.value == pytest.approx(2.0 * K0_2, rel=1e-10)
        assert r.abs_error_estimate >= 0
        assert r.evaluations > 0

    def test_nu_minus_one_anchor(self):
        r = laplace_integral(LaplaceIntegralSpec(-1.0, 1.0, 1.0))
        assert r.value == pytest.approx(2.0 * K1_2, rel=1e-10)

    def test_order_reflection_identity(self):
        # z -> a/(b z) swaps (a, b) and flips the order: I(nu,a,b) = I(-nu,b,a);
        # keeping (a, b) costs the prefactor: I(nu,a,b) = (a/b)^nu I(-nu,a,b)
        v1 = laplace_integral(LaplaceIntegralSpec(1.0, 1.0, 4.0)).value
        v2 = laplace_integral(LaplaceIntegralSpec(-1.0, 4.0, 1.0)).value
        v3 = laplace_integral(LaplaceIntegralSpec(-1.0, 1.0, 4.0)).value
        assert v1 == pytest.approx(v2, rel=1e-10)
        assert v1 == pytest.approx(0.25 * v3, rel=1e-10)

    def test_spec_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LaplaceIntegralSpec(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            LaplaceIntegralSpec(0.0, 1.0, 0.0)

    def test_cross_validation_sweep(self):
        # the two independent evaluation paths agree to 1e-8 everywhere
        for nu in range(-3, 4):
            for n in range(1, 11):
                for w in (0.1, 0.25, 1.0, 4.0, 10.0):
                    got = laplace_integral(LaplaceIntegralSpec(nu, n, n * w)).value
                    want = laplace_integral_bessel(nu, n, n * w)
                    assert got == pytest.approx(want, rel=1e-8)


class TestCondMoment:
    def test_first_moment_anchor(self):
        # sqrt(w) K_1(2n sqrt(w)) / K_0(2n sqrt(w)) at w = n = 1
        assert cond_moment(1, 1.0, 1) == pytest.approx(K1_2 / K0_2, rel=1e-8)

    def test_second_moment_anchor(self):
        assert cond_moment(2, 1.0, 1) == pytest.approx(K2_2 / K0_2, rel=1e-8)

    def test_matches_bessel_closed_form(self):
        for m in (1, 2, 3):
            for w in (0.1, 1.0, 4.0):
                for n in (1, 5):
                    assert cond_moment(m, w, n) == pytest.approx(
                        cond_moment_bessel(m, w, n), rel=1e-8)

    def test_large_w_asymptote(self):
        # E(ybar | W=w)/sqrt(w) -> 1 as w grows (K_1/K_0 -> 1)
        assert abs(cond_moment(1, 400.0, 1) / 20.0 - 1.0) < 0.013

    def test_monotone_in_w(self):
        ws = np.geomspace(0.05, 50.0, 50)
        vals = [cond_moment(1, float(w), 2) for w in ws]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_arguments_no_underflow(self):
        # shared exponential decay cancels in the ratio
        v = cond_moment(1, 1e6, 10)
        assert v == pytest.approx(1e3, rel=1e-3)

    def test_unresolved_integral_raises(self):
        # at n = 1e6 quad returns 0 (error estimate 0) for a positive integral
        with pytest.raises(QuadratureFailure, match="gave 0"):
            cond_moment(1, 1e6, 10 ** 6)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cond_moment(0, 1.0, 1)
        with pytest.raises(ValueError):
            cond_moment(7, 1.0, 1)
        with pytest.raises(ValueError):
            cond_moment(1, -1.0, 1)

    @pytest.mark.parametrize("w", [1e-9, 1e-17, 1e-20, 1e-80])
    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_small_w_matches_kve(self, w, n):
        # near w = 0, nu + sqrt(nu^2 + 4ab) cancels in the peak of I(-m, n, n w)
        x = 2.0 * n * math.sqrt(w)
        for m in range(1, 7):
            want = w ** (m / 2.0) * kve(m, x) / kve(0, x)
            assert cond_moment(m, w, n) == pytest.approx(want, rel=1e-12)

    def test_far_below_the_table_grid(self):
        for m in (1, 2):
            assert math.isfinite(cond_moment(m, 1e-200, 1))


class TestSecondMomentRatio:
    def test_anchor_values(self):
        assert cond_second_moment_ratio(1.0, 1) == pytest.approx(
            K2_2 * K0_2 / K1_2 ** 2, rel=1e-8)
        assert cond_second_moment_ratio(4.0, 1) == pytest.approx(1.246131, abs=1e-5)

    def test_exceeds_one_and_decreasing(self):
        # conditional Jensen: ratio > 1; decays toward 1 as w grows
        ws = np.geomspace(0.1, 100.0, 30)
        vals = [cond_second_moment_ratio(float(w), 1) for w in ws]
        assert all(v > 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_large_w_limit(self):
        assert cond_second_moment_ratio(1e4, 1) == pytest.approx(1.0, abs=5e-3)

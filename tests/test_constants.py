"""Closed-form constants: frozen oracle values, reductions, monotonicity.

Frozen literals were produced by the 50-digit mpmath path; each frozen block
recomputes its oracle in-test so a regression in either path is caught.
"""

import math
import re

import mpmath
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    BlochBound,
    ClassicalLandau,
    DistortionBound,
    EllipticityParams,
    LandauResult,
    bloch_jacobian_normalized,
    bloch_lambda_normalized,
    classical_landau,
    coeff_bound,
    growth_rate,
    landau,
    psi,
    remark_inequalities,
)

P = EllipticityParams
B = DistortionBound


def hp_growth_rate(K, Kp, lam):
    with mpmath.workdps(50):
        K, Kp, lam = mpmath.mpf(K), mpmath.mpf(Kp), mpmath.mpf(lam)
        return K * lam + 2 * (Kp - 1) / (K * lam + mpmath.sqrt(K**2 * lam**2 + 4 * Kp))


def hp_psi(t):
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return 1 + t * mpmath.log(t / (1 + t))


class TestPsi:
    def test_frozen_value(self):
        # psi(1.5) = 1 + 1.5*log(0.6)
        assert psi(1.5) == pytest.approx(0.23376156435101392, abs=1e-16)
        assert float(hp_psi(1.5)) == pytest.approx(psi(1.5), abs=1e-15)

    def test_near_zero_limit(self):
        val = psi(1e-8)
        assert 1 - 1e-6 < val < 1

    def test_large_argument_bracket(self):
        # psi(t) lies strictly between 1/(2t+2) and 1/(2t); at t = 1e12 the
        # bracket is only ~1e-12 of psi wide, and the double path meets it
        for t in (1e6, 1e8, 1e10, 1e12):
            assert 1 / (2 * t + 2) < psi(t) < 1 / (2 * t)
        with mpmath.workdps(50):
            t = mpmath.mpf(1e6)
            assert 1 / (2 * t + 2) < psi(t, ctx=mpmath) < 1 / (2 * t)

    def test_double_path_matches_50_digits(self):
        # the closed form below t = 16 and the series above it, each within
        # 2^-46 of psi across fourteen decades
        for i in range(801):
            t = 10.0 ** (-8 + i / 40)
            assert abs(psi(t) / hp_psi(t) - 1) < 2.0**-46, t

    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                psi(bad)

    @given(st.floats(min_value=-6, max_value=6), st.floats(min_value=1e-4, max_value=6))
    def test_strictly_decreasing(self, log_t, gap):
        t = math.exp(log_t)
        assert psi(t) > psi(t + gap)

    @given(st.floats(min_value=-10, max_value=12))
    def test_range(self, log_t):
        assert 0 < psi(math.exp(log_t)) < 1

    def test_mpmath_context(self):
        with mpmath.workdps(50):
            val = psi(mpmath.mpf("1.5"), ctx=mpmath)
            assert isinstance(val, mpmath.mpf)
            assert abs(val - hp_psi(1.5)) < mpmath.mpf("1e-45")


class TestGrowthRate:
    def test_frozen(self):
        assert growth_rate(P(1, 0), B(2)) == pytest.approx(1.5, abs=1e-15)
        # Kp = 1 kills the correction exactly
        assert growth_rate(P(2, 1), B(1)) == 2.0
        assert growth_rate(P(1, 0), B(1)) == 0.0

    def test_against_hp(self):
        for K, Kp, lam in [(1, 0, 2), (2, 0.5, 1.5), (8, 10, 5), (1.5, 0.25, 1.2)]:
            assert growth_rate(P(K, Kp), B(lam)) == pytest.approx(
                float(hp_growth_rate(K, Kp, lam)), abs=1e-13)

    @given(
        st.floats(min_value=1, max_value=8),
        st.floats(min_value=0, max_value=8),
        st.floats(min_value=1, max_value=8),
    )
    def test_nonnegative(self, K, Kp, lam):
        assert growth_rate(P(K, Kp), B(lam)) >= 0.0

    def test_monotone_in_each_argument(self):
        base = growth_rate(P(2, 1), B(1.5))
        assert growth_rate(P(2.5, 1), B(1.5)) > base
        assert growth_rate(P(2, 2), B(1.5)) > base
        assert growth_rate(P(2, 1), B(2.0)) > base


class TestCoeffBound:
    def test_reduction_at_kp_zero(self):
        # at Kp = 0 the rate collapses to K*lam - 1/(K*lam)
        assert coeff_bound(2, P(1, 0), B(2)) == pytest.approx(0.75, abs=1e-15)

    def test_kp_one_exact(self):
        assert coeff_bound(3, P(2, 1), B(1)) == pytest.approx(2 / 3, abs=0)

    def test_degenerate_rate(self):
        for n in (2, 5, 17):
            assert coeff_bound(n, P(1, 0), B(1)) == 0.0

    def test_times_n_is_the_rate(self):
        params, bound = P(1.5, 0.75), B(2.5)
        T = growth_rate(params, bound)
        for n in range(2, 40):
            assert coeff_bound(n, params, bound) * n == pytest.approx(T, rel=1e-15)

    def test_degree_validation(self):
        for bad in (1, 0, -3, 2.0, True):
            with pytest.raises(ValueError):
                coeff_bound(bad, P(1, 0), B(2))


class TestLandau:
    def test_frozen_lam2(self):
        res = landau(P(1, 0), B(2))
        assert res.T == pytest.approx(1.5, abs=1e-15)
        assert res.r1 == pytest.approx(0.4, abs=1e-15)
        assert res.sigma1 == pytest.approx(0.23376156435101392, abs=1e-15)

    def test_frozen_kp1(self):
        res = landau(P(1, 1), B(1))
        assert res.T == pytest.approx(1.0, abs=1e-15)
        assert res.r1 == pytest.approx(0.5, abs=1e-15)
        assert res.sigma1 == pytest.approx(1 + math.log(0.5), abs=1e-15)
        assert res.sigma1 == pytest.approx(0.3068528194400547, abs=1e-15)

    def test_degenerate_is_exact(self):
        res = landau(P(1, 0), B(1))
        assert (res.T, res.r1, res.sigma1) == (0.0, 1.0, 1.0)

    def test_overflowing_rate_is_rejected(self):
        # K*lam = inf gives T = inf and sigma1 = nan; 2*(Kp - 1) = inf gives T = nan
        for params, bound in ((P(1e200, 0), B(1e200)), (P(2, 1e308), B(2))):
            with pytest.raises(ValueError, match="growth rate overflows"):
                landau(params, bound)
        # the Bloch rates overflow, or the Jacobian-normalized rho underflows to 0
        for bloch, params in ((bloch_lambda_normalized, P(1.0, 1e308)), (bloch_jacobian_normalized, P(1.0, 1e160)),
                              (bloch_jacobian_normalized, P(1e300, 0.0))):
            with pytest.raises(ValueError, match="Bloch rate overflows or radius underflows for K = "
                                                 + re.escape(f"{params.K!r}, Kp = {params.Kp!r}")):
                bloch(params)

    def test_sigma_is_psi_of_T(self):
        for K in (1, 1.5, 2, 4, 8):
            for Kp in (0, 0.25, 1, 4, 10):
                for lam in (1.5, 2, 5):
                    res = landau(P(K, Kp), B(lam))
                    assert res.sigma1 == psi(res.T)
                    assert res.r1 == 1 / (1 + res.T)

    def test_kp_zero_reductions(self):
        # closed forms T = K*lam - 1/(K*lam), r1 = K*lam/(K^2 lam^2 + K*lam - 1)
        for K in (1, 2, 4):
            for lam in (1.2, 2, 5):
                res = landau(P(K, 0), B(lam))
                kl = K * lam
                assert res.T == pytest.approx(kl - 1 / kl, abs=1e-13)
                assert res.r1 == pytest.approx(kl / (kl * kl + kl - 1), abs=1e-13)

    def test_r1_strictly_decreasing(self):
        for hold, vary in [
            (lambda x: landau(P(x, 1), B(2)).r1, [1, 2, 4, 8]),
            (lambda x: landau(P(2, x), B(2)).r1, [0, 0.5, 1, 4]),
            (lambda x: landau(P(2, 1), B(x)).r1, [1, 1.5, 3, 6]),
        ]:
            vals = [hold(x) for x in vary]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ranges(self):
        res = landau(P(3, 2), B(4))
        assert 0 < res.r1 <= 1
        assert 0 < res.sigma1 <= 1

    def test_mpmath_context(self):
        with mpmath.workdps(50):
            res = landau(P(mpmath.mpf(1), mpmath.mpf(0)), B(mpmath.mpf(2)), ctx=mpmath)
            assert abs(res.sigma1 - hp_psi(hp_growth_rate(1, 0, 2))) < mpmath.mpf("1e-45")


class TestBlochBounds:
    def test_frozen_lambda_route(self):
        b = bloch_lambda_normalized(P(1, 0))
        assert b.kind == "lambda0"
        assert b.t == pytest.approx(1.5, abs=1e-15)
        # 50-digit oracle: psi(1.5)/sqrt(2) = 0.16529438733337748...
        assert b.rho == pytest.approx(0.16529438733337748, abs=1e-15)
        assert b.rho < 0.4719

    def test_correction_free_point(self):
        # 4*Kp - 1 = 0 removes the correction term entirely
        b = bloch_lambda_normalized(P(1, 0.25))
        assert b.t == pytest.approx(2.0, abs=1e-15)
        assert b.rho == pytest.approx(psi(2.0) / math.sqrt(2), abs=1e-16)

    def test_frozen_jacobian_route(self):
        b = bloch_jacobian_normalized(P(1, 1))
        assert b.kind == "jacobian0"
        # effective additive constant 1*(1+1) = 2: t = 2 + 7/(1 + 3)
        assert b.t == pytest.approx(3.75, abs=1e-15)
        assert b.rho == pytest.approx(psi(3.75) / 2.0, abs=1e-16)

    def test_factored_identity_against_hp(self):
        for K in (1, 1.5, 2, 4, 8):
            for Kp in (0, 0.25, 1, 4, 10):
                b = bloch_lambda_normalized(P(K, Kp))
                assert b.rho == pytest.approx(float(hp_psi(b.t) / mpmath.sqrt(2)), abs=1e-12)
                c = bloch_jacobian_normalized(P(K, Kp))
                ref = float(hp_psi(c.t) / mpmath.sqrt(2 * (mpmath.mpf(K) + mpmath.mpf(Kp))))
                assert c.rho == pytest.approx(ref, abs=1e-12)

    def test_routes_agree_only_at_k1(self):
        # at Kp = 0 both rates equal 2K - 1/(2K) but the normalizations
        # differ by sqrt(K); the two bounds coincide exactly when K = 1
        a, b = bloch_lambda_normalized(P(1, 0)), bloch_jacobian_normalized(P(1, 0))
        assert a.t == pytest.approx(b.t, abs=1e-15)
        assert a.rho == pytest.approx(b.rho, abs=1e-15)
        for K in (2.0, 4.0):
            a, b = bloch_lambda_normalized(P(K, 0)), bloch_jacobian_normalized(P(K, 0))
            assert a.t == pytest.approx(b.t, abs=1e-14)
            assert a.rho == pytest.approx(math.sqrt(K) * b.rho, abs=1e-14)

    def test_decay_in_k(self):
        values = [bloch_lambda_normalized(P(float(2**j), 0.5)).rho for j in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_jacobian_route_below_lambda_route_sampled(self):
        # exploratory ordering, recorded as a test because it held on the
        # whole sampled box; not a theorem
        for K in (1, 1.5, 2, 4):
            for Kp in (0.1, 0.5, 1, 4):
                assert bloch_jacobian_normalized(P(K, Kp)).rho <= bloch_lambda_normalized(P(K, Kp)).rho

    def test_validation(self):
        with pytest.raises(ValueError):
            BlochBound(t=1.0, rho=0.5, kind="other")
        with pytest.raises(ValueError):
            BlochBound(t=0.0, rho=0.5, kind="lambda0")
        with pytest.raises(ValueError):
            BlochBound(t=1.0, rho=1.5, kind="lambda0")


class TestClassicalLandau:
    def test_degenerate(self):
        res = classical_landau(1)
        assert (res.r0, res.R0) == (1.0, 1.0)

    def test_frozen_m2(self):
        res = classical_landau(2)
        assert res.r0 == pytest.approx(1 / (2 + math.sqrt(3)), abs=1e-16)
        assert res.r0 == pytest.approx(0.2679491924311227, abs=1e-15)
        assert res.R0 == pytest.approx(0.14359353944898165, abs=1e-15)
        assert res.R0 == 2 * res.r0 * res.r0

    def test_asymptotic(self):
        res = classical_landau(1e6)
        assert res.M * res.r0 == pytest.approx(0.5, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_landau(0.99)

    @given(st.floats(min_value=1, max_value=1e6))
    def test_radii_ordering(self, M):
        res = classical_landau(M)
        assert 0 < res.R0 <= res.r0 <= 1


class TestRemarkInequalities:
    def test_literal_radius_fails_here(self):
        # the printed comparison r1 > 1/baseline is genuinely false at this
        # point; the chain form r1 > 1/(1+baseline) is the true statement
        checks = remark_inequalities(P(1, 0), B(2))
        assert checks.radius_literal_slack == pytest.approx(-0.1, abs=1e-15)
        assert not checks.radius_literal_holds
        assert checks.radius_holds and checks.radius_slack > 0
        assert checks.correction_holds
        assert checks.sigma_holds

    def test_interior_point(self):
        checks = remark_inequalities(P(2, 3), B(1.5))
        assert checks.correction_holds and checks.radius_holds and checks.sigma_holds
        assert checks.baseline_rate == pytest.approx(3 + math.sqrt(3), abs=1e-15)

    def test_near_degenerate(self):
        checks = remark_inequalities(P(1, 1), B(1.0001))
        assert checks.correction_holds and checks.radius_holds and checks.sigma_holds

    def test_lam_one_rejected(self):
        with pytest.raises(ValueError):
            remark_inequalities(P(1, 1), B(1.0))


class TestValidation:
    def test_distortion_bound(self):
        for bad in (0.5, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                DistortionBound(bad)

    def test_params(self):
        with pytest.raises(ValueError):
            P(0.5, 0)
        with pytest.raises(ValueError):
            P(1, -0.1)

    def test_landau_result(self):
        with pytest.raises(ValueError):
            LandauResult(T=-0.5, r1=0.5, sigma1=0.5)

    def test_classical_dataclass_is_plain(self):
        # the operation validates; the record itself is storage
        rec = ClassicalLandau(M=2.0, r0=0.25, R0=0.125)
        assert rec.M == 2.0

"""Extremal families: coefficient laws, truncation tails, validation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    DistortionBound,
    EllipticityParams,
    build_classical,
    build_Fn,
    coeff_bound,
)


def pinned_coeff(n: int, lam: float, degree: int) -> complex:
    """Independent restatement of the series law for cross-checking.

    Nonzero only in degrees d = k(n-1)+1: a_1 = 1 and
    a_d = (-1)^(k+1) (lam^2 - 1) / (d lam^k) for k >= 1.
    """
    if degree == 1:
        return 1.0
    k, rem = divmod(degree - 1, n - 1)
    if rem != 0 or k < 1:
        return 0.0
    return (-1) ** (k + 1) * (lam * lam - 1.0) / (degree * lam**k)


def classical_rational(M: float, z):
    return M * z * (1 - M * z) / (M - z)


class TestPinnedFamily:
    def test_frozen_f2(self):
        f = build_Fn(2, 2.0)
        assert f.a_n(1) == 1.0
        assert f.a_n(2) == 0.75
        assert f.a_n(3) == -0.25
        assert f.eval(0.3) == pytest.approx(0.3614283457490478, abs=1e-15)
        assert all(f.b_n(k) == 0 for k in range(1, f.truncation_degree + 1))

    @given(st.integers(min_value=2, max_value=7),
           st.floats(min_value=1.0, max_value=6.0))
    def test_coefficient_law(self, n, lam):
        f = build_Fn(n, lam, n_terms=40)
        for d in range(1, 41):
            assert f.a_n(d) == pytest.approx(pinned_coeff(n, lam, d), rel=1e-15, abs=1e-18)

    def test_identity_at_lam_one(self):
        f = build_Fn(3, 1.0)
        assert f.a_n(1) == 1.0
        assert np.all(f.analytic_coeffs[2:] == 0)
        assert f.tail_bound == 0.0

    def test_sign_alternation(self):
        f = build_Fn(2, 3.0, n_terms=12)
        # degrees 2, 3, 4, ... carry signs +, -, +, ...
        for k in range(1, 12):
            d = k + 1
            assert np.sign(f.a_n(d).real) == (1.0 if k % 2 == 1 else -1.0)

    def test_attains_the_coefficient_bound(self):
        params = EllipticityParams(1, 0)
        for n in range(2, 9):
            for lam in (1.5, 2.0, 5.0):
                f = build_Fn(n, lam, n_terms=max(16, n))
                target = coeff_bound(n, params, DistortionBound(lam))
                assert abs(f.a_n(n)) == pytest.approx(target, abs=1e-15)

    def test_normalization_exact(self):
        f = build_Fn(4, 3.0)
        assert f.eval(0.0) == 0.0
        fz, fzb = f.partials(0.0)
        assert fz == 1.0 and fzb == 0.0

    def test_tail_sound_at_reference_radius(self):
        small = build_Fn(2, 2.0, n_terms=8, r_ref=0.9)
        big = build_Fn(2, 2.0, n_terms=96, r_ref=0.9)
        theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        z = 0.9 * np.exp(1j * theta)
        gap = np.abs(small.eval(z) - big.eval(z))
        assert float(gap.max()) <= small.tail_bound
        # and the bound is not vacuous: same order of magnitude
        assert small.tail_bound < 40 * float(gap.max())

    def test_validation(self):
        with pytest.raises(ValueError):
            build_Fn(1, 2.0)
        with pytest.raises(ValueError):
            build_Fn(2, 0.5)
        with pytest.raises(ValueError):
            build_Fn(5, 2.0, n_terms=4)  # cannot hold the first nonlinear term
        with pytest.raises(ValueError):
            build_Fn(2, 2.0, r_ref=1.0)
        with pytest.raises(ValueError):
            build_Fn(2, math.inf)

    def test_terms_past_the_float_range_of_lam_powers(self):
        # at lam = 1e5, lam**k overflows from k = 62 on; those terms are
        # about 1e-302 and keep their value instead of raising
        lam = 1e5
        f = build_Fn(2, lam)
        with mpmath.workdps(40):
            big = mpmath.mpf(lam)
            for k in range(1, 64):
                exact = (-1) ** (k + 1) * (big * big - 1) / ((k + 1) * big**k)
                assert f.a_n(k + 1).real == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_terms_whose_denominator_alone_overflows(self):
        # at lam = 7.7e4, lam**63 is finite but 64 lam**63 is not; that
        # term, about 1e-300, keeps its value, and a finite denominator
        # keeps the plain quotient's bits
        lam = 7.7e4
        f = build_Fn(2, lam)
        assert math.isinf(64 * lam**63) and math.isfinite(lam**63)
        with mpmath.workdps(40):
            big = mpmath.mpf(lam)
            exact = (big * big - 1) / (64 * big**63)
        assert f.a_n(64).real == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        for k in range(1, 63):
            assert f.a_n(k + 1).real == (-1) ** (k + 1) * (lam * lam - 1.0) / ((k + 1) * lam**k)

    @pytest.mark.parametrize("n,lam", [(2, 1.4e154), (2, 1e300), (3, 1e200), (5, 1e250)])
    def test_lam_whose_square_overflows(self, n, lam):
        # lam^2 - 1 overflows, but every term and the tail are finite; the
        # filterwarnings setting makes any RuntimeWarning fail the test, and
        # terms past lam**k's float range go through logarithms (rel 1e-12)
        assert math.isinf(lam * lam)
        for n_terms in (n, 3 * n, 64):
            f = build_Fn(n, lam, n_terms=n_terms)
            with mpmath.workdps(40):
                big, r = mpmath.mpf(lam), mpmath.mpf(0.9)
                for d in range(2, n_terms + 1):
                    k, rem = divmod(d - 1, n - 1)
                    exact = 0 if rem else (-1) ** (k + 1) * (big * big - 1) / (d * big**k)
                    assert f.a_n(d).real == pytest.approx(float(exact), rel=1e-12, abs=0.0)
                # the first dropped term, degree k(n-1)+1, and the exact geometric tail after it
                k = (n_terms - 1) // (n - 1) + 1
                q = r ** (n - 1) / big
                tail = (big * big - 1) * r * q**k / ((k * (n - 1) + 1) * (1 - q))
            assert math.isfinite(f.tail_bound) and f.tail_bound == pytest.approx(float(tail), rel=1e-14, abs=0.0)


class TestClassicalFamily:
    def test_recurrence(self):
        M = 2.0
        f = build_classical(M, n_terms=10)
        assert f.a_n(1) == 1.0
        assert f.a_n(2) == (1 - M * M) / M
        assert f.a_n(2) == -1.5
        for d in range(3, 11):
            assert f.a_n(d) == f.a_n(d - 1) / M

    def test_matches_rational_function(self):
        M = 2.0
        f = build_classical(M, n_terms=64, r_ref=0.9)
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        for r in (0.3, 0.75, 0.9):
            z = r * np.exp(1j * theta)
            gap = np.abs(f.eval(z) - classical_rational(M, z))
            assert float(gap.max()) <= f.tail_bound + 1e-14

    def test_coefficients_against_cauchy_integral(self):
        # independent oracle: contour coefficients of the rational form
        # via FFT on |z| = 1/2 (trapezoid rule, exponentially accurate)
        M = 2.0
        m = 256
        z = 0.5 * np.exp(2j * np.pi * np.arange(m) / m)
        vals = classical_rational(M, z)
        hat = np.fft.fft(vals) / m
        f = build_classical(M, n_terms=12)
        for d in range(1, 13):
            assert f.a_n(d) == pytest.approx(hat[d] / 0.5**d, abs=1e-12)

    def test_boundary_scan_reaches_the_covered_radius(self):
        # the image of |z| = r0 stays outside R0 and touches it somewhere
        from elliptica import classical_landau
        M = 2.0
        consts = classical_landau(M)
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        vals = np.abs(classical_rational(M, consts.r0 * np.exp(1j * theta)))
        assert float(vals.min()) >= consts.R0 - 1e-9
        assert float(vals.min()) <= consts.R0 + 1e-6

    @pytest.mark.parametrize("M", [1.4e154, 1e300])
    def test_M_whose_square_overflows(self, M):
        # M^2 overflows, but a_2 = (1 - M^2)/M, a_3 = a_2/M and the tail are finite
        assert math.isinf(M * M)
        for n_terms in (2, 3, 8):
            f = build_classical(M, n_terms=n_terms)
            with mpmath.workdps(40):
                big, r = mpmath.mpf(M), mpmath.mpf(0.9)
                for d in range(2, n_terms + 1):
                    exact = (1 - big * big) / big ** (d - 1)
                    assert f.a_n(d).real == pytest.approx(float(exact), rel=1e-14, abs=0.0)
                tail = (big * big - 1) * r * (r / big) ** n_terms / (1 - r / big)
            assert math.isfinite(f.tail_bound) and f.tail_bound == pytest.approx(float(tail), rel=1e-14, abs=0.0)
        assert build_classical(M, n_terms=2).tail_bound > 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            build_classical(1.0)
        with pytest.raises(ValueError):
            build_classical(2.0, n_terms=1)
        with pytest.raises(ValueError):
            build_classical(math.nan)


class TestSpecAndDispatch:
    """The rejection cases of the former spec layer, now checked by the builders."""

    @pytest.mark.parametrize("bad", [
        lambda: build_Fn(None, 2.0),                     # missing n
        lambda: build_Fn(1, 2.0),
        lambda: build_Fn(2, 0.5),
        lambda: build_classical(1.0),
        lambda: build_Fn(True, 2.0),
    ], ids=["bad1", "bad2", "bad3", "bad4", "bad5"])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

"""Extremal families: coefficient laws, truncation tails, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    DistortionBound,
    EllipticityParams,
    build_classical,
    build_fn,
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

    def test_fn_variant_is_the_same_series(self):
        a = build_Fn(3, 2.5, n_terms=30)
        b = build_fn(3, 2.5, n_terms=30)
        assert np.array_equal(a.analytic_coeffs, b.analytic_coeffs)

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

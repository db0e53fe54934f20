"""Pointwise distortion identities and sampled ellipticity evidence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    EllipticityParams,
    HarmonicMap,
    SamplingSpec,
    ellipticity_check,
    profile,
    sup_lambda_min,
)
from elliptica.distortion import stretches

AFFINE = HarmonicMap([0.0, 1.0], [0.5])  # z + 0.5*conj(z)


def random_map(seed: int, degree: int = 5) -> HarmonicMap:
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * 0.3
    b = (rng.standard_normal(degree) + 1j * rng.standard_normal(degree)) * 0.3
    return HarmonicMap(a, b)


class TestProfile:
    def test_affine_exact(self):
        p = profile(AFFINE, 0.3 + 0.1j)
        # |f_z| = 1, |f_zbar| = 0.5 everywhere for this map
        assert p.lambda_max == 1.5
        assert p.lambda_min == 0.5
        assert p.jacobian == 0.75

    def test_affine_margin_is_exactly_zero_at_k3(self):
        # 3 * 0.75 + 0 - 2.25 = 0 in floats, not just approximately
        rep = ellipticity_check(AFFINE, EllipticityParams(3, 0))
        assert rep.min_margin == 0.0
        assert rep.sense_preserving_everywhere_sampled

    @pytest.mark.parametrize("seed", range(4))
    def test_stretch_product_equals_abs_jacobian(self, seed):
        f = random_map(seed)
        pts = np.linspace(-0.7, 0.7, 11) + 0.2j
        lam_max, lam_min, jac = stretches(*f.partials(pts))
        assert np.array_equal(lam_max * lam_min, np.abs(jac))

    def test_analytic_identities(self):
        f = HarmonicMap([0.0, 1.0, 0.4, -0.2j])
        for z in (0.1, 0.5 - 0.3j, -0.6j):
            p = profile(f, z)
            assert p.lambda_max == p.lambda_min
            assert p.lambda_max * p.lambda_max == p.jacobian

    def test_sense_reversing_point(self):
        g = HarmonicMap([0.0, 0.25], [1.0])  # |f_zbar| > |f_z|
        p = profile(g, 0.1)
        assert p.jacobian < 0
        assert p.lambda_min == 0.75

    @given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
    def test_profile_consistency(self, z):
        f = random_map(17)
        p = profile(f, z)
        assert p.lambda_max >= p.lambda_min >= 0


class TestEllipticityCheck:
    def test_rotation_invariance(self):
        f = random_map(5)
        for theta in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            # z -> f(e^{i theta} z) multiplies both degree-k coefficients by e^{i k theta}
            twist = np.exp(1j * theta * np.arange(f.truncation_degree + 1))
            g = HarmonicMap(f.analytic_coeffs * twist, f.antianalytic_coeffs * twist[1:])
            z = 0.4 - 0.25j
            pf = profile(f, np.exp(1j * theta) * z)
            pg = profile(g, z)
            assert pg.lambda_max == pytest.approx(pf.lambda_max, abs=1e-12)
            assert pg.jacobian == pytest.approx(pf.jacobian, abs=1e-12)

    def test_margin_monotone_in_params(self):
        f = random_map(6)
        r1 = ellipticity_check(f, EllipticityParams(1, 2))
        r2 = ellipticity_check(f, EllipticityParams(1, 3))
        assert r2.min_margin >= r1.min_margin + 0.999  # Kp shifts margins by 1
        # raising K helps wherever J > 0; this map is checked sense-preserving
        if r1.sense_preserving_everywhere_sampled:
            r3 = ellipticity_check(f, EllipticityParams(2, 2))
            assert r3.min_margin >= r1.min_margin

    def test_report_shape(self):
        rep = ellipticity_check(AFFINE, EllipticityParams(3, 0),
                                grid=SamplingSpec(8, 16, 2), region_radius=0.9)
        assert abs(rep.worst_point) <= 0.9
        assert rep.sample_count >= 8 * 16 + 1
        d = rep.to_json_dict()
        assert set(d) == {"params", "min_margin", "worst_point", "sample_count",
                          "sense_preserving_everywhere_sampled"}
        assert d["worst_point"] == [rep.worst_point.real, rep.worst_point.imag]

    def test_detects_violation_with_negative_margin(self):
        g = HarmonicMap([0.0, 0.25], [1.0])
        rep = ellipticity_check(g, EllipticityParams(1, 0))
        assert rep.min_margin < 0
        assert not rep.sense_preserving_everywhere_sampled

    def test_deterministic(self):
        f = random_map(7)
        a = ellipticity_check(f, EllipticityParams(2, 1))
        b = ellipticity_check(f, EllipticityParams(2, 1))
        assert a == b

    def test_region_validation(self):
        with pytest.raises(ValueError):
            ellipticity_check(AFFINE, EllipticityParams(1, 0), region_radius=1.0)


class TestSupLambdaMin:
    def test_affine(self):
        assert sup_lambda_min(AFFINE, 0.999) == 0.5

    def test_extremal_cap(self):
        from elliptica import build_Fn
        f = build_Fn(2, 2.0)
        # the pinned family satisfies lambda <= lam strictly inside the disk
        assert sup_lambda_min(f, 0.999, SamplingSpec(64, 256)) <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_lambda_min(AFFINE, 1.5)

"""Pointwise distortion identities, and the certified ellipticity and lambda checks."""

import json
import math

import numpy as np
import pytest
from conftest import grid_stretches
from hypothesis import given, strategies as st

from elliptica import (
    EllipticityParams,
    HarmonicMap,
    build_Fn,
    profile,
)
from elliptica import hypotheses
from elliptica.distortion import stretches
from elliptica.harness import _review_fields
from elliptica.hypotheses import certify_hypotheses

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
        lam_max, _, jac = grid_stretches(AFFINE, 0.999, 8, 32)
        assert np.all(3.0 * jac - lam_max * lam_max == 0.0) and np.all(jac > 0.0)
        # and the certificate bounds that zero margin from below to rounding
        review = certify_hypotheses(AFFINE, EllipticityParams(3, 0), math.inf, 1e-12)
        assert review.status == "certified"
        assert -1e-12 <= review.ellipticity_margin <= 0.0

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
        # the review refutes this map on its first squares, and the least
        # margin it saw there shifts with K'
        r1 = certify_hypotheses(random_map(6), EllipticityParams(1, 2), math.inf, 1e-9)
        r2 = certify_hypotheses(random_map(6), EllipticityParams(1, 3), math.inf, 1e-9)
        assert r2.ellipticity_margin >= r1.ellipticity_margin + 0.999  # Kp shifts margins by 1
        # certified bounds rise with K' and, where J > 0, with K
        r1, r2, r3 = (certify_hypotheses(AFFINE, EllipticityParams(k, kp), math.inf, 1e-9)
                      for k, kp in ((3, 0), (3, 1), (4, 0)))
        assert r1.status == r2.status == r3.status == "certified"
        assert r2.ellipticity_margin >= r1.ellipticity_margin + 0.999
        assert r3.ellipticity_margin >= r1.ellipticity_margin

    def test_report_shape(self):
        # a review as a row prints it: status, pieces, bounds, witness, reasons
        review = certify_hypotheses(HarmonicMap([0.0, 0.25], [1.0]), EllipticityParams(1, 0), math.inf, 1e-9)
        d = {"status": review.status, **_review_fields(review)}
        assert list(d) == ["status", "cells", "sup_lambda", "ellipticity_margin", "witness", "reasons"]
        assert d["witness"] == [review.witness.real, review.witness.imag]
        assert d["reasons"] == list(review.reasons)
        json.dumps(d, allow_nan=False)

    def test_detects_violation_with_negative_margin(self):
        g = HarmonicMap([0.0, 0.25], [1.0])
        review = certify_hypotheses(g, EllipticityParams(1, 0), math.inf, 1e-9)
        assert review.status == "refuted" and review.ellipticity_margin < 0
        assert any(r.startswith("Jacobian") for r in review.reasons)
        assert abs(review.witness) <= 0.999 and profile(g, review.witness).jacobian < 0

    def test_deterministic(self):
        # two copies of one map, so that the second is reviewed rather than read from a memo
        a = certify_hypotheses(random_map(7), EllipticityParams(2, 1), math.inf, 1e-9)
        b = certify_hypotheses(random_map(7), EllipticityParams(2, 1), math.inf, 1e-9)
        assert a == b


class TestSupLambdaMin:
    def test_affine(self):
        review = certify_hypotheses(AFFINE, EllipticityParams(3, 0), 0.5, 1e-12)
        assert review.status == "certified"
        assert 0.5 <= review.sup_lambda <= 0.5 + 1e-12

    def test_extremal_cap(self):
        # the pinned family satisfies lambda <= lam strictly inside the disk
        review = certify_hypotheses(build_Fn(2, 2.0), EllipticityParams(1, 0), 2.0, 0.0)
        assert review.status == "certified" and review.sup_lambda <= 2.0

    def test_third_derivative_term_decides_a_square(self):
        # h = z and g' = C ((z - c)^2 - s^2), c the centre of a first-cover
        # square and c +- s the centres of two of its quarters: g'' vanishes
        # at c, so only the g''' term of the square's enclosure reaches
        # lambda = 1 - |g'| = 1 at the zeros of g', past lam; without it the
        # square would settle at lambda(c) = 1 - |C| |s|^2
        side = 2.0 * hypotheses._REGION / hypotheses._GRID
        c = complex(-hypotheses._REGION + 8.5 * side, -hypotheses._REGION + 8.5 * side)
        s, C = 0.25 * side * (1 + 1j), 0.5
        f = HarmonicMap([0.0, 1.0], [C * (c * c - s * s), -C * c, C / 3])
        review = certify_hypotheses(f, EllipticityParams(1, 3), 1.0 - 0.5 * C * abs(s) ** 2, 0.0)
        assert review.status == "refuted" and review.sup_lambda == 1.0
        assert abs(review.witness - (c - s)) < 1e-15


class TestInconclusiveExits:
    def test_derivatives_that_overflow_leave_the_squares_inconclusive(self):
        # h'' of the degree-400 term is 399 * 400 * c = 3.4e308, beyond the
        # largest float; b_1 makes the review take squares
        c = 1.7e308 / (200 * 399)
        f = HarmonicMap([0.0, 1.0] + [0.0] * 398 + [c], [1e-320])
        review = certify_hypotheses(f, EllipticityParams(1, 1), math.inf, 1e-9)
        assert review.status == "inconclusive" and review.witness is None
        assert len(review.reasons) == 1 and review.reasons[0].startswith("non-finite map derivatives near z = ")

    def test_a_cap_just_above_the_maximum_uses_up_the_arcs(self):
        # max |h'| on |z| = 0.999 is 1.4995, at z = 0.999; the arcs cannot
        # close a gap of 1e-12 within their budget of samples
        f = HarmonicMap([0.0, 1.0, 0.25])
        review = certify_hypotheses(f, EllipticityParams(1, 0), 1.0 + 0.4995 + 1e-12, 0.0)
        assert review.status == "inconclusive" and review.witness is None
        assert review.reasons == ("arc budget of 65536 circle samples used up",)
        assert dict(review.pieces) == {"arcs": 256} and 1.4995 <= review.sup_lambda <= 1.4995 + 1e-12

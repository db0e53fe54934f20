"""Grids and quasi-random sequences: determinism, membership, coverage."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    EllipticityParams,
    SamplingSpec,
    build_classical,
    build_Fn,
    disk_net,
    halton,
    halton_disk,
    polar_grid,
    random_elliptic,
)
from elliptica.constants import radical_inverse
from elliptica.sampling import sample_grid


class TestPolarGrid:
    def test_layout(self):
        pts = polar_grid(0.5, 4, 8)
        assert pts.shape == (33,)
        assert pts[0] == 0.0
        # ring-major ordering: first ring at radius/n_r, angle 0
        assert pts[1] == pytest.approx(0.125)
        # outermost ring sits at the requested radius (1 ulp from the
        # complex exponential is the only slack)
        assert np.max(np.abs(pts)) == pytest.approx(0.5, abs=1e-15)
        assert abs(pts[-8]) == 0.5  # the theta = 0 rim sample is exact

    def test_no_duplicates(self):
        pts = polar_grid(0.7, 16, 64)
        assert len(np.unique(np.round(pts, 15))) == len(pts)

    def test_deterministic(self):
        a = polar_grid(0.999, 48, 192)
        b = polar_grid(0.999, 48, 192)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            polar_grid(0.0, 4, 8)


def _grid_maps():
    yield "classical-2", build_classical(2.0, 400), 0.25
    yield "F_3", build_Fn(3, 2.0, n_terms=128), 0.5
    for seed, (k, kp, lam) in enumerate(((2.0, 0.5, 1.5), (4.0, 1.0, 3.0))):
        yield f"random-{seed}", random_elliptic(EllipticityParams(k, kp), lam, seed), 0.999


@pytest.mark.parametrize("name,f,radius", [pytest.param(*case, id=case[0]) for case in _grid_maps()])
def test_sample_grid_matches_horner_at_the_grid_points(name, f, radius):
    # a series map's grid, read ring by ring, is the map at polar_grid's points, in its order
    eps = np.finfo(float).eps
    k = np.arange(f.truncation_degree + 1)
    moduli = np.abs(f.analytic_coeffs) + np.abs(f._b_full)
    # the sums at the outer radius bound those of every inner ring
    value_sum = (moduli * radius**k).sum()
    slope_sum = (k[1:] * moduli[1:] * radius ** k[:-1]).sum()
    # folded (n_theta < N + 1) and unfolded (n_theta >= N + 1) rings
    for n_r, n_theta in ((3, (f.truncation_degree + 1) // 2), (5, 2 * f.truncation_degree + 8)):
        points = polar_grid(radius, n_r, n_theta)
        values = sample_grid(f, radius, n_r, n_theta)
        fz, fzb = sample_grid(f, radius, n_r, n_theta, partials=True)
        assert values.shape == fz.shape == fzb.shape == points.shape
        ref_fz, ref_fzb = f.partials(points)
        assert np.abs(values - f.eval(points)).max() <= 64 * eps * value_sum
        assert np.abs(fz - ref_fz).max() <= 64 * eps * slope_sum
        assert np.abs(fzb - ref_fzb).max() <= 64 * eps * slope_sum


def _scalar_halton(count, base, start=1):
    """Reference: the radical inverse of each index, one digit at a time."""
    out = np.empty(count)
    for k in range(count):
        i = start + k
        f = 1.0
        x = 0.0
        while i > 0:
            f /= base
            x += f * (i % base)
            i //= base
        out[k] = x
    return out


class TestHalton:
    @pytest.mark.parametrize("base", [2, 3, 5, 7, 11])
    def test_bit_identical_to_the_scalar_reference(self, base):
        for start in (1, 129, 257, 1000):
            for count in (0, 1, 128, 2000):
                assert np.array_equal(halton(count, base, start), _scalar_halton(count, base, start))

    @pytest.mark.parametrize("base", [2, 3, 5, 7, 11])
    def test_pure_python_inverse_is_the_reference_bit_for_bit(self, base):
        # the one radical inverse behind halton and the remark sweep
        for start, count in ((1, 100_000), (2, 3000), (1000, 2000), (99_991, 500)):
            ref = _scalar_halton(count, base, start).tobytes()
            assert np.array(radical_inverse(count, base, start)).tobytes() == ref
            assert halton(count, base, start).tobytes() == ref

    def test_base2_prefix(self):
        # radical inverse of 1,2,3,4 in base 2
        assert np.allclose(halton(4, 2), [0.5, 0.25, 0.75, 0.125], atol=0, rtol=0)

    def test_start_offset_is_a_shift(self):
        full = halton(10, 3)
        shifted = halton(7, 3, start=4)
        assert np.array_equal(full[3:], shifted)

    def test_open_interval(self):
        u = halton(500, 5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    @given(st.integers(min_value=0, max_value=50))
    def test_count(self, n):
        assert halton(n, 2).shape == (n,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            halton(-1, 2)


class TestHaltonDisk:
    def test_membership(self):
        pts = halton_disk(0.2 + 0.1j, 0.3, 400)
        assert np.all(np.abs(pts - (0.2 + 0.1j)) < 0.3)

    def test_area_uniform_mean_radius(self):
        # for the uniform disk law E|z - c| = (2/3) radius
        pts = halton_disk(0.0, 1.0, 4000)
        assert abs(np.mean(np.abs(pts)) - 2.0 / 3.0) < 0.01

    def test_deterministic_and_start_sensitive(self):
        a = halton_disk(0.0, 1.0, 64)
        b = halton_disk(0.0, 1.0, 64)
        c = halton_disk(0.0, 1.0, 64, start=65)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDiskNet:
    def test_membership_and_center(self):
        net = disk_net(0.3, 0.05)
        assert net[0] == 0.0
        assert np.all(np.abs(net) < 0.3)  # rim ring pulled strictly inside

    def test_rim_ring_present(self):
        net = disk_net(0.25, 0.04)
        assert np.max(np.abs(net)) == pytest.approx(0.25, rel=1e-8)

    def test_covering(self):
        # every point of the disk lies within one spacing of the net;
        # the ring layout actually achieves about 0.68 * spacing
        rho, spacing = 0.3, 0.05
        net = disk_net(rho, spacing)
        rng = np.random.default_rng(11)
        probes = rho * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
        dist = np.abs(probes[:, None] - net[None, :]).min(axis=1)
        assert float(dist.max()) <= spacing

    def test_spacing_larger_than_disk(self):
        net = disk_net(0.05, 0.2)
        assert net[0] == 0.0
        assert len(net) >= 9  # center plus the rim ring

    def test_validation(self):
        with pytest.raises(ValueError):
            disk_net(0.0, 0.1)
        with pytest.raises(ValueError):
            disk_net(0.1, 0.0)


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec()
        assert (spec.n_r, spec.n_theta, spec.refinement_rounds) == (48, 192, 3)

    @pytest.mark.parametrize("kwargs", [
        {"n_r": 0}, {"n_theta": 3}, {"refinement_rounds": -1}, {"n_r": 2.5},
        # bool is an int subclass: True would pass as one ring, False as no rounds
        {"n_r": True}, {"n_theta": True}, {"refinement_rounds": False},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SamplingSpec(**kwargs)

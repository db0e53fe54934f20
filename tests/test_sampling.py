"""Nets and quasi-random sequences: determinism, membership, coverage."""

import numpy as np
import pytest
from conftest import polar_grid
from hypothesis import given, strategies as st

from elliptica import disk_net
from elliptica.constants import radical_inverse


class TestPolarGrid:
    # the reference grid that the certificate tests sample
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


def halton(count, base, start=1):
    """The radical inverses of constants.radical_inverse, as an array."""
    return np.array(radical_inverse(count, base, start), dtype=float)


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
        # the one radical inverse, behind the remark sweep
        for start, count in ((1, 100_000), (2, 3000), (1000, 2000), (99_991, 500)):
            ref = _scalar_halton(count, base, start).tobytes()
            assert np.array(radical_inverse(count, base, start)).tobytes() == ref

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


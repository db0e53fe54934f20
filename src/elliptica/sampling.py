"""Deterministic sampling grids for the unit disk, and maps sampled on them.

Everything here is reproducible from its arguments alone: polar grids are
index-generated, quasi-random refinement uses a Halton radical inverse
(:func:`~elliptica.constants.radical_inverse`) with a fixed index origin,
and disk nets are laid out ring by ring from the rim inward.  No global
RNG state is touched.  Polar grids and the unit Halton clouds behind
halton_disk are cached, a few at a time, as read-only arrays.  Maps are
sampled on circles and polar grids here, and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import radical_inverse

__all__ = ["SamplingSpec", "polar_grid", "sample_circle", "sample_grid", "halton", "halton_disk", "disk_net"]


@dataclass(frozen=True)
class SamplingSpec:
    """Resolution of a disk scan: radial rings, angular steps, refinement rounds.

    The oracles read only n_theta and refinement_rounds; distortion scans
    pass a denser spec.  refinement_rounds bounds how often an oracle may
    refine (finer curve sampling, shrinking Halton clouds) before giving up.
    """

    n_r: int = 48
    n_theta: int = 192
    refinement_rounds: int = 3

    def __post_init__(self) -> None:
        for name, low in (("n_r", 1), ("n_theta", 4), ("refinement_rounds", 0)):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=8)
def polar_grid(radius: float, n_r: int, n_theta: int) -> np.ndarray:
    """Complex sample points on rings r_i = radius*(i+1)/n_r, i = 0..n_r-1.

    The outermost ring sits exactly at `radius`; the center point comes
    first.  Ordering is fixed (center, then ring-major), so grid index
    positions are stable across runs.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rings = np.multiply.outer(radius * (np.arange(1, n_r + 1) / n_r), np.exp(1j * angles))
    return _frozen(np.concatenate([[0.0 + 0.0j], rings.ravel()]))


def sample_circle(f, radius, n: int, partials: bool = False):
    """theta_k = 2 pi k / n for k < n, and f (or its partials) at radius e^{i theta_k}.

    radius may be an array of radii, one row of values each.  Each circle is
    summed by one inverse DFT (``on_rings``); the pair of partials comes back
    as two arrays.
    """
    return 2.0 * np.pi * np.arange(n) / n, f.on_rings(radius, n, partials)


def _circle_rows(f, radius: float, n: int):
    """sample_circle's angles, and the rows f, f_z, f_zbar there from one stacked inverse DFT."""
    return 2.0 * np.pi * np.arange(n) / n, f._rings(radius, n, True, True)


def sample_grid(f, radius: float, n_r: int, n_theta: int, partials: bool = False):
    """f, or the pair (f_z, f_zbar), at the points of polar_grid(radius, n_r, n_theta), in its order.

    The rings come from one on_rings call after one of radius 0, whose first value is the centre's.
    """
    rings = f.on_rings(radius * (np.arange(n_r + 1) / n_r), n_theta, partials)
    grid = [np.concatenate([rows[0, :1], rows[1:].ravel()]) for rows in (rings if partials else [rings])]
    return tuple(grid) if partials else grid[0]


def halton(count: int, base: int, start: int = 1) -> np.ndarray:
    """Radical-inverse (Halton) sequence in (0,1), indices start..start+count-1, as an array."""
    return np.array(radical_inverse(count, base, start), dtype=float)


@lru_cache(maxsize=8)
def _unit_cloud(count: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(u) and exp(2 pi i v) of the Halton pairs (u, v) in bases 2 and 3."""
    return (_frozen(np.sqrt(halton(count, 2, start))),
            _frozen(np.exp(2j * np.pi * halton(count, 3, start))))


def halton_disk(center: complex, radius: float, count: int, start: int = 1) -> np.ndarray:
    """Area-uniform quasi-random points in the disk |z - center| < radius."""
    root_u, spin = _unit_cloud(count, start)
    return center + radius * root_u * spin


def disk_net(rho: float, spacing: float) -> np.ndarray:
    """Covering net of the closed disk |w| <= rho with rim-first ring layout.

    Rings run from the rim inward at the given spacing, each subdivided so arc
    gaps do not exceed the spacing; the center is always included.  Points on
    the outermost ring are pulled infinitesimally inside so that membership in
    the open disk is preserved.
    """
    if not (rho > 0.0 and spacing > 0.0):
        raise ValueError("rho and spacing must be positive")
    rings = [rho * (1.0 - 1e-9)]
    r = rho - spacing
    while r > 0.25 * spacing:
        rings.append(r)
        r -= spacing
    chunks = [np.zeros(1, dtype=complex)]
    for rr in rings:
        m = max(8, int(np.ceil(2.0 * np.pi * rr / spacing)))
        angles = 2.0 * np.pi * np.arange(m) / m
        chunks.append(rr * np.exp(1j * angles))
    return np.concatenate(chunks)

"""Deterministic sampling grids for the unit disk.

Everything here is reproducible from its arguments alone: polar grids are
index-generated, quasi-random refinement uses a Halton radical inverse with a
fixed index origin, and disk nets are laid out ring by ring from the rim
inward.  No global RNG state is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SamplingSpec", "polar_grid", "halton", "halton_disk", "disk_net"]


@dataclass(frozen=True)
class SamplingSpec:
    """Resolution of a disk scan: radial rings, angular steps, refinement rounds.

    The defaults are sized for the probe oracles; distortion scans pass a
    denser spec.  refinement_rounds bounds how often an oracle may refine
    (finer curve sampling, shrinking Halton clouds) before giving up.
    """

    n_r: int = 48
    n_theta: int = 192
    refinement_rounds: int = 3

    def __post_init__(self) -> None:
        if not (isinstance(self.n_r, int) and self.n_r >= 1):
            raise ValueError("n_r must be a positive integer")
        if not (isinstance(self.n_theta, int) and self.n_theta >= 4):
            raise ValueError("n_theta must be an integer >= 4")
        if not (isinstance(self.refinement_rounds, int) and self.refinement_rounds >= 0):
            raise ValueError("refinement_rounds must be a nonnegative integer")


def polar_grid(radius: float, n_r: int, n_theta: int, include_center: bool = True) -> np.ndarray:
    """Complex sample points on rings r_i = radius*(i+1)/n_r, i = 0..n_r-1.

    The outermost ring sits exactly at `radius`; the center point is prepended
    unless disabled.  Ordering is fixed (center, then ring-major), so grid
    index positions are stable across runs.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    radii = radius * (np.arange(1, n_r + 1) / n_r)
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    if include_center:
        pts = np.concatenate([[0.0 + 0.0j], pts])
    return pts


def halton(count: int, base: int, start: int = 1) -> np.ndarray:
    """Radical-inverse (Halton) sequence in (0,1), indices start..start+count-1.

    Starting at index 1 keeps 0.0 out of the sequence, which matters when a
    coordinate is later mapped onto a half-open interval.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    i = np.arange(start, start + count, dtype=np.int64)
    out = np.zeros(count)
    f = 1.0
    # an index whose digits are used up adds f*0 = 0.0, so every entry is
    # bit-identical to its own scalar radical inverse
    while i.any():
        f /= base
        out += f * (i % base)
        i //= base
    return out


def halton_disk(center: complex, radius: float, count: int, start: int = 1) -> np.ndarray:
    """Area-uniform quasi-random points in the disk |z - center| < radius."""
    u = halton(count, 2, start)
    v = halton(count, 3, start)
    return center + radius * np.sqrt(u) * np.exp(2j * np.pi * v)


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

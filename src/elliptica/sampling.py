"""Deterministic sampling of the unit disk, and maps sampled on circles.

Everything here is reproducible from its arguments alone: circles are
index-generated and disk nets are laid out ring by ring from the rim
inward.  No global RNG state is touched.  Maps are sampled on circles here,
and nowhere else; the theorems' hypotheses are never sampled, but certified
on the whole disk by :mod:`elliptica.hypotheses`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SamplingSpec", "sample_circle", "disk_net"]


@dataclass(frozen=True)
class SamplingSpec:
    """Resolution of an oracle's circle scans: angular steps and refinement rounds.

    refinement_rounds bounds how often an oracle may refine (finer curve
    sampling) before giving up.
    """

    n_theta: int = 192
    refinement_rounds: int = 3

    def __post_init__(self) -> None:
        for name, low in (("n_theta", 4), ("refinement_rounds", 0)):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


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

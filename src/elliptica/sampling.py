"""Deterministic covering nets of a disk.

A net is reproducible from its arguments alone: it is laid out ring by ring
from the rim inward, and no global RNG state is touched.  Maps are sampled
on circles by ``HarmonicMap.on_circle``; the theorems' hypotheses are never
sampled, but certified on the whole disk by :mod:`elliptica.hypotheses`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["disk_net"]


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

"""Pointwise distortion data.

A map is a truncated series (:class:`~elliptica.seriescore.HarmonicMap`):
points are read through ``partials(z)``, the pair (d/dz, d/dzbar) at scalar
or ndarray ``z``.

The derived quantities at a point z are

    lambda_max = |f_z| + |f_zbar|          (largest directional stretch, |Df|)
    lambda_min = ||f_z| - |f_zbar||        (smallest directional stretch)
    jacobian   = (|f_z| - |f_zbar|) * (|f_z| + |f_zbar|)

jacobian is formed from the same two magnitudes as the stretches, so the
identities jacobian = +-(lambda_max*lambda_min) and, for analytic maps,
lambda_max*lambda_max = jacobian hold exactly in floating point, not merely
to rounding.

A map is (K, K')-elliptic at a point when lambda_max**2 <= K*jacobian + K'.
Nothing here scans a map for that: the one check of the theorems'
hypotheses is the certificate of :mod:`elliptica.hypotheses`, which
encloses |f_z| and |f_zbar| on squares or arcs covering the disk and so
bounds the margin, lambda and J between the samples too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DistortionProfile", "profile", "stretches"]


@dataclass(frozen=True)
class DistortionProfile:
    lambda_max: float
    lambda_min: float
    jacobian: float


def profile(f, z: complex) -> DistortionProfile:
    """Distortion data of f at one point of the unit disk."""
    fz, fzb = f.partials(z)
    m1 = abs(fz)
    m2 = abs(fzb)
    return DistortionProfile(
        lambda_max=m1 + m2,
        lambda_min=abs(m1 - m2),
        jacobian=(m1 - m2) * (m1 + m2),
    )


def stretches(fz, fzb):
    """(lambda_max, lambda_min, jacobian) from arrays of the pair (f_z, f_zbar)."""
    m1 = np.abs(fz)
    m2 = np.abs(fzb)
    return m1 + m2, np.abs(m1 - m2), (m1 - m2) * (m1 + m2)

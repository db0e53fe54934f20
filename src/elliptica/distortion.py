"""Pointwise distortion data and sampled ellipticity checks.

A map is a truncated series (:class:`~elliptica.seriescore.HarmonicMap`):
points are read through ``partials(z)``, the pair (d/dz, d/dzbar) at scalar
or ndarray ``z``, and polar grids through :func:`~elliptica.sampling.sample_grid`.

The derived quantities at a point z are

    lambda_max = |f_z| + |f_zbar|          (largest directional stretch)
    lambda_min = ||f_z| - |f_zbar||        (smallest directional stretch)
    jacobian   = (|f_z| - |f_zbar|) * (|f_z| + |f_zbar|)
    op_norm_sq = lambda_max**2             (squared operator norm of Df)

jacobian is formed from the same two magnitudes as the stretches, so the
identities jacobian = +-(lambda_max*lambda_min) and, for analytic maps,
op_norm_sq = jacobian hold exactly in floating point, not merely to rounding.

A map is (K, K')-elliptic at a sample when op_norm_sq <= K*jacobian + K'.
Grid scans here produce *evidence* (a sampled minimum margin with its worst
point); only a pointwise negative margin is a certificate of failure.  The
campaigns do not rely on them: their hypothesis review is the certificate
of :mod:`elliptica.hypotheses`, which encloses |f_z| and |f_zbar| on squares
or arcs covering the disk and so bounds the margin, lambda and J between
the samples too.  :func:`ellipticity_check` remains the sampled scan of the
Jacobian-normalized route and of the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EllipticityParams
from .sampling import SamplingSpec, halton_disk, polar_grid, sample_grid

__all__ = [
    "DistortionProfile",
    "EllipticityReport",
    "profile",
    "distortion_arrays",
    "stretches",
    "ellipticity_check",
    "sup_lambda_min",
]

_DEFAULT_GRID = SamplingSpec(n_r=64, n_theta=256, refinement_rounds=3)
_REFINE_CLOUD = 128


@dataclass(frozen=True)
class DistortionProfile:
    lambda_max: float
    lambda_min: float
    jacobian: float
    op_norm_sq: float


@dataclass(frozen=True)
class EllipticityReport:
    """Sampled ellipticity evidence; min_margin < 0 certifies a violation."""

    params: EllipticityParams
    min_margin: float
    worst_point: complex
    sample_count: int
    sense_preserving_everywhere_sampled: bool

    def to_json_dict(self) -> dict:
        return {
            "params": {"K": float(self.params.K), "Kp": float(self.params.Kp)},
            "min_margin": float(self.min_margin),
            "worst_point": [float(self.worst_point.real), float(self.worst_point.imag)],
            "sample_count": int(self.sample_count),
            "sense_preserving_everywhere_sampled": bool(self.sense_preserving_everywhere_sampled),
        }


def profile(f, z: complex) -> DistortionProfile:
    """Distortion data of f at one point of the unit disk."""
    fz, fzb = f.partials(z)
    m1 = abs(fz)
    m2 = abs(fzb)
    return DistortionProfile(
        lambda_max=m1 + m2,
        lambda_min=abs(m1 - m2),
        jacobian=(m1 - m2) * (m1 + m2),
        op_norm_sq=(m1 + m2) ** 2,
    )


def stretches(fz, fzb):
    """(lambda_max, lambda_min, jacobian) from arrays of the pair (f_z, f_zbar)."""
    m1 = np.abs(fz)
    m2 = np.abs(fzb)
    return m1 + m2, np.abs(m1 - m2), (m1 - m2) * (m1 + m2)


def distortion_arrays(f, z: np.ndarray):
    """Vectorized (lambda_max, lambda_min, jacobian) over an array of points."""
    return stretches(*f.partials(z))


def _margin(params: EllipticityParams, lam_max, jac):
    return float(params.K) * jac + float(params.Kp) - lam_max * lam_max


def ellipticity_check(
    f,
    params: EllipticityParams,
    grid: SamplingSpec | None = None,
    region_radius: float = 0.999,
) -> EllipticityReport:
    """Scan K*J_f + Kp - |Df|^2 over a polar grid, then refine near the worst point.

    Sense reversal (a sample with jacobian <= 0) is reported through the
    sense_preserving flag, never raised: a reversed sample is a finding about
    the map, not a usage error.  Refinement draws Halton clouds of shrinking
    radius around the running worst point, so the report is reproducible from
    (f, params, grid, region_radius) alone.
    """
    if not (0.0 < region_radius < 1.0):
        raise ValueError("region_radius must lie in (0, 1)")
    spec = grid if grid is not None else _DEFAULT_GRID

    pts = polar_grid(region_radius, spec.n_r, spec.n_theta)
    lam_max, _, jac = stretches(*sample_grid(f, region_radius, spec.n_r, spec.n_theta, partials=True))
    margin = _margin(params, lam_max, jac)

    k = int(np.argmin(margin))
    worst = complex(pts[k])
    best = float(margin[k])
    sense = bool(np.all(jac > 0.0))
    count = int(pts.size)

    mesh = max(region_radius / spec.n_r, abs(worst) * 2.0 * np.pi / spec.n_theta)
    radius = 2.0 * mesh
    for round_index in range(spec.refinement_rounds):
        cloud = halton_disk(worst, radius, _REFINE_CLOUD, start=1 + round_index * _REFINE_CLOUD)
        cloud = cloud[np.abs(cloud) <= region_radius]
        if cloud.size:
            lam_max, _, jac = distortion_arrays(f, cloud)
            m = _margin(params, lam_max, jac)
            j = int(np.argmin(m))
            if m[j] < best:
                best = float(m[j])
                worst = complex(cloud[j])
            sense = sense and bool(np.all(jac > 0.0))
            count += int(cloud.size)
        radius *= 0.5

    return EllipticityReport(
        params=params,
        min_margin=best,
        worst_point=worst,
        sample_count=count,
        sense_preserving_everywhere_sampled=sense,
    )


def sup_lambda_min(f, region_radius: float, grid: SamplingSpec | None = None) -> float:
    """Sampled supremum of lambda_min over the closed disk of the given radius."""
    if not (0.0 < region_radius < 1.0):
        raise ValueError("region_radius must lie in (0, 1)")
    spec = grid if grid is not None else _DEFAULT_GRID
    _, lam_min, _ = stretches(*sample_grid(f, region_radius, spec.n_r, spec.n_theta, partials=True))
    return float(np.max(lam_min))

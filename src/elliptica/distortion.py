"""Pointwise distortion data and sampled ellipticity checks.

A planar map enters through a small duck-typed contract: ``eval(z)`` and
``partials(z)`` for scalar or ndarray ``z``, with ``partials`` returning the
pair (d/dz, d/dzbar).  Truncated series maps satisfy it, and so do composed
maps built by the verification harness; nothing here assumes a series
representation.

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
point); only a pointwise negative margin is a certificate of failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .sampling import SamplingSpec, halton_disk, polar_grid, sample_grid

__all__ = [
    "PlanarMap",
    "EllipticityParams",
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


class PlanarMap(Protocol):
    """Minimal evaluable-map contract shared by series and composed maps."""

    def eval(self, z): ...

    def partials(self, z): ...


@dataclass(frozen=True)
class EllipticityParams:
    """Ellipticity constants (K, Kp); invalid instances are unrepresentable."""

    K: float
    Kp: float

    def __post_init__(self) -> None:
        if not (math.isfinite(float(self.K)) and self.K >= 1):
            raise ValueError("K must be finite and >= 1")
        if not (math.isfinite(float(self.Kp)) and self.Kp >= 0):
            raise ValueError("Kp must be finite and >= 0")


@dataclass(frozen=True)
class DistortionProfile:
    lambda_max: float
    lambda_min: float
    jacobian: float
    op_norm_sq: float


@dataclass(frozen=True)
class EllipticityReport:
    """Sampled ellipticity evidence; min_margin < 0 certifies a violation.

    sup_lambda_min is the maximum of lambda_min over the polar grid alone
    (not the refinement clouds), equal to :func:`sup_lambda_min` on that
    grid; it is not part of the JSON record.
    """

    params: EllipticityParams
    min_margin: float
    worst_point: complex
    sample_count: int
    sense_preserving_everywhere_sampled: bool
    sup_lambda_min: float

    def to_json_dict(self) -> dict:
        return {
            "params": {"K": float(self.params.K), "Kp": float(self.params.Kp)},
            "min_margin": float(self.min_margin),
            "worst_point": [float(self.worst_point.real), float(self.worst_point.imag)],
            "sample_count": int(self.sample_count),
            "sense_preserving_everywhere_sampled": bool(self.sense_preserving_everywhere_sampled),
        }


def profile(f: PlanarMap, z: complex) -> DistortionProfile:
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


def distortion_arrays(f: PlanarMap, z: np.ndarray):
    """Vectorized (lambda_max, lambda_min, jacobian) over an array of points."""
    return stretches(*f.partials(z))


def _margin(params: EllipticityParams, lam_max, jac):
    return float(params.K) * jac + float(params.Kp) - lam_max * lam_max


def ellipticity_check(
    f: PlanarMap,
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
    lam_max, lam_min, jac = stretches(*sample_grid(f, region_radius, spec.n_r, spec.n_theta, partials=True))
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
        sup_lambda_min=float(np.max(lam_min)),
    )


def sup_lambda_min(f: PlanarMap, region_radius: float, grid: SamplingSpec | None = None) -> float:
    """Sampled supremum of lambda_min over the closed disk of the given radius."""
    if not (0.0 < region_radius < 1.0):
        raise ValueError("region_radius must lie in (0, 1)")
    spec = grid if grid is not None else _DEFAULT_GRID
    _, lam_min, _ = stretches(*sample_grid(f, region_radius, spec.n_r, spec.n_theta, partials=True))
    return float(np.max(lam_min))

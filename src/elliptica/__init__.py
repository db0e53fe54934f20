"""Distortion-controlled planar harmonic maps: constants, extremals, certification.

The packages splits into closed-form constants (:mod:`elliptica.constants`),
a truncated-series map type (:mod:`elliptica.seriescore`), extremal families
(:mod:`elliptica.extremals`), sampling-based certification oracles
(:mod:`elliptica.oracles`), and campaign drivers (:mod:`elliptica.harness`).
Everything numeric is deterministic for fixed inputs.
"""

from .constants import (
    BlochBound,
    ClassicalLandau,
    DistortionBound,
    LandauResult,
    RemarkChecks,
    bloch_jacobian_normalized,
    bloch_lambda_normalized,
    classical_landau,
    coeff_bound,
    growth_rate,
    landau,
    psi,
    remark_inequalities,
)
from .distortion import (
    DistortionProfile,
    EllipticityParams,
    EllipticityReport,
    PlanarMap,
    distortion_arrays,
    ellipticity_check,
    profile,
    sup_lambda_min,
)
from .extremals import build_classical, build_fn, build_Fn
from .harness import (
    PACKAGE_VERSION,
    BlochRescaledMap,
    DiskAutomorphism,
    PipelineTrace,
    bloch_pipeline,
    build_report,
    parallel_map,
    random_elliptic,
    remark_campaign,
    thread_count,
    verify_bloch_pipeline,
    verify_coefficient_bounds,
    verify_jacobian_normalized,
    verify_landau_probes,
)
from .oracles import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    MeshPrecisionError,
    OracleVerdict,
    coverage_probe,
    univalence_probe,
    winding_number,
)
from .sampling import SamplingSpec, disk_net, halton, halton_disk, polar_grid
from .seriescore import HarmonicMap, truncate_with_tail

__version__ = PACKAGE_VERSION

__all__ = [
    "BlochBound",
    "BlochRescaledMap",
    "CERTIFIED",
    "ClassicalLandau",
    "DiskAutomorphism",
    "DistortionBound",
    "DistortionProfile",
    "EllipticityParams",
    "EllipticityReport",
    "HarmonicMap",
    "INCONCLUSIVE",
    "LandauResult",
    "MeshPrecisionError",
    "OracleVerdict",
    "PACKAGE_VERSION",
    "PipelineTrace",
    "PlanarMap",
    "REFUTED",
    "RemarkChecks",
    "SamplingSpec",
    "bloch_jacobian_normalized",
    "bloch_lambda_normalized",
    "bloch_pipeline",
    "build_classical",
    "build_fn",
    "build_Fn",
    "build_report",
    "classical_landau",
    "coeff_bound",
    "coverage_probe",
    "disk_net",
    "distortion_arrays",
    "ellipticity_check",
    "growth_rate",
    "halton",
    "halton_disk",
    "landau",
    "parallel_map",
    "polar_grid",
    "profile",
    "psi",
    "random_elliptic",
    "remark_campaign",
    "remark_inequalities",
    "sup_lambda_min",
    "thread_count",
    "truncate_with_tail",
    "univalence_probe",
    "verify_bloch_pipeline",
    "verify_coefficient_bounds",
    "verify_jacobian_normalized",
    "verify_landau_probes",
    "winding_number",
    "__version__",
]

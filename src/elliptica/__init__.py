"""Distortion-controlled planar harmonic maps: constants, extremals, certification.

The packages splits into closed-form constants (:mod:`elliptica.constants`),
a truncated-series map type (:mod:`elliptica.seriescore`), extremal families
(:mod:`elliptica.extremals`), sampling-based certification oracles
(:mod:`elliptica.oracles`), the certified review of the theorems' hypotheses
(:mod:`elliptica.hypotheses`), and campaign drivers (:mod:`elliptica.harness`).
Everything numeric is deterministic for fixed inputs.

The exported names load lazily: ``import elliptica`` imports only the
standard-library :mod:`elliptica.constants`, and a name's home module (with
numpy, where it needs arrays) is imported on the first access to the name.
"""

from importlib import import_module

from .constants import PACKAGE_VERSION as __version__

# each exported name, listed under the module that defines it
_EXPORTS = {
    "constants": (
        "BlochBound", "ClassicalLandau", "DistortionBound", "EllipticityParams", "LandauResult",
        "PACKAGE_VERSION", "RemarkChecks", "bloch_jacobian_normalized", "bloch_lambda_normalized",
        "build_report", "classical_landau", "coeff_bound", "growth_rate", "landau", "psi",
        "remark_campaign", "remark_inequalities",
    ),
    "distortion": (
        "DistortionProfile", "EllipticityReport", "distortion_arrays", "ellipticity_check", "profile",
        "sup_lambda_min",
    ),
    "extremals": ("build_classical", "build_fn", "build_Fn"),
    "harness": (
        "PipelineTrace", "bloch_pipeline", "parallel_map", "random_elliptic", "thread_count",
        "verify_bloch_pipeline", "verify_coefficient_bounds", "verify_jacobian_normalized",
        "verify_landau_probes",
    ),
    "oracles": (
        "CERTIFIED", "INCONCLUSIVE", "REFUTED", "MeshPrecisionError", "OracleVerdict", "coverage_probe",
        "univalence_probe", "winding_number",
    ),
    "sampling": ("SamplingSpec", "disk_net", "halton", "halton_disk", "polar_grid"),
    "seriescore": ("HarmonicMap", "truncate_with_tail"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import an exported name from its home module, and keep it as a module global."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value

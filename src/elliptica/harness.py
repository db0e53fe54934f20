"""Verification campaigns: scans, pipelines, and report assembly.

The centerpiece is :func:`bloch_pipeline`, which renormalizes a map at the
argmax of its weighted distortion and checks the renormalized map against
the invariant distortion bound and the quadrupled ellipticity constant.
The argmax is located by a polar scan followed by a Nelder-Mead polish;
when the polish cannot beat the grid, the grid point wins, which keeps
the identity map's trace exact.

Campaign functions return a common report dictionary (theorem, params,
maps, worst_case, runtime_ms, version) that the command line serializes
verbatim.  runtime_ms stays null unless the caller stamps it, so repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .constants import (
    DistortionBound,
    bloch_jacobian_normalized,
    coeff_bound,
    landau,
    psi,
    remark_inequalities,
)
from .distortion import EllipticityParams, ellipticity_check, profile, stretches
from .oracles import CERTIFIED, REFUTED, OracleVerdict, coverage_probe, univalence_probe
from .sampling import halton, polar_grid, sample_grid
from .seriescore import HarmonicMap

__all__ = [
    "PACKAGE_VERSION",
    "BlochRescaledMap",
    "DiskAutomorphism",
    "PipelineTrace",
    "bloch_pipeline",
    "build_report",
    "parallel_map",
    "random_elliptic",
    "remark_campaign",
    "thread_count",
    "verify_bloch_pipeline",
    "verify_coefficient_bounds",
    "verify_jacobian_normalized",
    "verify_landau_probes",
]

PACKAGE_VERSION = "0.1.0"

_HYP_TOL = 1e-9


def thread_count() -> int:
    """Worker count from ELLIPTICA_THREADS, defaulting to 1."""
    raw = os.environ.get("ELLIPTICA_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn: Callable, items: Iterable) -> list:
    """Order-preserving map over items, threaded when configured.

    Results are returned in input order regardless of completion order, so
    campaign reports do not depend on the worker count.
    """
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class DiskAutomorphism:
    """z -> (z + z0) / (1 + conj(z0) z), the disk move taking 0 to z0."""

    z0: complex

    def __post_init__(self) -> None:
        z0 = complex(self.z0)
        if not (abs(z0) < 1.0):
            raise ValueError(f"z0 must lie in the open unit disk, got {z0!r}")
        object.__setattr__(self, "z0", z0)

    def __call__(self, z):
        return (z + self.z0) / (1.0 + np.conj(self.z0) * z)

    def deriv(self, z):
        denom = 1.0 + np.conj(self.z0) * z
        return (1.0 - _abs2(self.z0)) / (denom * denom)


def _abs2(z) -> float:
    # written out so the same float expression appears in every place the
    # pipeline relies on cancellation
    return z.real * z.real + z.imag * z.imag


class BlochRescaledMap:
    """G(w) = sqrt(2)/M * (f(phi(w/sqrt 2)) - f(z0)) for phi moving 0 to z0.

    Defined for |w| < 1 (in fact up to sqrt 2); partials come from the
    chain rule, with the antianalytic factor picking up the conjugated
    automorphism derivative.
    """

    def __init__(self, base, z0: complex, m_sup: float):
        self.base = base
        self.phi = DiskAutomorphism(z0)
        self.m_sup = float(m_sup)
        if not (self.m_sup > 0.0):
            raise ValueError(f"normalizing constant must be positive, got {m_sup}")
        self._f0 = complex(base.eval(self.phi.z0))
        self._sqrt2 = math.sqrt(2.0)

    def _pullback(self, w):
        if np.ndim(w) == 0:
            return complex(w) / self._sqrt2
        return np.asarray(w, dtype=complex) / self._sqrt2

    def eval(self, w):
        zeta = self._pullback(w)
        return (self.base.eval(self.phi(zeta)) - self._f0) * (self._sqrt2 / self.m_sup)

    def partials(self, w):
        zeta = self._pullback(w)
        u = self.phi(zeta)
        dphi = self.phi.deriv(zeta)
        fz, fzb = self.base.partials(u)
        return fz * dphi / self.m_sup, fzb * np.conj(dphi) / self.m_sup


@dataclass(frozen=True)
class PipelineTrace:
    """What the renormalization pipeline measured.

    ``ellipticity_margin`` is the minimum of K J + 4 K' - ||D||^2 over the
    sample grid of the rescaled map (nonnegative when the quadrupled
    constant suffices); ``distortion_bound_excess`` is the maximum of
    lambda - 2/(2 - |w|^2), expected nonpositive up to argmax error.
    ``center_estimate`` is the image of the argmax point, a heuristic for
    where the covered disk sits.
    """

    sup_weighted_distortion: float
    argmax_point: complex
    center_estimate: complex
    lambda_origin: float
    distortion_bound_excess: float
    ellipticity_margin: float
    sample_count: int
    rescaled_map: BlochRescaledMap = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "sup_weighted_distortion": self.sup_weighted_distortion,
            "argmax_point": [self.argmax_point.real, self.argmax_point.imag],
            "center_estimate": [self.center_estimate.real, self.center_estimate.imag],
            "lambda_origin": self.lambda_origin,
            "distortion_bound_excess": self.distortion_bound_excess,
            "ellipticity_margin": self.ellipticity_margin,
            "sample_count": self.sample_count,
        }


def _weighted_lambda(f, z: complex) -> float:
    fz, fzb = f.partials(z)
    return (1.0 - _abs2(z)) * abs(abs(complex(fz)) - abs(complex(fzb)))


# the pipeline's scan: radius, rings and angles of one polar grid
_PIPELINE_GRID = (0.999, 64, 256)


def bloch_pipeline(f, params: EllipticityParams) -> PipelineTrace:
    """Renormalize f at its weighted-distortion argmax and check the bounds.

    Requires lambda(0) = 1 (within 1e-9).  A strictly negative Jacobian at
    any sample aborts: the pipeline only makes sense for sense-preserving
    maps.
    """
    # imported here: scipy.optimize is most of the import time of elliptica
    from scipy.optimize import minimize

    p0 = profile(f, 0.0)
    if abs(p0.lambda_min - 1.0) > _HYP_TOL:
        raise ValueError(
            f"pipeline requires lambda(0) = 1, got {p0.lambda_min!r}; rescale the map first"
        )

    z_pts = polar_grid(*_PIPELINE_GRID)
    r_sq = z_pts.real**2 + z_pts.imag**2
    _, lam_min_arr, jac_arr = stretches(*sample_grid(f, *_PIPELINE_GRID, partials=True))
    if jac_arr.min() < 0.0:
        bad = z_pts[int(np.argmin(jac_arr))]
        raise RuntimeError(f"sense-reversal at sample z = {complex(bad)!r}; Jacobian = {jac_arr.min()!r}")
    weighted = (1.0 - r_sq) * lam_min_arr
    best = int(np.argmax(weighted))
    m_grid = float(weighted[best])
    z0 = complex(z_pts[best])

    def neg_weighted(v):
        if v[0] * v[0] + v[1] * v[1] >= 0.9999998:
            return 0.0
        return -_weighted_lambda(f, complex(v[0], v[1]))

    polish = minimize(
        neg_weighted,
        [z0.real, z0.imag],
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-16, "maxiter": 600, "maxfev": 1200},
    )
    # adopt the polished point on any strict improvement, also when the
    # polish stops at its evaluation budget; ties keep the grid point so
    # exactly-normalized inputs stay exact
    if -float(polish.fun) > m_grid:
        z0 = complex(polish.x[0], polish.x[1])
    m_sup = _weighted_lambda(f, z0)

    if not (m_sup > 0.0):
        raise RuntimeError("weighted distortion vanished at the argmax; degenerate map")

    g_map = BlochRescaledMap(f, z0, m_sup)
    gp0 = profile(g_map, 0.0)

    # bound checks on the rescaled map, over the same grid read as w points
    lam_max_g, lam_min_g, jac_g = stretches(*sample_grid(g_map, *_PIPELINE_GRID, partials=True))
    if jac_g.min() < 0.0:
        bad = z_pts[int(np.argmin(jac_g))]
        raise RuntimeError(f"sense-reversal after rescaling at w = {complex(bad)!r}")
    excess = float(np.max(lam_min_g - 2.0 / (2.0 - r_sq)))
    margin = float(np.min(params.K * jac_g + 4.0 * params.Kp - lam_max_g**2))

    return PipelineTrace(
        sup_weighted_distortion=m_sup,
        argmax_point=z0,
        center_estimate=complex(f.eval(z0)),
        lambda_origin=float(gp0.lambda_min),
        distortion_bound_excess=excess,
        ellipticity_margin=margin,
        sample_count=2 * len(z_pts),
        rescaled_map=g_map,
    )


def random_elliptic(params: EllipticityParams, lam: float, seed: int = 0) -> HarmonicMap:
    """Draw a random map satisfying the sampled hypotheses with a buffer.

    The affine part fixes lambda(0) = 1 exactly; degrees 2 through 8 get
    complex Gaussian coefficients which are halved until the sampled
    checks pass: sup lambda <= 0.98 lam, ellipticity margin and Jacobian
    bounded away from zero.  The buffer keeps the checks stable under the
    denser grids other components may use.  Raises RuntimeError when the
    parameters leave no room (for instance lam too close to 1).
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    rng = np.random.default_rng(seed)

    margin_buffer = min(0.02, 0.5 * (params.K - 1.0 + params.Kp))
    # largest |h'(0)| + |g'(0)| the origin margin allows, with the buffer
    disc = params.K * params.K + 4.0 * (params.Kp - margin_buffer)
    u_max = 0.5 * (params.K + math.sqrt(disc)) if disc > 0.0 else 1.0
    b1_cap = min(0.3, max(0.0, 0.5 * (u_max - 1.0)))

    b1_abs = b1_cap * float(rng.random())
    phases = 2.0 * np.pi * rng.random(2)
    a1 = (1.0 + b1_abs) * complex(math.cos(phases[0]), math.sin(phases[0]))
    b1 = b1_abs * complex(math.cos(phases[1]), math.sin(phases[1]))

    degrees = np.arange(2, 9)
    shape = len(degrees)
    a_hi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.25 / degrees**2
    b_hi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.25 / degrees**2
    if b1_cap == 0.0:
        b_hi = np.zeros(shape, dtype=complex)  # conformal regime: no antianalytic part at all

    jac_floor = 0.02
    scale = 1.0
    for _ in range(64):
        analytic = np.concatenate(([0.0, a1], scale * a_hi))
        anti = np.concatenate(([b1], scale * b_hi))
        candidate = HarmonicMap(analytic, anti)
        lam_max, lam_min_arr, jac = stretches(*sample_grid(candidate, 1.0 - 1e-7, 48, 192, partials=True))
        if (
            float(lam_min_arr.max()) <= 0.98 * lam
            and float(np.min(params.K * jac + params.Kp - lam_max * lam_max)) >= margin_buffer
            and float(jac.min()) >= (jac_floor if margin_buffer > 0.0 else 0.0)
        ):
            return candidate
        scale *= 0.5
    raise RuntimeError(
        "generator exhausted: the sampled hypotheses leave no room at "
        f"K={params.K}, K'={params.Kp}, lam={lam} (lam must exceed about 1.02)"
    )


def _hypothesis_review(f, params: EllipticityParams, bound: DistortionBound) -> tuple[bool, dict]:
    """Check the theorem hypotheses on samples; failures exclude the map.

    A failed hypothesis falsifies the input, not the theorem, so campaign
    verdicts never count excluded maps as violations.
    """
    reasons = []
    origin_value = complex(f.eval(0.0))
    if abs(origin_value) > _HYP_TOL:
        reasons.append(f"f(0) = {origin_value!r} is not 0")
    p0 = profile(f, 0.0)
    if abs(p0.lambda_min - 1.0) > _HYP_TOL:
        reasons.append(f"lambda(0) = {p0.lambda_min!r} is not 1")
    report = ellipticity_check(f, params)
    sup_lam = report.sup_lambda_min
    if sup_lam > float(bound.lam) + _HYP_TOL:
        reasons.append(f"sup lambda = {sup_lam!r} exceeds {float(bound.lam)!r}")
    if report.min_margin < -_HYP_TOL:
        reasons.append(f"ellipticity margin {report.min_margin!r} at {report.worst_point!r}")
    if not report.sense_preserving_everywhere_sampled:
        reasons.append("negative Jacobian sample")
    detail = {
        "origin": [origin_value.real, origin_value.imag],
        "lambda_origin": p0.lambda_min,
        "sup_lambda": sup_lam,
        "ellipticity_margin": report.min_margin,
        "reasons": reasons,
    }
    return not reasons, detail


def build_report(theorem: str, params: dict, maps: list, worst_case: dict) -> dict:
    """Common report shape; runtime_ms stays null for reproducible bytes."""
    return {
        "theorem": theorem,
        "params": params,
        "maps": maps,
        "worst_case": worst_case,
        "runtime_ms": None,
        "version": PACKAGE_VERSION,
    }


MapEntry = tuple[str, str, Any]  # (id, source description, map object)


def _campaign(entries: Sequence[MapEntry], check: Callable, worst_keys: Callable | None = None,
              **context) -> tuple[list, dict]:
    """Check every map; return the rows and the worst case.

    ``check(f)`` returns ``(verdict, verdicts, slacks)``; a RuntimeError it raises
    makes that map an excluded row carrying the message.  The worst case says
    whether any row is refuted or a violation, carries ``context``, and then
    describes the first row with the least slack by ``worst_keys(row, slack)``,
    by default its id and that slack.  Only rows with slacks can be the worst.
    """

    def one(entry: MapEntry) -> dict:
        map_id, source, f = entry
        try:
            verdict, verdicts, slacks = check(f)
        except RuntimeError as exc:
            verdict, verdicts, slacks = "excluded", {"error": str(exc)}, {}
        return {"id": map_id, "source": source, "verdict": verdict,
                "verdicts": verdicts, "slacks": slacks}

    rows = parallel_map(one, entries)
    worst_case = {"refuted": any(r["verdict"] in ("refuted", "violation") for r in rows), **context}
    scored = [(min(r["slacks"].values()), r) for r in rows if r["slacks"]]
    if scored:
        slack, row = min(scored, key=lambda pair: pair[0])
        worst_case.update(worst_keys(row, slack) if worst_keys else {"map": row["id"], "slack": slack})
    return rows, worst_case


_COEFF_TOL = 1e-10


def verify_coefficient_bounds(entries: Sequence[MapEntry], params: EllipticityParams,
                              bound: DistortionBound) -> dict:
    """Check |a_n| + |b_n| <= T/n for every map against its series.

    Maps failing the hypotheses are reported as excluded.  The worst case
    tracks the smallest slack among included maps; a slack below -1e-10 is
    a violation and flips the report's refuted flag.
    """

    def check(f) -> tuple[str, dict, dict]:
        ok, detail = _hypothesis_review(f, params, bound)
        if not ok:
            return "excluded", {"hypotheses": detail}, {}
        slacks = {}
        worst_n = None
        worst = math.inf
        for n in range(2, f.truncation_degree + 1):
            slack = coeff_bound(n, params, bound) - f.coeff_abs_sum(n)
            slacks[str(n)] = slack
            if slack < worst:
                worst = slack
                worst_n = n
        verdict = "pass" if worst >= -_COEFF_TOL else "violation"
        return verdict, {"hypotheses": detail, "worst_degree": worst_n}, slacks

    rows, worst_case = _campaign(entries, check, lambda row, slack: {
        "map": row["id"], "degree": row["verdicts"]["worst_degree"], "slack": slack})
    return build_report(
        "coefficient-bounds",
        {"K": params.K, "Kp": params.Kp, "lam": float(bound.lam), "tol": _COEFF_TOL},
        rows,
        worst_case,
    )


def verify_landau_probes(entries: Sequence[MapEntry], params: EllipticityParams,
                         bound: DistortionBound) -> dict:
    """Probe univalence at r1 and coverage at sigma1 for each map.

    Probes run just inside the stated radii (relative slacks are part of
    the contract: the statement is open-disk).  Hypothesis failures
    exclude a map from the verdict; a refutation from either oracle flips
    the refuted flag.
    """
    result = landau(params, bound)
    probe_radius = result.r1 * (1.0 - 1e-6)
    probe_rho = result.sigma1 * (1.0 - 1e-3)

    def check(f) -> tuple[str, dict, dict]:
        ok, detail = _hypothesis_review(f, params, bound)
        if not ok:
            return "excluded", {"hypotheses": detail}, {}
        uni = univalence_probe(f, probe_radius)
        cov = coverage_probe(f, probe_radius, probe_rho)
        if uni.status == REFUTED or cov.status == REFUTED:
            verdict = "refuted"
        elif uni.status == CERTIFIED and cov.status == CERTIFIED:
            verdict = "certified"
        else:
            verdict = "inconclusive"
        return (verdict,
                {"univalence": uni.to_json_dict(), "coverage": cov.to_json_dict()},
                {"univalence_margin": uni.margin, "coverage_margin": cov.margin})

    rows, worst_case = _campaign(entries, check, lambda row, margin: {"map": row["id"], "margin": margin},
                                 probe_radius=probe_radius, probe_rho=probe_rho)
    return build_report(
        "landau-radius",
        {"K": params.K, "Kp": params.Kp, "lam": float(bound.lam),
         "r1": result.r1, "sigma1": result.sigma1},
        rows,
        worst_case,
    )


_PIPE_TOL = 1e-9
_PIPE_NORM_TOL = 1e-12


def verify_bloch_pipeline(entries: Sequence[MapEntry], params: EllipticityParams,
                          bound: DistortionBound) -> dict:
    """Renormalize each map with :func:`bloch_pipeline` and check the rescaled map.

    It passes when lambda <= 2/(2 - |w|^2) and the quadrupled ellipticity
    margin >= 0 hold within 1e-9, and lambda(0) = 1 within 1e-12.  A map the
    pipeline rejects (sense reversal) is an excluded row; ``bound`` labels the report.
    """

    def check(f) -> tuple[str, dict, dict]:
        trace = bloch_pipeline(f, params)
        slacks = {"bound": -trace.distortion_bound_excess, "ellipticity": trace.ellipticity_margin,
                  "normalization": _PIPE_NORM_TOL - abs(trace.lambda_origin - 1.0)}
        ok = (slacks["bound"] >= -_PIPE_TOL and slacks["ellipticity"] >= -_PIPE_TOL
              and slacks["normalization"] >= 0.0)
        return "pass" if ok else "violation", trace.to_json_dict(), slacks

    rows, worst_case = _campaign(entries, check)
    return build_report("bloch-pipeline",
                        {"K": params.K, "Kp": params.Kp, "lam": float(bound.lam)},
                        rows, worst_case)


def verify_jacobian_normalized(f, params: EllipticityParams,
                               map_id: str = "map", source: str = "") -> dict:
    """Jacobian-normalized route: rescale by lambda(0), recheck ellipticity.

    Requires J(0) = 1 within 1e-9 (that is the normalization this route
    assumes); rejects otherwise.  The origin bound Lambda(0) <= sqrt(K+K')
    is evaluated and reported, not enforced: a failure here falsifies the
    bound for this map, which is exactly what the report should say.  The
    map runs as a one-entry campaign, so the row and worst case take the
    shape of every other campaign's.
    """
    p0 = profile(f, 0.0)
    if abs(p0.jacobian - 1.0) > _HYP_TOL:
        raise ValueError(f"route requires J(0) = 1, got {p0.jacobian!r}")
    if not isinstance(f, HarmonicMap):
        raise TypeError("this route rescales coefficients and needs a series map")

    eff = EllipticityParams(params.K, params.Kp * (params.K + params.Kp))

    def check(f) -> tuple[str, dict, dict]:
        lambda0_slack = math.sqrt(params.K + params.Kp) + _HYP_TOL - p0.lambda_max
        scaled = f.scale_output(1.0 / p0.lambda_min)
        report = ellipticity_check(scaled, eff)
        verdicts = {
            "lambda0_bound_holds": bool(lambda0_slack >= 0.0),
            "input_ellipticity_margin": ellipticity_check(f, params).min_margin,
            "rescaled_lambda_origin": profile(scaled, 0.0).lambda_min,
            "rescaled_ellipticity": report.to_json_dict(),
        }
        ok = lambda0_slack >= 0.0 and report.min_margin >= -_HYP_TOL
        return ("pass" if ok else "violation", verdicts,
                {"lambda0_slack": lambda0_slack, "ellipticity_margin": report.min_margin})

    rows, worst_case = _campaign([(map_id, source, f)], check)
    return build_report(
        "bloch-jacobian-normalized",
        {"K": params.K, "Kp": params.Kp, "K_eff": eff.K, "Kp_eff": eff.Kp,
         "rho2": bloch_jacobian_normalized(params).rho},
        rows,
        worst_case,
    )


# the parameter box of the remark sweep, and the pair count of the psi sweep
_K_RANGE = (1.0, 8.0)
_KP_RANGE = (0.0, 8.0)
_LAM_RANGE = (1.0, 8.0)
_PSI_PAIRS = 10_000


def remark_campaign(samples: int = 1000) -> dict:
    """Sweep the growth-rate comparisons over a low-discrepancy parameter box.

    Asserted relations: the correction term improves on the baseline rate,
    the radius dominates 1/(1 + baseline), and the coverage value dominates
    the baseline's.  The literal variant 1/baseline is tracked separately
    because it genuinely fails on part of the box; the report records how
    often, without counting it as a refutation.  A strict monotonicity
    sweep of the coverage kernel over ordered pairs rides along.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    u_k = halton(samples, 2)
    u_kp = halton(samples, 3)
    u_lam = halton(samples, 5)

    failures = 0
    literal_violations = 0
    min_slacks = {"correction": math.inf, "radius": math.inf, "sigma": math.inf,
                  "radius_literal": math.inf}
    argmin: dict = {}
    for i in range(samples):
        k_val = _K_RANGE[0] + (_K_RANGE[1] - _K_RANGE[0]) * float(u_k[i])
        kp_val = _KP_RANGE[0] + (_KP_RANGE[1] - _KP_RANGE[0]) * float(u_kp[i])
        lam_val = _LAM_RANGE[0] + (_LAM_RANGE[1] - _LAM_RANGE[0]) * float(u_lam[i])
        if lam_val <= 1.0:
            lam_val = 1.0 + 1e-9
        checks = remark_inequalities(EllipticityParams(k_val, kp_val), DistortionBound(lam_val))
        holds = checks.correction_holds and checks.radius_holds and checks.sigma_holds
        if not holds:
            failures += 1
        if not checks.radius_literal_holds:
            literal_violations += 1
        for key, slack in (
            ("correction", checks.correction_slack),
            ("radius", checks.radius_slack),
            ("sigma", checks.sigma_slack),
            ("radius_literal", checks.radius_literal_slack),
        ):
            if slack < min_slacks[key]:
                min_slacks[key] = slack
                if key != "radius_literal":
                    argmin[key] = {"K": k_val, "Kp": kp_val, "lam": lam_val}

    lo, hi = math.log(1e-3), math.log(1e3)
    u1 = halton(_PSI_PAIRS, 7)
    u2 = halton(_PSI_PAIRS, 11)
    psi_failures = 0
    for i in range(_PSI_PAIRS):
        t_a = math.exp(lo + (hi - lo) * float(u1[i]))
        t_b = math.exp(lo + (hi - lo) * float(u2[i]))
        if t_a == t_b:
            continue
        t_lo, t_hi = (t_a, t_b) if t_a < t_b else (t_b, t_a)
        if not (psi(t_lo) > psi(t_hi)):
            psi_failures += 1

    worst_case = {
        "refuted": failures > 0 or psi_failures > 0,
        "failures": failures,
        "min_slacks": min_slacks,
        "argmin": argmin,
        "literal_radius_violations": literal_violations,
        "psi_pairs": _PSI_PAIRS,
        "psi_failures": psi_failures,
    }
    return build_report(
        "growth-remarks",
        {"samples": samples, "K_range": list(_K_RANGE), "Kp_range": list(_KP_RANGE),
         "lam_range": list(_LAM_RANGE)},
        [],
        worst_case,
    )

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
from dataclasses import dataclass
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
    # imported here: a single-threaded process need not load concurrent.futures and logging
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def _abs2(z) -> float:
    # written out so the same float expression appears in every place the
    # pipeline relies on cancellation
    return z.real * z.real + z.imag * z.imag


def _rescaled_partials(f, z0: complex, m_sup: float, w):
    """Wirtinger partials of G(w) = sqrt(2)/m_sup * (f(phi(w/sqrt 2)) - f(z0)), phi(0) = z0.

    phi(z) = (z + z0) / (1 + conj(z0) z) keeps the disk; by the chain rule
    G_w = f_z(u) phi'/m_sup and G_wbar = f_zbar(u) conj(phi')/m_sup at u = phi(w/sqrt 2).
    """
    zeta = complex(w) / math.sqrt(2.0) if np.ndim(w) == 0 else np.asarray(w, dtype=complex) / math.sqrt(2.0)
    denom = 1.0 + np.conj(z0) * zeta
    fz, fzb = f.partials((zeta + z0) / denom)
    dphi = (1.0 - _abs2(z0)) / (denom * denom)
    return fz * dphi / m_sup, fzb * np.conj(dphi) / m_sup


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

# the polish's stopping rule: simplex and value spreads, iterations, evaluations
_NM_XATOL, _NM_FATOL, _NM_MAXITER, _NM_MAXFEV = 1e-11, 1e-16, 600, 1200


class _BudgetSpent(Exception):
    """The polish asked for an evaluation beyond _NM_MAXFEV."""


def _nelder_mead(fn: Callable, x0) -> tuple[np.ndarray, float, int]:
    """Minimize fn over the plane from x0 by the simplex method of Nelder and Mead (1965).

    Returns the best vertex, its value and the number of fn calls.  The
    steps, reorderings and stops are those of scipy's (1.17) Nelder-Mead
    with the standard coefficients and the _NM_* options, expression for
    expression, so the iterates agree bit for bit: fn gets a copy of each
    vertex, and the evaluation budget abandons an iteration part-way, as
    scipy's does.  Any other polish would move the argmax bits, and with
    them every slack the pipeline reports.
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= _NM_MAXFEV:
            raise _BudgetSpent
        calls += 1
        return fn(np.copy(x))

    x0 = np.asarray(x0, dtype=float)
    sim = np.array([x0, x0, x0])
    for k in range(2):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim])
    for _ in range(2):  # scipy sorts twice before the first step
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while calls < _NM_MAXFEV and iterations < _NM_MAXITER:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _NM_XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _NM_FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / 2
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside when the reflection beats the worst vertex, else inside
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in (1, 2):  # shrink towards the best vertex
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), calls


def bloch_pipeline(f, params: EllipticityParams) -> PipelineTrace:
    """Renormalize f at its weighted-distortion argmax and check the bounds.

    Requires lambda(0) = 1 (within 1e-9).  A strictly negative Jacobian at
    any sample aborts: the pipeline only makes sense for sense-preserving
    maps.  The rescaled map is read only through its partials at w = 0 and
    at the grid points, so it is never built.
    """
    p0 = profile(f, 0.0)
    if not abs(p0.lambda_min - 1.0) <= _HYP_TOL:
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

    x, fun, _ = _nelder_mead(neg_weighted, [z0.real, z0.imag])
    # adopt the polished point on any strict improvement, also when the
    # polish stops at its evaluation budget; ties keep the grid point so
    # exactly-normalized inputs stay exact
    if -fun > m_grid:
        z0 = complex(x[0], x[1])
    m_sup = _weighted_lambda(f, z0)

    if not (m_sup > 0.0):
        raise RuntimeError("weighted distortion vanished at the argmax; degenerate map")

    gz, gzb = _rescaled_partials(f, z0, m_sup, 0.0)
    # bound checks on the rescaled map, over the same grid read as w points
    lam_max_g, lam_min_g, jac_g = stretches(*_rescaled_partials(f, z0, m_sup, z_pts))
    if jac_g.min() < 0.0:
        bad = z_pts[int(np.argmin(jac_g))]
        raise RuntimeError(f"sense-reversal after rescaling at w = {complex(bad)!r}")
    excess = float(np.max(lam_min_g - 2.0 / (2.0 - r_sq)))
    margin = float(np.min(params.K * jac_g + 4.0 * params.Kp - lam_max_g**2))

    return PipelineTrace(
        sup_weighted_distortion=m_sup,
        argmax_point=z0,
        center_estimate=complex(f.eval(z0)),
        lambda_origin=float(abs(abs(gz) - abs(gzb))),
        distortion_bound_excess=excess,
        ellipticity_margin=margin,
        sample_count=2 * len(z_pts),
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


def _hypothesis_review(f, params: EllipticityParams, bound: DistortionBound) -> tuple[str, dict]:
    """Review the theorem's hypotheses; a map that does not pass is outside the theorem.

    f(0) = 0 and lambda(0) = 1 are checked at the origin, and sup lambda <=
    Lambda, (K, K')-ellipticity and sense preservation on |z| <= 0.999 by
    :func:`~elliptica.hypotheses.certify_hypotheses`, which proves them or
    refutes one at a point.  Returns the status, ``certified``, ``refuted``
    or ``inconclusive``, and the detail a row records.  A map refuted here
    falsifies the input, not the theorem, so campaigns count it as excluded,
    never as a violation; an inconclusive review is neither.
    """
    # imported here: `import elliptica` need not compile the certificate
    from .hypotheses import certify_hypotheses

    reasons = []
    origin_value = complex(f.eval(0.0))
    if abs(origin_value) > _HYP_TOL:
        reasons.append(f"f(0) = {origin_value!r} is not 0")
    # a derivative series that overflowed gives inf * 0 = nan at the origin; the
    # certificate below then finds non-finite derivatives and is inconclusive
    with np.errstate(invalid="ignore"):
        p0 = profile(f, 0.0)
    if abs(p0.lambda_min - 1.0) > _HYP_TOL:
        reasons.append(f"lambda(0) = {p0.lambda_min!r} is not 1")
    review = certify_hypotheses(f, params, bound.lam, _HYP_TOL)
    status = REFUTED if reasons else review.status
    witness = review.witness
    detail = {
        "status": status,
        "origin": [origin_value.real, origin_value.imag],
        # an overflowing map may leave no finite value, and JSON has no spelling for inf
        "lambda_origin": p0.lambda_min if math.isfinite(p0.lambda_min) else None,
        **review.pieces,
        "sup_lambda": review.sup_lambda if math.isfinite(review.sup_lambda) else None,
        "ellipticity_margin": review.ellipticity_margin if math.isfinite(review.ellipticity_margin) else None,
        "witness": None if witness is None else [witness.real, witness.imag],
        "reasons": reasons + list(review.reasons),
    }
    return status, detail


def _reviewed(check: Callable, params: EllipticityParams, bound: DistortionBound) -> Callable:
    """check(f) -> (verdict, verdicts, slacks), run only on maps whose review certifies.

    Any other map is an ``excluded`` row (refuted review) or an
    ``inconclusive`` one, with the review as ``verdicts.hypotheses``;
    a reviewed map's verdicts carry it first.
    """

    def reviewed(f) -> tuple[str, dict, dict]:
        status, detail = _hypothesis_review(f, params, bound)
        if status != CERTIFIED:
            return ("excluded" if status == REFUTED else "inconclusive"), {"hypotheses": detail}, {}
        verdict, verdicts, slacks = check(f)
        return verdict, {"hypotheses": detail, **verdicts}, slacks

    return reviewed


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

    Only maps whose hypothesis review certifies are checked (see
    :func:`_hypothesis_review`).  The worst case tracks the smallest slack
    among them; a slack below -1e-10 is a violation and flips the report's
    refuted flag.
    """

    def check(f) -> tuple[str, dict, dict]:
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
        return verdict, {"worst_degree": worst_n}, slacks

    rows, worst_case = _campaign(entries, _reviewed(check, params, bound), lambda row, slack: {
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
    the contract: the statement is open-disk).  Only maps whose hypothesis
    review certifies are probed; a refutation from either oracle flips the
    refuted flag.
    """
    result = landau(params, bound)
    probe_radius = result.r1 * (1.0 - 1e-6)
    probe_rho = result.sigma1 * (1.0 - 1e-3)

    def check(f) -> tuple[str, dict, dict]:
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

    rows, worst_case = _campaign(entries, _reviewed(check, params, bound),
                                 lambda row, margin: {"map": row["id"], "margin": margin},
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
    margin >= 0 hold within 1e-9, and lambda(0) = 1 within 1e-12.  As in the
    other campaigns, only maps whose hypothesis review certifies are
    renormalized, so a map outside the theorem cannot become a violation; a
    map the pipeline still rejects (sense reversal on its grid) is an
    excluded row.
    """

    def check(f) -> tuple[str, dict, dict]:
        trace = bloch_pipeline(f, params)
        slacks = {"bound": -trace.distortion_bound_excess, "ellipticity": trace.ellipticity_margin,
                  "normalization": _PIPE_NORM_TOL - abs(trace.lambda_origin - 1.0)}
        ok = (slacks["bound"] >= -_PIPE_TOL and slacks["ellipticity"] >= -_PIPE_TOL
              and slacks["normalization"] >= 0.0)
        return "pass" if ok else "violation", trace.to_json_dict(), slacks

    rows, worst_case = _campaign(entries, _reviewed(check, params, bound))
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
    if not abs(p0.jacobian - 1.0) <= _HYP_TOL:
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

"""Verification campaigns: scans, pipelines, and report assembly.

The centerpiece is :func:`bloch_pipeline`, which renormalizes a map f at
the argmax z0 of W(z) = (1 - |z|^2) lambda(z), m = W(z0), into G(w) =
sqrt(2) (f(phi(w/sqrt 2)) - f(z0)) / m, phi(z) = (z + z0)/(1 + conj(z0) z).
With u = phi(w/sqrt 2) and s = (|phi'|/m)^2 < 4, the chain rule gives
lambda_G(w) (1 - |w|^2/2) = W(u)/m and K J_G + 4 K' - |DG|^2 = s (K J_f +
K' - |Df|^2) + K' (4 - s).  So the review's certified margin and the
review's square search, which bounds sup W, certify G's distortion bound
and quadrupled ellipticity on |w| <= 0.999 without a grid, while |z0| <
0.994 keeps u in the reviewed disk.  The origin is evaluated first and
ties keep it, so the identity map's trace stays exact.

Campaign functions return the common report dictionary of
:func:`~elliptica.constants.build_report` (theorem, params, maps,
worst_case, runtime_ms, version), which the command line serializes
verbatim; the remark sweep, which needs no arrays, lives in
:mod:`elliptica.constants` too.  runtime_ms stays null unless the caller stamps it, so repeated
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
    EllipticityParams,
    bloch_jacobian_normalized,
    build_report,
    coeff_bound,
    landau,
)
from .distortion import profile
from .oracles import CERTIFIED, INCONCLUSIVE, REFUTED, coverage_probe, univalence_probe
from .seriescore import HarmonicMap

__all__ = [
    "PipelineTrace",
    "bloch_pipeline",
    "parallel_map",
    "random_elliptic",
    "thread_count",
    "verify_bloch_pipeline",
    "verify_coefficient_bounds",
    "verify_jacobian_normalized",
    "verify_landau_probes",
]

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
    """What the renormalization pipeline certified.

    ``distortion_bound_excess`` bounds lambda_G - 2/(2 - |w|^2) from above
    over |w| <= 0.999 (it is 2 (M - m)/m for the search's bound M on sup W),
    and ``ellipticity_margin`` bounds K J_G + 4 K' - |DG|^2 from below (it
    is 4 min(K', the review's margin)).  ``sample_count`` is the number of
    squares the argmax search evaluated.  ``center_estimate`` is the image
    of the argmax point, a heuristic for where the covered disk sits.
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


# past this radius of the argmax, phi(w/sqrt 2) with |w| <= 0.999 leaves the
# reviewed disk |z| <= 0.999
_PIPELINE_REACH = 0.994


def bloch_pipeline(f, params: EllipticityParams) -> PipelineTrace:
    """Renormalize f at its weighted-distortion argmax and bound the rescaled map.

    Requires lambda(0) = 1 (within 1e-9).  Raises RuntimeError when the
    review with Lambda = inf does not certify (``sense-reversal`` when J > 0
    fails), when the argmax search runs out of squares, or at |z0| >= 0.994.
    """
    p0 = profile(f, 0.0)
    if not abs(p0.lambda_min - 1.0) <= _HYP_TOL:
        raise ValueError(
            f"pipeline requires lambda(0) = 1, got {p0.lambda_min!r}; rescale the map first"
        )
    # imported here: `import elliptica` need not compile the certificate
    from .hypotheses import _sup_weighted, certify_hypotheses

    review = certify_hypotheses(f, params, math.inf, _HYP_TOL)
    if review.status != CERTIFIED:
        kind = "sense-reversal, " if any(r.startswith("Jacobian") for r in review.reasons) else ""
        raise RuntimeError(f"{kind}hypothesis review {review.status}: " + "; ".join(review.reasons))
    z0, m_bar, squares = _sup_weighted(f)
    if abs(z0) >= _PIPELINE_REACH:
        raise RuntimeError(f"argmax z0 = {z0!r} lies past |z| = {_PIPELINE_REACH}, where phi(w/sqrt 2) "
                           "leaves the reviewed disk")
    fz, fzb = f.partials(z0)
    m_sup = (1.0 - _abs2(z0)) * abs(abs(fz) - abs(fzb))
    gz, gzb = _rescaled_partials(f, z0, m_sup, 0.0)
    return PipelineTrace(
        sup_weighted_distortion=m_sup,
        argmax_point=z0,
        center_estimate=complex(f.eval(z0)),
        lambda_origin=float(abs(abs(gz) - abs(gzb))),
        # lambda_G (1 - |w|^2/2) = W(u)/m <= m_bar/m, and 1 - |w|^2/2 >= 1/2
        distortion_bound_excess=2.0 * (m_bar - m_sup) / m_sup,
        # s = (|phi'|/m)^2 < 4: |phi'| = (1 - |u|^2)/(1 - |w|^2/2) < 2 and m >= lambda(0) = 1
        ellipticity_margin=4.0 * min(float(params.Kp), review.ellipticity_margin),
        sample_count=squares,
    )


def random_elliptic(params: EllipticityParams, lam: float, seed: int = 0) -> HarmonicMap:
    """Draw a random map whose hypotheses are certified with a buffer.

    The affine part fixes lambda(0) = 1 exactly; degrees 2 through 8 get
    complex Gaussian coefficients which are halved until the review of
    :func:`~elliptica.hypotheses.certify_hypotheses` certifies, on |z| <=
    0.999, sup lambda <= 0.98 lam, an ellipticity margin of at least the
    buffer, and J > 0.  Raises RuntimeError when the parameters leave no
    room (for instance lam too close to 1).
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    # imported here: `import elliptica` need not compile the certificate
    from .hypotheses import certify_hypotheses

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

    scale = 1.0
    for _ in range(64):
        analytic = np.concatenate(([0.0, a1], scale * a_hi))
        anti = np.concatenate(([b1], scale * b_hi))
        candidate = HarmonicMap(analytic, anti)
        # the tolerance -buffer demands a margin >= buffer, and lam is raised by the buffer to match
        review = certify_hypotheses(candidate, params, 0.98 * lam + margin_buffer, -margin_buffer)
        if review.status == CERTIFIED:
            return candidate
        scale *= 0.5
    raise RuntimeError(
        "generator exhausted: the hypotheses certified on |z| <= 0.999 leave no room at "
        f"K={params.K}, K'={params.Kp}, lam={lam} (lam must exceed about 1.02)"
    )


def _hypothesis_review(f, params: EllipticityParams, lam: float) -> tuple[str, dict]:
    """Review the theorem's hypotheses; a map that does not pass is outside the theorem.

    f(0) = 0 and lambda(0) = 1 are checked at the origin, and sup lambda <=
    lam, (K, K')-ellipticity and sense preservation on |z| <= 0.999 by
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
    review = certify_hypotheses(f, params, lam, _HYP_TOL)
    status = REFUTED if reasons else review.status
    fields = _review_fields(review)
    detail = {
        "status": status,
        "origin": [origin_value.real, origin_value.imag],
        "lambda_origin": _finite(p0.lambda_min),
        **fields,
        "reasons": reasons + fields["reasons"],
    }
    return status, detail


def _finite(x: float) -> float | None:
    # an overflowing map may leave no finite value, and JSON has no spelling for inf
    return x if math.isfinite(x) else None


def _review_fields(review) -> dict:
    """A review's JSON fields after its status: pieces, bounds, witness and reasons."""
    witness = review.witness
    return {
        **review.pieces,
        "sup_lambda": _finite(review.sup_lambda),
        "ellipticity_margin": _finite(review.ellipticity_margin),
        "witness": None if witness is None else [witness.real, witness.imag],
        "reasons": list(review.reasons),
    }


def _reviewed(check: Callable, params: EllipticityParams, lam: float) -> Callable:
    """check(f) -> (verdict, verdicts, slacks), run only on maps whose review at lam certifies.

    Any other map is an ``excluded`` row (refuted review) or an
    ``inconclusive`` one, with the review as ``verdicts.hypotheses``;
    a reviewed map's verdicts carry it first.
    """

    def reviewed(f) -> tuple[str, dict, dict]:
        status, detail = _hypothesis_review(f, params, lam)
        if status != CERTIFIED:
            return ("excluded" if status == REFUTED else "inconclusive"), {"hypotheses": detail}, {}
        verdict, verdicts, slacks = check(f)
        return verdict, {"hypotheses": detail, **verdicts}, slacks

    return reviewed


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

    rows, worst_case = _campaign(entries, _reviewed(check, params, bound.lam), lambda row, slack: {
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

    rows, worst_case = _campaign(entries, _reviewed(check, params, bound.lam),
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

    It passes when the trace's certified bounds give lambda <= 2/(2 - |w|^2)
    and a quadrupled ellipticity margin >= 0 on |w| <= 0.999 within 1e-9,
    and lambda(0) = 1 within 1e-12.  As in the other campaigns, only maps
    whose hypothesis review certifies are renormalized, so a map outside the
    theorem cannot become a violation; a map the pipeline rejects (its argmax
    search out of squares, or the argmax past |z| = 0.994) is an excluded
    row whose error names the reason.  The Bloch theorem assumes no bound
    Lambda, so the row's review takes Lambda = inf, the review the pipeline
    runs itself, and each map is reviewed once; ``bound`` only names the
    report's lam.
    """

    def check(f) -> tuple[str, dict, dict]:
        trace = bloch_pipeline(f, params)
        slacks = {"bound": -trace.distortion_bound_excess, "ellipticity": trace.ellipticity_margin,
                  "normalization": _PIPE_NORM_TOL - abs(trace.lambda_origin - 1.0)}
        ok = (slacks["bound"] >= -_PIPE_TOL and slacks["ellipticity"] >= -_PIPE_TOL
              and slacks["normalization"] >= 0.0)
        return "pass" if ok else "violation", trace.to_json_dict(), slacks

    rows, worst_case = _campaign(entries, _reviewed(check, params, math.inf))
    return build_report("bloch-pipeline",
                        {"K": params.K, "Kp": params.Kp, "lam": float(bound.lam)},
                        rows, worst_case)


def verify_jacobian_normalized(f, params: EllipticityParams,
                               map_id: str = "map", source: str = "") -> dict:
    """Jacobian-normalized route: rescale by lambda(0), review the (K, K'(K + K')) hypotheses.

    Requires J(0) = 1 within 1e-9 (that is the normalization this route
    assumes); rejects otherwise.  The origin bound Lambda(0) <= sqrt(K+K')
    is evaluated and reported, not enforced: a failure here falsifies the
    bound for this map, which is exactly what the report should say.  The
    rescaled map f/lambda(0) is then reviewed by
    :func:`~elliptica.hypotheses.certify_hypotheses` with Lambda = inf at
    (K, K'(K + K')): a refuted review, like a failed origin bound, is a
    violation, and an undecided one makes the row inconclusive, without
    slacks.  The input's own (K, K') review is reported beside it.  Both
    reviews take the campaigns' JSON shape, so a certified review's
    ``ellipticity_margin`` is a certified lower bound on |z| <= 0.999, not
    a sampled minimum, and reads lower than one.  The map runs as a
    one-entry campaign, so the row and worst case take the shape of every
    other campaign's.
    """
    p0 = profile(f, 0.0)
    if not abs(p0.jacobian - 1.0) <= _HYP_TOL:
        raise ValueError(f"route requires J(0) = 1, got {p0.jacobian!r}")
    # first, so that a K'(K + K') that overflows is a ValueError naming K and K'
    rho2 = bloch_jacobian_normalized(params).rho
    eff = EllipticityParams(params.K, params.Kp * (params.K + params.Kp))
    # imported here: `import elliptica` need not compile the certificate
    from .hypotheses import certify_hypotheses

    def check(f) -> tuple[str, dict, dict]:
        lambda0_slack = math.sqrt(params.K + params.Kp) + _HYP_TOL - p0.lambda_max
        scaled = f.scale_output(1.0 / p0.lambda_min)
        review = certify_hypotheses(scaled, eff, math.inf, _HYP_TOL)
        given = certify_hypotheses(f, params, math.inf, _HYP_TOL)
        verdicts = {
            "lambda0_bound_holds": bool(lambda0_slack >= 0.0),
            "input_hypotheses": {"status": given.status, **_review_fields(given)},
            "rescaled_lambda_origin": profile(scaled, 0.0).lambda_min,
            "rescaled_hypotheses": {"status": review.status, **_review_fields(review)},
        }
        if review.status == INCONCLUSIVE and lambda0_slack >= 0.0:
            return "inconclusive", verdicts, {}
        slacks = {"lambda0_slack": lambda0_slack}
        if review.status != INCONCLUSIVE:
            slacks["ellipticity_margin"] = review.ellipticity_margin
        ok = lambda0_slack >= 0.0 and review.status == CERTIFIED
        return ("pass" if ok else "violation"), verdicts, slacks

    rows, worst_case = _campaign([(map_id, source, f)], check)
    return build_report(
        "bloch-jacobian-normalized",
        {"K": params.K, "Kp": params.Kp, "K_eff": eff.K, "Kp_eff": eff.Kp,
         "rho2": rho2},
        rows,
        worst_case,
    )

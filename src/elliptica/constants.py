"""Closed-form constants for (K, Kp)-elliptic harmonic mappings.

For a sense-preserving harmonic map of the unit disk with f(0) = 0,
lambda_f(0) = 1, lambda_f <= lam and |Df|^2 <= K*J_f + Kp, the series
coefficients grow no faster than T/n with

    T = K*lam + 2*(Kp - 1) / (K*lam + sqrt(K**2*lam**2 + 4*Kp)),

f is univalent on the disk of radius r1 = 1/(1 + T), and the image covers a
disk of radius sigma1 = psi(T), where

    psi(t) = 1 + t*log(t / (1 + t)),   t > 0,

extended by continuity to psi(0) = 1.  psi is strictly decreasing with range
(0, 1).  Two Bloch-type lower bounds come from renormalizing an arbitrary map
(no pointwise distortion cap): one for minimum-distortion normalization
lambda_f(0) = 1, one for Jacobian normalization J_f(0) = 1.  The classical
bounded-analytic constants (univalence radius r0, covered radius R0 for
|f| <= M, f'(0) = 1) are included for comparison fixtures.

Every formula accepts a ``ctx`` module (``math`` by default) so the same
formulas run on floats or, with ``ctx=mpmath`` and mpf arguments, at any
working precision; the high-precision route is what the 1e-12 identity tests
use.

The module also holds the rest of the code that needs no arrays: the report
shape and package version, the remark sweep over a Halton parameter box, and
the radical inverse behind every Halton sequence.  It imports only the
standard library, so the command line's ``constants`` and ``verify-theorem
--which remarks`` never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PACKAGE_VERSION",
    "EllipticityParams",
    "DistortionBound",
    "LandauResult",
    "BlochBound",
    "ClassicalLandau",
    "RemarkChecks",
    "psi",
    "growth_rate",
    "coeff_bound",
    "landau",
    "bloch_lambda_normalized",
    "bloch_jacobian_normalized",
    "classical_landau",
    "remark_inequalities",
    "radical_inverse",
    "build_report",
    "remark_campaign",
]

PACKAGE_VERSION = "0.1.0"


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
class DistortionBound:
    """Pointwise cap on a distortion quantity (lambda_f, or Lambda_f for the
    maximum-distortion variant of the coefficient bound)."""

    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(float(self.lam)) and self.lam >= 1):
            raise ValueError("lam must be finite and >= 1")


@dataclass(frozen=True)
class LandauResult:
    """Growth rate T, univalence radius r1 = 1/(1+T), covered radius sigma1 = psi(T)."""

    T: float
    r1: float
    sigma1: float

    def __post_init__(self) -> None:
        if self.T < 0:
            raise ValueError("T must be >= 0")


@dataclass(frozen=True)
class BlochBound:
    """Lower bound rho for the largest univalent-image disk, with its rate t.

    kind records the normalization the bound applies under: "lambda0" for
    lambda_f(0) = 1, "jacobian0" for J_f(0) = 1.
    """

    t: float
    rho: float
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("lambda0", "jacobian0"):
            raise ValueError('kind must be "lambda0" or "jacobian0"')
        if not self.t > 0:
            raise ValueError("t must be positive")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True)
class ClassicalLandau:
    """Bounded-analytic comparison constants: radii r0 and R0 for |f| <= M."""

    M: float
    r0: float
    R0: float


# from this t on, the float psi sums its series in u = 1/t, whose terms
# from u^14 on are below 2^-53 of the sum
_PSI_SERIES_FROM = 16.0
# 1/(m+1) for m = 13 down to 1, the series coefficients in Horner order
_PSI_SERIES = tuple(1.0 / (m + 1) for m in range(13, 0, -1))


def psi(t, ctx=math):
    """The covered-radius function 1 + t*log(t/(1+t)); requires t > 0.

    Computed as 1 - t*log1p(1/t), which leaves no rounding of t/(1+t) for
    the logarithm to amplify.  The difference still cancels as psi falls
    like 1/(2t), so from t = 16 on the float path sums
    psi = u/2 - u^2/3 + u^3/4 - ..., u = 1/t, instead; other contexts carry
    their own working precision and keep the closed form.
    """
    if not t > 0:
        raise ValueError("psi requires t > 0")
    if ctx is math and t >= _PSI_SERIES_FROM:
        u = 1.0 / t
        acc = 0.0
        for c in _PSI_SERIES:
            acc = c - u * acc
        return u * acc
    return 1 - t * ctx.log1p(1 / t)


def growth_rate(params: EllipticityParams, bound: DistortionBound, ctx=math):
    """Coefficient growth rate T for the given (K, Kp) and distortion cap.

    Nonnegative for every valid input (K >= 1 and lam >= 1 force K*lam >= 1),
    and exactly zero only at K*lam = 1 with Kp = 0.
    """
    K, Kp, lam = params.K, params.Kp, bound.lam
    root = ctx.sqrt(K * K * lam * lam + 4 * Kp)
    return K * lam + 2 * (Kp - 1) / (K * lam + root)


def coeff_bound(n: int, params: EllipticityParams, bound: DistortionBound, ctx=math):
    """Largest admissible |a_n| + |b_n| for degree n >= 2, namely T/n."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("n must be an integer >= 2")
    return growth_rate(params, bound, ctx) / n


def landau(params: EllipticityParams, bound: DistortionBound, ctx=math) -> LandauResult:
    """Univalence radius and covered radius under a minimum-distortion cap.

    The degenerate rate T = 0 (identity-like normalization, K*lam = 1, Kp = 0)
    gets sigma1 = 1 by continuity of psi.  A rate that overflows (K*lam or
    Kp near the largest float) is a ValueError.
    """
    T = growth_rate(params, bound, ctx)
    if not T < math.inf:
        raise ValueError(f"growth rate overflows for K = {params.K!r}, Kp = {params.Kp!r}, lam = {bound.lam!r}")
    r1 = 1 / (1 + T)
    sigma1 = psi(T, ctx) if T > 0 else T + 1
    return LandauResult(T=T, r1=r1, sigma1=sigma1)


def _bloch_bound(params: EllipticityParams, t, scale, kind: str, ctx) -> BlochBound:
    """BlochBound(t, psi(t)/scale); a rate t that overflows or a rho that underflows is a ValueError."""
    rho = psi(t, ctx) / scale if t < math.inf else math.nan
    if not rho > 0:
        raise ValueError(f"Bloch rate overflows or radius underflows for K = {params.K!r}, Kp = {params.Kp!r}")
    return BlochBound(t=t, rho=rho, kind=kind)


def bloch_lambda_normalized(params: EllipticityParams, ctx=math) -> BlochBound:
    """Bloch-type bound psi(t)/sqrt(2) under lambda_f(0) = 1."""
    K, Kp = params.K, params.Kp
    t = 2 * K + (4 * Kp - 1) / (K + ctx.sqrt(K * K + 4 * Kp))
    return _bloch_bound(params, t, ctx.sqrt(2), "lambda0", ctx)


def bloch_jacobian_normalized(params: EllipticityParams, ctx=math) -> BlochBound:
    """Bloch-type bound psi(t)/sqrt(2*(K+Kp)) under J_f(0) = 1.

    Rescaling a Jacobian-normalized map to unit minimum distortion inflates the
    additive constant to Kp*(K+Kp); the rate t reflects that.
    """
    K, Kp = params.K, params.Kp
    kp_eff = Kp * (K + Kp)
    t = 2 * K + (4 * kp_eff - 1) / (K + ctx.sqrt(K * K + 4 * kp_eff))
    return _bloch_bound(params, t, ctx.sqrt(2 * (K + Kp)), "jacobian0", ctx)


def classical_landau(M, ctx=math) -> ClassicalLandau:
    """Classical constants for analytic f with |f| <= M, f(0) = 0, f'(0) = 1."""
    if not (math.isfinite(float(M)) and M >= 1):
        raise ValueError("M must be finite and >= 1")
    r0 = 1 / (M + ctx.sqrt(M * M - 1))
    return ClassicalLandau(M=M, r0=r0, R0=M * r0 * r0)


@dataclass(frozen=True)
class RemarkChecks:
    """Literal evaluation of the improvement inequalities over the baseline
    rate K*lam + sqrt(Kp) (the coarser growth bound this theory sharpens).

    radius_literal_* evaluates the printed comparison r1 > 1/baseline exactly
    as displayed; it FAILS on part of the parameter range (e.g. K=1, Kp=0,
    lam=2 gives slack -0.1) and is recorded, never asserted.  The chain of
    inequalities behind the claim supports T < baseline, i.e.
    r1 > 1/(1 + baseline), which radius_* captures; campaigns assert that
    form together with correction_* and sigma_*.
    """

    growth_rate: float
    baseline_rate: float
    correction_holds: bool
    correction_slack: float
    radius_literal_holds: bool
    radius_literal_slack: float
    radius_holds: bool
    radius_slack: float
    sigma_holds: bool
    sigma_slack: float


def remark_inequalities(params: EllipticityParams, bound: DistortionBound, ctx=math) -> RemarkChecks:
    """Evaluate the three baseline-improvement inequalities at one (K, Kp, lam).

    Requires lam > 1: the comparisons are stated for a genuine distortion cap,
    and at lam = 1 the baseline psi argument can degenerate.
    """
    K, Kp, lam = params.K, params.Kp, bound.lam
    if not lam > 1:
        raise ValueError("remark_inequalities requires lam > 1")

    res = landau(params, bound, ctx)
    baseline = K * lam + ctx.sqrt(Kp)

    root = ctx.sqrt(K * K * lam * lam + 4 * Kp)
    correction_slack = ctx.sqrt(Kp) - 2 * (Kp - 1) / (K * lam + root)

    radius_literal_slack = res.r1 - 1 / baseline
    radius_slack = res.r1 - 1 / (1 + baseline)
    sigma_slack = res.sigma1 - psi(baseline, ctx)

    return RemarkChecks(
        growth_rate=res.T,
        baseline_rate=baseline,
        correction_holds=bool(correction_slack > 0),
        correction_slack=correction_slack,
        radius_literal_holds=bool(radius_literal_slack > 0),
        radius_literal_slack=radius_literal_slack,
        radius_holds=bool(radius_slack > 0),
        radius_slack=radius_slack,
        sigma_holds=bool(sigma_slack > 0),
        sigma_slack=sigma_slack,
    )


def radical_inverse(count: int, base: int, start: int = 1) -> list[float]:
    """Halton radical inverses of the indices start..start+count-1, as floats.

    Each index's digits are summed least significant first, with weights
    base**-k formed by repeated division, so every value is bit-identical
    to the digit-by-digit loop.  Starting at index 1 keeps 0.0 out of the
    sequence, which matters when a coordinate is later mapped onto a
    half-open interval.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    stop = start + count
    # low[r] sums the digits of each r < scale, and f is the weight of the
    # last of them; the indices q*scale + r of one q share their higher
    # digits, which are added onto a slice of low a digit at a time
    low, scale, f = [0.0], 1, 1.0
    while scale * base <= count:
        f /= base
        low = [x + f * d for d in range(base) for x in low]
        scale *= base
    out = []
    for q in range(start // scale, (stop - 1) // scale + 1):
        block = low[max(start - q * scale, 0):stop - q * scale]
        g = f
        while q > 0:
            g /= base
            block = [x + g * (q % base) for x in block]
            q //= base
        out += block
    return out


def build_report(theorem: str, params: dict, maps: list, worst_case: dict) -> dict:
    """Common report shape of every campaign; runtime_ms stays null for reproducible bytes."""
    return {
        "theorem": theorem,
        "params": params,
        "maps": maps,
        "worst_case": worst_case,
        "runtime_ms": None,
        "version": PACKAGE_VERSION,
    }


# the parameter box of the remark sweep, and the pair count of the psi sweep
_K_RANGE = (1.0, 8.0)
_KP_RANGE = (0.0, 8.0)
_LAM_RANGE = (1.0, 8.0)
_PSI_PAIRS = 10_000
# indices per radical_inverse call, which bounds the sweep's memory at any sample count
_HALTON_CHUNK = 1 << 12


def _halton_points(count: int, bases: tuple):
    """The points 1..count of the Halton sequence in the given bases, one tuple per index."""
    for start in range(1, count + 1, _HALTON_CHUNK):
        size = min(_HALTON_CHUNK, count + 1 - start)
        yield from zip(*(radical_inverse(size, base, start) for base in bases))


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
    failures = 0
    literal_violations = 0
    min_slacks = {"correction": math.inf, "radius": math.inf, "sigma": math.inf,
                  "radius_literal": math.inf}
    argmin: dict = {}
    for u_k, u_kp, u_lam in _halton_points(samples, (2, 3, 5)):
        k_val = _K_RANGE[0] + (_K_RANGE[1] - _K_RANGE[0]) * u_k
        kp_val = _KP_RANGE[0] + (_KP_RANGE[1] - _KP_RANGE[0]) * u_kp
        lam_val = _LAM_RANGE[0] + (_LAM_RANGE[1] - _LAM_RANGE[0]) * u_lam
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
    psi_failures = 0
    for u1, u2 in _halton_points(_PSI_PAIRS, (7, 11)):
        t_a = math.exp(lo + (hi - lo) * u1)
        t_b = math.exp(lo + (hi - lo) * u2)
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

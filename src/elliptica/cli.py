"""Command line front end.

Exit codes: 0 on success (including an inconclusive probe, which is data,
not an error), 1 when a verification run produced a refutation or an
output path could not be written, 2 on bad usage or a violated argument
precondition.  Output bytes are deterministic for fixed arguments;
--timestamp deliberately breaks that by stamping wall-clock fields.

Only the standard library and :mod:`elliptica.constants` load with this
module; each command imports the array modules it uses, so ``constants``
and ``verify-theorem --which remarks`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .constants import (
    PACKAGE_VERSION,
    DistortionBound,
    EllipticityParams,
    bloch_jacobian_normalized,
    bloch_lambda_normalized,
    classical_landau,
    growth_rate,
    landau,
    remark_campaign,
)

# No array a command builds may exceed this many points; the arguments that
# size arrays or loops are capped accordingly, so an oversized value is a
# usage error rather than a MemoryError or a hang.
_MAX_POINTS = 1 << 24


def _float_arg(name: str, low: float, strict: bool = False):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be finite, got {text}")
        if strict:
            if not value > low:
                raise argparse.ArgumentTypeError(f"{name} must be > {low:g}, got {text}")
        elif not value >= low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low:g}, got {text}")
        return value

    return parse


def _int_arg(name: str, low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{name} must be <= {high}, got {value}")
        return value

    return parse


def _emit(text: str, out: str | None, refuted: bool = False) -> int:
    """Write text to stdout or to out; exit 1 when out is unwritable or refuted is set."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out}")
    return 1 if refuted else 0


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit_report(payload: dict, refuted: bool, args, t0: float) -> int:
    """Write a campaign payload, stamped with wall-clock fields under --timestamp."""
    if args.timestamp:
        payload["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    return _emit(_json_text(payload), args.out, refuted)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, float):
        rows.append((prefix, f"{value:.17g}"))
    else:
        rows.append((prefix, str(value)))


def _csv_text(payload: dict) -> str:
    rows: list = []
    _flatten("", payload, rows)
    lines = ["name,value"]
    lines.extend(f"{name},{val}" for name, val in rows)
    return "\n".join(lines) + "\n"


def _constants_payload(params: EllipticityParams, bound: DistortionBound) -> dict:
    res = landau(params, bound)
    b_lam = bloch_lambda_normalized(params)
    b_jac = bloch_jacobian_normalized(params)
    return {
        "params": {"K": params.K, "Kp": params.Kp, "lam": float(bound.lam)},
        "growth_rate": growth_rate(params, bound),
        "r1": res.r1,
        "sigma1": res.sigma1,
        "bloch_lambda0": {"t": b_lam.t, "rho": b_lam.rho},
        "bloch_jacobian0": {"t": b_jac.t, "rho": b_jac.rho},
    }


def _cmd_constants(args) -> int:
    payload = _constants_payload(EllipticityParams(args.K, args.Kp), DistortionBound(args.lam))
    if args.M is not None:
        cl = classical_landau(args.M)
        payload["classical"] = {"M": cl.M, "r0": cl.r0, "R0": cl.R0}
    text = _csv_text(payload) if args.csv else _json_text(payload)
    return _emit(text, args.out)


def _cmd_extremal(args, parser: argparse.ArgumentParser) -> int:
    needs = ("M",) if args.family == "classical" else ("n", "lam")
    if any(getattr(args, name) is None for name in needs):
        parser.error(f"family {args.family} requires " + " and ".join(f"--{name}" for name in needs))
    from .extremals import build_classical, build_Fn

    if args.family == "classical":
        f = build_classical(args.M, args.N)
    else:
        f = build_Fn(args.n, args.lam, args.N)
    return _emit(_json_text(f.to_json_dict()), args.out)


def _cmd_check_map(args, parser: argparse.ArgumentParser) -> int:
    from .oracles import REFUTED, coverage_probe, univalence_probe
    from .sampling import SamplingSpec
    from .seriescore import HarmonicMap

    f = HarmonicMap.load(args.map)
    spec = SamplingSpec(n_theta=args.n_theta, refinement_rounds=args.rounds)
    if args.mode == "univalence":
        verdict = univalence_probe(f, args.r, spec)
    else:
        if args.rho is None:
            parser.error("mode coverage requires --rho")
        verdict = coverage_probe(f, args.r, args.rho, spec)
    return _emit(_json_text(verdict.to_json_dict()), args.out, verdict.status == REFUTED)


def _standard_entries(params: EllipticityParams, bound: DistortionBound, n_random: int,
                      seed: int, families: int = 5) -> list:
    from .extremals import build_Fn
    from .harness import random_elliptic

    entries = []
    for n in range(2, 2 + families):
        entries.append((f"Fn{n}", f"series extremal n={n}, lam={float(bound.lam):g}",
                        build_Fn(n, bound.lam)))
    for i in range(n_random):
        entries.append((f"random{i}", f"random_elliptic(seed={seed + i})",
                        random_elliptic(params, float(bound.lam), seed + i)))
    return entries


def _cmd_verify(args) -> tuple[dict, bool]:
    params = EllipticityParams(args.K, args.Kp)
    bound = DistortionBound(args.lam)
    if args.which == "remarks":
        rep = remark_campaign(samples=args.samples)
        return rep, rep["worst_case"].get("refuted")
    from .harness import (
        verify_bloch_pipeline,
        verify_coefficient_bounds,
        verify_jacobian_normalized,
        verify_landau_probes,
    )
    from .seriescore import HarmonicMap

    if args.which == "c1":
        if args.map is not None:
            f = HarmonicMap.load(args.map)
            source = args.map
        else:
            # affine fixture with unit Jacobian at the origin
            f = HarmonicMap([0.0, 1.25], [0.75])
            source = "affine fixture a1=1.25, b1=0.75"
        rep = verify_jacobian_normalized(f, params, map_id="c1", source=source)
    elif args.which == "1":
        entries = _standard_entries(params, bound, args.n_random, args.seed)
        rep = verify_coefficient_bounds(entries, params, bound)
    else:
        entries = [("identity", "identity map", HarmonicMap.identity())] if args.which == "3" else []
        entries += _standard_entries(params, bound, args.n_random, args.seed, families=1)
        campaign = verify_landau_probes if args.which == "2" else verify_bloch_pipeline
        rep = campaign(entries, params, bound)
    return rep, rep["worst_case"].get("refuted")


def _cmd_report(args) -> tuple[dict, bool]:
    from .harness import verify_coefficient_bounds

    params = EllipticityParams(args.K, args.Kp)
    bound = DistortionBound(args.lam)
    entries = _standard_entries(params, bound, args.n_random, args.seed)
    coeff = verify_coefficient_bounds(entries, params, bound)
    remarks = remark_campaign(samples=args.samples)
    payload = {
        "constants": _constants_payload(params, bound),
        "coefficient_bounds": coeff,
        "remarks": remarks,
        "runtime_ms": None,
        "version": PACKAGE_VERSION,
    }
    return payload, coeff["worst_case"].get("refuted") or remarks["worst_case"].get("refuted")


def _cmd_boundary(args) -> int:
    from .sampling import sample_circle
    from .seriescore import HarmonicMap

    f = HarmonicMap.load(args.map)
    theta, curve = sample_circle(f, args.r, args.n)
    lines = ["theta,re,im"]
    lines.extend(
        f"{t:.17g},{v.real:.17g},{v.imag:.17g}" for t, v in zip(theta, curve)
    )
    return _emit("\n".join(lines) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elliptica",
        description="Constants, extremal maps, and numerical certification "
                    "for distortion-controlled planar harmonic maps.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {PACKAGE_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    k_type = _float_arg("K", 1.0)
    kp_type = _float_arg("Kp", 0.0)
    lam_type = _float_arg("lam", 1.0)
    # a campaign checks each random map on 64 x 256 = 2^14-point grids
    n_random_type = _int_arg("n-random", 0, _MAX_POINTS >> 14)
    samples_type = _int_arg("samples", 1, _MAX_POINTS)
    seed_type = _int_arg("seed", 0)

    p_const = sub.add_parser("constants", help="closed-form constants for given parameters")
    p_const.add_argument("--K", type=k_type, required=True)
    p_const.add_argument("--Kp", type=kp_type, default=0.0)
    p_const.add_argument("--lam", type=lam_type, required=True)
    p_const.add_argument("--M", type=_float_arg("M", 1.0), default=None,
                         help="also emit the classical bounded-map constants")
    fmt = p_const.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="name,value CSV instead of JSON")
    p_const.add_argument("--out", default=None)

    p_ext = sub.add_parser("extremal", help="write an extremal map as JSON coefficients")
    p_ext.add_argument("--family", choices=("Fn", "fn", "classical"), required=True)
    p_ext.add_argument("--n", type=_int_arg("n", 2), default=None)
    p_ext.add_argument("--lam", type=lam_type, default=None)
    p_ext.add_argument("--M", type=_float_arg("M", 1.0, strict=True), default=None)
    p_ext.add_argument("--N", type=_int_arg("N", 2, _MAX_POINTS - 1), default=64,
                       help="truncation degree")
    p_ext.add_argument("--out", default=None)

    p_chk = sub.add_parser("check-map", help="probe a stored map for injectivity or coverage")
    p_chk.add_argument("--map", required=True)
    p_chk.add_argument("--r", type=_float_arg("r", 0.0, strict=True), required=True)
    p_chk.add_argument("--mode", choices=("univalence", "coverage"), required=True)
    p_chk.add_argument("--rho", type=_float_arg("rho", 0.0, strict=True), default=None)
    # the univalence curve grows to max(1024, 4 n_theta) * 2^rounds <= 2^24,
    # and the winding refinements stop at 2^18 points
    p_chk.add_argument("--n-theta", type=_int_arg("n-theta", 4, 1 << 12), default=192)
    p_chk.add_argument("--rounds", type=_int_arg("rounds", 0, 10), default=3)
    p_chk.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify-theorem", help="run a verification campaign")
    p_ver.add_argument("--which", choices=("1", "2", "3", "c1", "remarks"), required=True)
    p_ver.add_argument("--K", type=k_type, default=1.0)
    p_ver.add_argument("--Kp", type=kp_type, default=0.0)
    p_ver.add_argument("--lam", type=lam_type, default=2.0)
    p_ver.add_argument("--seed", type=seed_type, default=0)
    p_ver.add_argument("--n-random", type=n_random_type, default=3)
    p_ver.add_argument("--samples", type=samples_type, default=1000)
    p_ver.add_argument("--map", default=None, help="map JSON for --which c1")
    p_ver.add_argument("--timestamp", action="store_true",
                       help="stamp wall-clock fields (breaks byte-reproducibility)")
    p_ver.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="aggregate constants plus campaign summaries")
    p_rep.add_argument("--K", type=k_type, required=True)
    p_rep.add_argument("--Kp", type=kp_type, default=0.0)
    p_rep.add_argument("--lam", type=lam_type, required=True)
    p_rep.add_argument("--seed", type=seed_type, default=0)
    p_rep.add_argument("--n-random", type=n_random_type, default=2)
    p_rep.add_argument("--samples", type=samples_type, default=200)
    p_rep.add_argument("--timestamp", action="store_true")
    p_rep.add_argument("--out", default=None)

    p_bnd = sub.add_parser("boundary", help="sample the image of a circle to CSV")
    p_bnd.add_argument("--map", required=True)
    p_bnd.add_argument("--r", type=_float_arg("r", 0.0, strict=True), required=True)
    p_bnd.add_argument("--n", type=_int_arg("n", 4, _MAX_POINTS), default=1024)
    p_bnd.add_argument("--out", default=None)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "extremal":
            return _cmd_extremal(args, parser)
        if args.command == "check-map":
            return _cmd_check_map(args, parser)
        if args.command in ("verify-theorem", "report"):
            t0 = time.perf_counter()
            command = _cmd_verify if args.command == "verify-theorem" else _cmd_report
            return _emit_report(*command(args), args, t0)
        return _cmd_boundary(args)
    except (ValueError, TypeError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

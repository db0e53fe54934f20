"""The three benchmark workloads, each a seeded cycle of closed-loop ops.

An op is one unit of user work.  ``run`` is the work a user waits for and is
timed; ``check`` validates its result afterwards (untimed) and returns
``(ok, output bytes, reason)``.  Every workload reaches the library only
through ``elliptica``'s module attributes (``E.name``, never ``from elliptica
import name``), so a traced run sees every call.

``campaign-random``
    One op passes one seeded ``random_elliptic`` map, as a one-entry list,
    through ``verify_coefficient_bounds`` and ``verify_landau_probes``.  Map i
    of the pool uses regime ``REGIMES[i % 4]`` and a map seed drawn from the
    workload seed.  Correct means ``pass`` and ``certified``.
``sharp-extremals``
    One op is one oracle probe of an extremal map at the paper's radii: for
    ``build_classical(M, 400)`` univalence at 0.99 r0 (certified), at 1.05 r0
    (refuted, with a witness confirmed here at 50 digits) and coverage of
    0.99 R0 (certified); for ``build_Fn(n, lam, 128)`` univalence at
    r1 (1 - 1e-6) and coverage of sigma1 (1 - 1e-3) (both certified).  A
    cycle holds every probe once, in an order the seed permutes; the loop
    stops only between cycles, so every probe runs equally often and the
    short cycle keeps the run's overshoot of ``--seconds`` small.
``cli-cold``
    One op is one fresh ``python -m elliptica.cli`` process.  The seed picks
    each call's parameters from the ranges in :func:`cli_calls`; every call
    must exit 0, and check-map verdicts must be certified.

In every workload an op whose output bytes differ from those of an earlier op
with the same key fails: identical input must give identical bytes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import elliptica as E

REGIMES = ((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))
CAMPAIGN_POOL = 64
SPEEDUP_MAPS_PER_REGIME = 4

CLASSICAL_M = (1.5, 2.0, 3.0, 5.0)
FN_N = (2, 3, 5, 8)
FN_LAM = (1.5, 2.0, 5.0)

WITNESS_DPS = 50
WITNESS_GAP = 1e-10
WITNESS_SEP = 1e-6

CLI_TIMEOUT_S = 120
CLI_F2_LAM = 2.0


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bytes, str]]
    group: str = ""
    meta: dict = field(default_factory=dict)


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------- campaign-random


def _campaign(entries, params, bound):
    return (E.verify_coefficient_bounds(entries, params, bound),
            E.verify_landau_probes(entries, params, bound))


def _check_campaign(result) -> tuple[bool, bytes, str]:
    coeff, probes = result
    got = (coeff["maps"][0]["verdict"], probes["maps"][0]["verdict"])
    return got == ("pass", "certified"), _json_bytes([coeff, probes]), f"verdicts {got}"


def campaign_pool(seed: int) -> list[tuple]:
    """(map seed, params, bound) for each map of the pool, regimes cycled."""
    rng = random.Random(seed)
    pool = []
    for i in range(CAMPAIGN_POOL):
        k, kp, lam = REGIMES[i % len(REGIMES)]
        pool.append((rng.randrange(2**31), E.EllipticityParams(k, kp), E.DistortionBound(lam)))
    return pool


def campaign_random(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for map_seed, params, bound in campaign_pool(seed):
        f = E.random_elliptic(params, float(bound.lam), map_seed)
        entries = [(f"seed{map_seed}", f"random_elliptic(seed={map_seed})", f)]
        key = f"K={params.K:g},Kp={params.Kp:g},lam={bound.lam:g},seed={map_seed}"
        ops.append(Op(key, partial(_campaign, entries, params, bound), _check_campaign,
                      meta={"entries": entries, "params": params, "bound": bound}))
    return ops


def speedup_batches(ops: list[Op]) -> list[tuple]:
    """Per regime, the first few pool maps as one multi-map campaign."""
    batches = []
    for r in range(len(REGIMES)):
        chosen = ops[r::len(REGIMES)][:SPEEDUP_MAPS_PER_REGIME]
        entries = [e for op in chosen for e in op.meta["entries"]]
        batches.append((entries, chosen[0].meta["params"], chosen[0].meta["bound"]))
    return batches


# ---------------------------------------------------------------- sharp-extremals


def _check_status(expected: str, verdict) -> tuple[bool, bytes, str]:
    ok = verdict.status == expected
    return ok, _json_bytes(verdict.to_json_dict()), f"status {verdict.status}, expected {expected}"


def _check_refutation(f, radius: float, verdict) -> tuple[bool, bytes, str]:
    """A refutation counts only if its collision witness confirms at high precision."""
    ok, out, why = _check_status("refuted", verdict)
    if not ok:
        return ok, out, why
    if verdict.witness is None:
        return False, out, "refutation without a witness"
    z1, z2 = (complex(w) for w in verdict.witness)
    gap = float(abs(f.eval_hp(z1, dps=WITNESS_DPS) - f.eval_hp(z2, dps=WITNESS_DPS)))
    sep = abs(z1 - z2)
    inside = max(abs(z1), abs(z2)) <= radius
    ok = gap <= WITNESS_GAP and sep >= WITNESS_SEP and inside
    return ok, out, f"witness gap {gap:.3e}, separation {sep:.3e}, inside {inside}"


def sharp_extremals(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for m in CLASSICAL_M:
        f = E.build_classical(m, n_terms=400)
        cl = E.classical_landau(m)
        tag = f"classical(M={m:g})"
        inner, outer = 0.99 * cl.r0, 1.05 * cl.r0
        ops.append(Op(f"{tag} univalence 0.99 r0", partial(E.univalence_probe, f, inner),
                      partial(_check_status, "certified")))
        ops.append(Op(f"{tag} univalence 1.05 r0", partial(E.univalence_probe, f, outer),
                      partial(_check_refutation, f, outer)))
        ops.append(Op(f"{tag} coverage 0.99 R0", partial(E.coverage_probe, f, inner, 0.99 * cl.R0),
                      partial(_check_status, "certified")))
    conformal = E.EllipticityParams(1.0, 0.0)
    for n in FN_N:
        for lam in FN_LAM:
            f = E.build_Fn(n, lam, n_terms=128)
            res = E.landau(conformal, E.DistortionBound(lam))
            radius = res.r1 * (1.0 - 1e-6)
            tag = f"Fn(n={n},lam={lam:g})"
            ops.append(Op(f"{tag} univalence r1", partial(E.univalence_probe, f, radius),
                          partial(_check_status, "certified")))
            ops.append(Op(f"{tag} coverage sigma1", partial(E.coverage_probe, f, radius, res.sigma1 * (1.0 - 1e-3)),
                          partial(_check_status, "certified")))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli-cold


def cli_calls(seed: int, map_path: Path) -> list[list[str]]:
    """The nine seeded calls of one cli-cold cycle.

    Ranges: K in [1, 4], Kp in [0, 1], lam in [1.2, 6] and M in [1.2, 5] for
    ``constants``; n in 2..8 and lam in [1, 6] for ``extremal``; ``boundary``
    at r in [0.2, 0.95] r1 with n in {256, 512, 1024}; ``verify-theorem --which
    3`` and ``report`` take a campaign regime and a seed in [0, 10000);
    ``remarks`` takes 500 to 1500 samples.  The stored map is always F_2 at
    lam = 2, probed at r1 (1 - 1e-6) and covering sigma1 (1 - 1e-3): its
    coverage probe sets the workload's peak memory, which then does not
    depend on the seed.
    """
    rng = random.Random(seed)
    u = lambda lo, hi: f"{rng.uniform(lo, hi):.6g}"  # noqa: E731
    res = E.landau(E.EllipticityParams(1.0, 0.0), E.DistortionBound(CLI_F2_LAM))
    r_probe = f"{res.r1 * (1.0 - 1e-6):.17g}"
    rho = f"{res.sigma1 * (1.0 - 1e-3):.17g}"
    verify_regime = rng.choice(REGIMES)
    report_regime = rng.choice(REGIMES)
    m = str(map_path)
    calls = [
        ["constants", "--K", u(1, 4), "--Kp", u(0, 1), "--lam", u(1.2, 6)],
        ["constants", "--K", u(1, 4), "--lam", u(1.2, 6), "--M", u(1.2, 5), "--csv"],
        ["extremal", "--family", "Fn", "--n", str(rng.randint(2, 8)), "--lam", u(1, 6)],
        ["check-map", "--map", m, "--r", r_probe, "--mode", "univalence"],
        ["check-map", "--map", m, "--r", r_probe, "--mode", "coverage", "--rho", rho],
        ["boundary", "--map", m, "--r", f"{res.r1 * rng.uniform(0.2, 0.95):.6g}",
         "--n", str(rng.choice((256, 512, 1024)))],
        ["verify-theorem", "--which", "3", "--K", f"{verify_regime[0]:g}", "--Kp", f"{verify_regime[1]:g}",
         "--lam", f"{verify_regime[2]:g}", "--seed", str(rng.randrange(10000))],
        ["verify-theorem", "--which", "remarks", "--samples", str(rng.randint(500, 1500))],
        ["report", "--K", f"{report_regime[0]:g}", "--Kp", f"{report_regime[1]:g}",
         "--lam", f"{report_regime[2]:g}", "--seed", str(rng.randrange(10000))],
    ]
    return calls


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(command: list[str], root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=root, env=child_env(root), capture_output=True,
                          timeout=CLI_TIMEOUT_S, check=False)


def _check_cli(subcommand: str, proc: subprocess.CompletedProcess) -> tuple[bool, bytes, str]:
    if proc.returncode != 0:
        err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return False, proc.stdout, f"exit {proc.returncode}: {err[0]}"
    if not proc.stdout:
        return False, proc.stdout, "empty stdout"
    if subcommand == "check-map":
        status = json.loads(proc.stdout)["status"]
        if status != "certified":
            return False, proc.stdout, f"verdict {status}, expected certified"
    return True, proc.stdout, ""


def cli_cold(seed: int, workdir: Path, traced_child: Callable | None = None) -> list[Op]:
    """Write the stored map, then build one cycle of CLI ops.

    ``traced_child(argv)`` replaces the plain ``python -m elliptica.cli``
    command in a traced run.
    """
    root = Path(__file__).resolve().parent.parent
    workdir.mkdir(parents=True, exist_ok=True)
    map_path = workdir / "f2.json"
    calls = cli_calls(seed, map_path.relative_to(root))
    E.build_Fn(2, CLI_F2_LAM, n_terms=128).save(map_path)
    ops = []
    for argv in calls:
        if traced_child is None:
            run = partial(spawn, [sys.executable, "-m", "elliptica.cli", *argv], root)
        else:
            run = partial(traced_child, argv)
        ops.append(Op(" ".join(argv), run, partial(_check_cli, argv[0]), group=argv[0]))
    return ops


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[Op]]
    # stop the timed loop between ops (homogeneous ops) or only between cycles
    stop_within_cycle: bool
    in_process: bool


WORKLOADS = {
    "campaign-random": Workload("campaign-random", campaign_random, True, True),
    "sharp-extremals": Workload("sharp-extremals", sharp_extremals, False, True),
    "cli-cold": Workload("cli-cold", cli_cold, True, False),
}

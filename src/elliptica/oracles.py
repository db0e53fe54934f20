"""Certification oracles for injectivity and disk coverage.

Both probes return a three-way :class:`OracleVerdict` rather than a bool:
``"certified"`` and ``"refuted"`` are backed by explicit evidence (a safety
margin, or a confirmed witness), ``"inconclusive"`` means the sampling
budget was exhausted without either.  Verdicts never silently degrade: a
precondition the data fails to meet refines the mesh or ends inconclusive.

Refutation of injectivity is exact in spirit: candidate near-collisions
found by image-space binning are polished, all together as one array batch,
with a damped Gauss-Newton iteration until two genuinely distinct preimages
agree to 1e-12, or the candidate is discarded; the first candidate in scan
order that converges is the witness.  Certification combines a
positive-Jacobian sweep of the closed sub-disk with a simplicity check of
the boundary curve (binned pair scan under per-sample movement radii, plus
a tangent-turning bound), which is the standard degree-theoretic criterion.

Coverage uses winding numbers of the sampled boundary curve, with a
per-segment resolution precondition: a segment chord must not exceed a
tenth of its distance to the probed point, else the angle sum is not
trusted and the curve is refined.  A curve whose gap to the target disk
dominates its chords winds equally around every point of the disk, so one
winding number at the centre decides; only a curve that reaches into the
disk needs a net of target points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .sampling import SamplingSpec, disk_net, polar_grid
from .distortion import distortion_arrays

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "MeshPrecisionError",
    "OracleVerdict",
    "REFUTED",
    "SamplingSpec",
    "coverage_probe",
    "univalence_probe",
    "winding_number",
]

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# movement radius around a boundary sample, as a multiple of the larger
# adjacent chord; 0.75 > 1/2 keeps the bound valid for mildly nonuniform
# parametrizations while still separating genuinely disjoint arcs
_MOVE_SAFETY = 0.75

_RESID_TOL = 1e-12
_DIAG_TOL = 1e-6


class MeshPrecisionError(RuntimeError):
    """The boundary mesh is too coarse for a trustworthy winding sum."""


@dataclass(frozen=True)
class OracleVerdict:
    status: str
    margin: float
    witness: Any = None
    resolution: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # truthiness == certified, for quick gating
        return self.status == CERTIFIED

    def to_json_dict(self) -> dict:
        wit = self.witness
        if wit is not None:
            if isinstance(wit, tuple):
                wit = [[complex(w).real, complex(w).imag] for w in wit]
            else:
                wit = [complex(wit).real, complex(wit).imag]
        res = {}
        for key, val in self.resolution.items():
            if isinstance(val, (np.floating, np.integer)):
                val = val.item()
            res[key] = val
        return {
            "status": self.status,
            "margin": float(self.margin),
            "witness": wit,
            "resolution": res,
        }


_PAIR_CHUNK = 1 << 18


def _cabs(d: np.ndarray) -> np.ndarray:
    """|d| bit for bit as Python's abs(complex); np.abs may differ in the last ulp."""
    return np.hypot(d.real, d.imag)


def _cell_pairs(values: np.ndarray, cell: float):
    """Index pairs i < j of values in the same or adjacent square image cells.

    Every pair closer than ``cell`` is among them.  Yields (i, j) index
    arrays in chunks of about _PAIR_CHUNK pairs, ordered by i, then by the
    neighbouring cell (dx outer, dy inner, each over -1, 0, 1), then by j,
    so callers that stop early or keep the first of equal values stay
    deterministic.
    """
    kx = np.floor(values.real / cell).astype(np.int64)
    ky = np.floor(values.imag / cell).astype(np.int64)
    # both callers size the cells from a Lipschitz or chord bound of the
    # values, so each axis spans at most a few cells per sample and the flat
    # cell key stays far from int64 overflow
    width = int(ky.max() - ky.min()) + 3
    key = (kx - kx.min() + 1) * width + (ky - ky.min() + 1)
    members = np.argsort(key, kind="stable")
    sorted_key = key[members]
    wanted = key[:, None] + np.array([dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    first = np.searchsorted(sorted_key, wanted, side="left")
    count = np.searchsorted(sorted_key, wanted, side="right") - first

    per_point = count.sum(axis=1)
    done = np.cumsum(per_point)
    lo = 0
    while lo < len(values):
        base = done[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(done, base + _PAIR_CHUNK, side="right")))
        runs = count[lo:hi].ravel()
        i = np.repeat(np.arange(lo, hi), per_point[lo:hi])
        j = members[np.repeat(first[lo:hi].ravel() - (np.cumsum(runs) - runs), runs)
                    + np.arange(done[hi - 1] - base)]
        keep = j > i
        yield i[keep], j[keep]
        lo = hi


def _near_pairs(points: np.ndarray, images: np.ndarray, eps_img: float, sep: float,
                cap: int = 200_000) -> list[tuple[int, int]]:
    """Index pairs with image distance <= eps_img but domain distance > sep.

    Image-space binning keeps this linear in the sample count; the cap
    bounds the work on degenerate maps, keeping the first pairs in scan
    order.  The result is sorted by image distance (closest first), ties
    broken by index, so downstream refinement order is deterministic.
    """
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    room = cap
    for i, j in _cell_pairs(images, eps_img if eps_img > 0 else 1e-12):
        dist_img = _cabs(images[i] - images[j])
        hit = np.flatnonzero((dist_img <= eps_img) & (_cabs(points[i] - points[j]) > sep))[:room]
        found.append((dist_img[hit], i[hit], j[hit]))
        room -= len(hit)
        if room == 0:
            break
    dist_img, i, j = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((j, i, dist_img))
    return list(zip(i[order].tolist(), j[order].tolist()))


def _pair_residuals(f, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """f(z1) - f(z2) for each pair, from one evaluation of both point arrays."""
    values = f.eval(np.concatenate([z1, z2]))
    return values[: len(z1)] - values[len(z1):]


def _polish_collisions(f, z1: np.ndarray, z2: np.ndarray, radius: float):
    """Damped Gauss-Newton polish of candidate collision pairs, as one batch.

    Treats each pair (z1, z2) as four real unknowns and drives
    f(z1) - f(z2) to zero with minimum-norm steps, backtracking on the
    residual and projecting back into the closed disk of the given radius.
    Every pair keeps its own stopping rules (80 steps, 12 halvings, the
    residual and diagonal tolerances); the batch only shares the evaluations.
    A pair converges when its residual is below 1e-12 while it stays
    separated by more than 1e-6.

    Returns arrays (z1, z2, ok, resid, sep) for the pairs up to and including
    the first, in input order, that converges, or for all pairs if none
    does; polishing stops as soon as that first one is known.
    """
    z1 = np.array(z1, dtype=complex)
    z2 = np.array(z2, dtype=complex)
    cap = radius * (1.0 - 1e-12)
    resid = _pair_residuals(f, z1, z2)
    live = np.ones(len(z1), dtype=bool)
    # the 81st pass only settles the pairs that took all 80 steps
    for steps in range(81):
        live &= (_cabs(resid) >= 0.1 * _RESID_TOL) & (steps < 80)
        ok = ((_cabs(resid) < _RESID_TOL) & (_cabs(z1 - z2) > _DIAG_TOL)
              & (_cabs(z1) <= radius + 1e-15) & (_cabs(z2) <= radius + 1e-15))
        won = np.flatnonzero(~live & ok)
        if not live.any() or (len(won) and not live[: won[0]].any()):
            break
        idx = np.flatnonzero(live)
        m = len(idx)
        fz, fzb = f.partials(np.concatenate([z1[idx], z2[idx]]))
        # d/dx = f_z + f_zbar, d/dy = i (f_z - f_zbar); second point negated
        dx = fz + fzb
        dy = 1j * (fz - fzb)
        cols = np.stack([dx[:m], dy[:m], -dx[m:], -dy[m:]], axis=-1)
        jac = np.stack([cols.real, cols.imag], axis=1)
        rhs = np.stack([-resid[idx].real, -resid[idx].imag], axis=-1)[..., None]
        # rtol=None cuts singular values below 4 eps of the largest; the default cut is 1e-15
        moves = (np.linalg.pinv(jac, rtol=None) @ rhs).reshape(m, 4).view(complex)
        scale = 1.0
        halving = np.arange(m)
        for _ in range(12):
            w1 = z1[idx[halving]] + scale * moves[halving, 0]
            w2 = z2[idx[halving]] + scale * moves[halving, 1]
            for w in (w1, w2):
                size = _cabs(w)
                out = size > cap
                w[out] *= cap / size[out]
            trial = _pair_residuals(f, w1, w2)
            better = _cabs(trial) < _cabs(resid[idx[halving]])
            took = idx[halving[better]]
            z1[took], z2[took], resid[took] = w1[better], w2[better], trial[better]
            live[took] &= _cabs(z1[took] - z2[took]) >= 0.1 * _DIAG_TOL
            halving = halving[~better]
            if not len(halving):
                break
            scale *= 0.5
        live[idx[halving]] = False

    keep = won[0] + 1 if len(won) else len(ok)
    return z1[:keep], z2[:keep], ok[:keep], _cabs(resid[:keep]), _cabs(z1[:keep] - z2[:keep])


def _curve_scan(f, radius: float, n_curve: int):
    """Simplicity scan of the image of |z| = radius at n_curve samples.

    Returns (simple, margin, reason, info).  The curve is declared simple
    when every pair of samples at cyclic index distance >= 2 is separated
    by more than the sum of their movement radii, and consecutive chord
    directions never turn by a right angle or more.  The margin is a lower
    bound for the separation slack over all such pairs, binned pairs
    explicitly and the rest by the bin-size guarantee.
    """
    theta = 2.0 * np.pi * np.arange(n_curve) / n_curve
    z = radius * np.exp(1j * theta)
    curve = np.asarray(f.eval(z), dtype=complex)
    chords = np.roll(curve, -1) - curve
    abs_chords = np.abs(chords)
    info = {"curve_points": n_curve, "max_chord": float(abs_chords.max())}
    if abs_chords.min() == 0.0:
        return False, 0.0, "stationary boundary samples", info
    turn = np.angle(np.roll(chords, -1) * np.conj(chords))
    info["max_turn"] = float(np.abs(turn).max())
    if info["max_turn"] >= 0.5 * np.pi:
        return False, 0.0, "chord direction turns by a right angle between samples", info

    move = _MOVE_SAFETY * np.maximum(np.roll(abs_chords, 1), abs_chords)
    move_max = float(move.max())
    # pairs not visited by the cell scan are > cell apart in image, hence
    # their slack exceeds cell - 2*move_max = move_max
    margin = move_max
    worst = None
    pairs = 0
    for i, j in _cell_pairs(curve, 3.0 * move_max):
        gap_idx = j - i
        near = np.minimum(gap_idx, n_curve - gap_idx) >= 2
        i, j = i[near], j[near]
        pairs += len(i)
        if len(i):
            slack = _cabs(curve[i] - curve[j]) - (move[i] + move[j])
            k = int(np.argmin(slack))
            if slack[k] < margin:
                margin = slack[k]
                worst = (i[k], j[k])
    info["scanned_pairs"] = pairs
    if margin <= 0.0:
        info["worst_pair_theta"] = [float(theta[worst[0]]), float(theta[worst[1]])]
        return False, float(margin), "near self-intersection unresolved at this resolution", info
    return True, float(margin), "", info


def univalence_probe(f, radius: float, spec: SamplingSpec | None = None) -> OracleVerdict:
    """Three-way injectivity verdict for f on the closed disk |z| <= radius.

    Refutation first: grid points whose images nearly coincide while the
    points stay apart are polished into an exact collision witness.  The
    first 64 such pairs, closest images first, are polished as one batch,
    and the first of them in that order that converges is the witness.  If
    no collision survives polishing, certification requires a strictly
    positive Jacobian at every sample of the closed disk together with a
    simple boundary curve; either failing leaves the verdict inconclusive.
    """
    if spec is None:
        spec = SamplingSpec()
    radius = float(radius)
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")

    points = polar_grid(radius, spec.n_r, spec.n_theta)
    images = np.asarray(f.eval(points), dtype=complex)
    lam_max, _, jac = distortion_arrays(f, points)
    sup_lam = float(lam_max.max())
    mesh = max(radius / spec.n_r, 2.0 * np.pi * radius / spec.n_theta)
    sep = 2.0 * mesh
    eps_img = sup_lam * mesh / 4.0
    base = {
        "n_r": spec.n_r,
        "n_theta": spec.n_theta,
        "mesh": mesh,
        "sep_threshold": sep,
        "image_threshold": eps_img,
        "sup_lambda": sup_lam,
    }

    candidates = _near_pairs(points, images, eps_img, sep)
    base["candidate_pairs"] = len(candidates)
    if candidates:
        i, j = np.array(candidates[:64]).T
        z1, z2, ok, resid, pair_sep = _polish_collisions(f, points[i], points[j], radius)
        if ok[-1]:
            res = dict(base)
            res.update({"collision_residual": float(resid[-1]), "witness_separation": float(pair_sep[-1])})
            return OracleVerdict(REFUTED, margin=-float(pair_sep[-1]),
                                 witness=(complex(z1[-1]), complex(z2[-1])), resolution=res)

    jac_min = float(jac.min())
    base["jacobian_min"] = jac_min
    if jac_min <= 0.0:
        worst = points[int(np.argmin(jac))]
        res = dict(base)
        res["reason"] = (
            f"nonpositive Jacobian sample at z = {complex(worst)!r}; cannot certify"
        )
        return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution=res)

    n_curve = max(1024, 4 * spec.n_theta)
    reason = "refinement budget exhausted"
    info: dict = {}
    for round_idx in range(spec.refinement_rounds + 1):
        simple, margin, fail_reason, info = _curve_scan(f, radius, n_curve)
        if simple:
            res = dict(base)
            res.update(info)
            res["rounds_used"] = round_idx
            return OracleVerdict(CERTIFIED, margin=margin, resolution=res)
        reason = fail_reason
        n_curve *= 2
    res = dict(base)
    res.update(info)
    res["reason"] = reason
    return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution=res)


def _winding_block(curve: np.ndarray, abs_chords: np.ndarray, targets: np.ndarray):
    """Winding numbers of the sampled curve around each target point.

    Chunked so memory stays bounded for long curves.  Returns integer
    windings, a per-target validity flag (every segment chord at most a
    tenth of its distance to the target), and the distance from each
    target to the nearest curve sample.
    """
    n_curve = len(curve)
    n_targets = len(targets)
    wind = np.empty(n_targets, dtype=np.int64)
    valid = np.ones(n_targets, dtype=bool)
    dist = np.empty(n_targets, dtype=float)
    chunk = max(1, int(2_000_000 // max(n_curve, 1)))
    for start in range(0, n_targets, chunk):
        sel = slice(start, min(start + chunk, n_targets))
        rel = curve[None, :] - targets[sel, None]
        abs_rel = np.abs(rel)
        abs_next = np.roll(abs_rel, -1, axis=1)
        valid[sel] = (abs_chords[None, :] <= 0.1 * np.minimum(abs_rel, abs_next)).all(axis=1)
        dist[sel] = abs_rel.min(axis=1)
        angles = np.angle(np.roll(rel, -1, axis=1) * np.conj(rel))
        wind[sel] = np.rint(angles.sum(axis=1) / (2.0 * np.pi)).astype(np.int64)
    return wind, valid, dist


def winding_number(f, radius: float, w: complex, n_theta: int = 2048) -> int:
    """Winding of the image of |z| = radius around w.

    Raises :class:`MeshPrecisionError` when any segment chord exceeds a
    tenth of its distance to w; the caller should refine n_theta.
    """
    radius = float(radius)
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    curve = np.asarray(f.eval(radius * np.exp(1j * theta)), dtype=complex)
    abs_chords = np.abs(np.roll(curve, -1) - curve)
    wind, valid, dist = _winding_block(curve, abs_chords, np.asarray([complex(w)]))
    if not valid[0]:
        raise MeshPrecisionError(
            f"chord length exceeds a tenth of the distance to w = {complex(w)!r} "
            f"(nearest sample at {dist[0]:.3e}); refine n_theta beyond {n_theta}"
        )
    return int(wind[0])


def coverage_probe(f, radius: float, rho: float, spec: SamplingSpec | None = None) -> OracleVerdict:
    """Does f(|z| < radius) cover the closed disk |w| <= rho?

    Certification needs the sampled boundary curve to keep a gap > 0 from
    the target disk with every chord at most a tenth of it.  Each polygon
    segment then lies within half a chord of a sample, so the polygon
    misses the disk by at least 0.95 gap and its winding number is the same
    at every point of the disk: the winding at the centre, recorded as
    ``winding_min``, certifies when it is at least one and otherwise
    refutes with the centre as witness.  A curve that meets the disk within
    sampling slack is refuted by a net point with winding zero or less
    under valid per-segment preconditions.  Orientation matters: the
    verdicts read the winding as a covering count, which is the right
    reading for sense-preserving maps.
    """
    if spec is None:
        spec = SamplingSpec()
    radius = float(radius)
    rho = float(rho)
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")

    n_curve = max(2048, 4 * spec.n_theta)
    cap_curve = 1 << 18
    reason = "refinement budget exhausted"
    last_info: dict = {}
    for round_idx in range(spec.refinement_rounds + 1):
        theta = 2.0 * np.pi * np.arange(n_curve) / n_curve
        curve = np.asarray(f.eval(radius * np.exp(1j * theta)), dtype=complex)
        abs_chords = np.abs(np.roll(curve, -1) - curve)
        chord_max = float(abs_chords.max())
        min_abs = float(np.abs(curve).min())
        gap = min_abs - rho
        info = {
            "curve_points": n_curve,
            "max_chord": chord_max,
            "curve_min_abs": min_abs,
            "rounds_used": round_idx,
        }
        last_info = info

        if gap > 0.0 and chord_max <= 0.1 * gap:
            # the polygon misses the disk by >= 0.95 gap, so the winding at
            # the centre is the winding at every point of the disk
            margin = gap - 0.5 * chord_max
            wind = int(_winding_block(curve, abs_chords, np.zeros(1, dtype=complex))[0][0])
            info["winding_min"] = wind
            if wind >= 1:
                return OracleVerdict(CERTIFIED, margin=float(margin), resolution=info)
            return OracleVerdict(REFUTED, margin=-min_abs, witness=0j, resolution=info)

        if gap <= 0.0:
            net = disk_net(rho, rho / 16.0)
            info["net_points"] = len(net)
            wind, valid, dist = _winding_block(curve, abs_chords, net)
            bad_mask = valid & (wind <= 0)
            if bad_mask.any():
                bad_idx = np.flatnonzero(bad_mask)
                pick = bad_idx[int(np.argmax(dist[bad_idx]))]
                info["winding_at_witness"] = int(wind[pick])
                return OracleVerdict(
                    REFUTED,
                    margin=-float(dist[pick]),
                    witness=complex(net[pick]),
                    resolution=info,
                )
            if valid.all():
                reason = "boundary curve meets the target disk within sampling slack; cannot certify the remainder"
            else:
                reason = "winding preconditions unmet near the curve at this resolution"
            factor = 2
        else:
            # jump straight to the resolution the precondition demands
            need = chord_max / (0.1 * gap)
            factor = int(min(32, max(2, 2 ** math.ceil(math.log2(need)))))
            reason = "chord length exceeds a tenth of the curve-to-disk gap"

        if n_curve >= cap_curve:
            break
        n_curve = min(n_curve * factor, cap_curve)

    res = dict(last_info)
    res["reason"] = reason
    return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution=res)

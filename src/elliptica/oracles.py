"""Certification oracles for injectivity and disk coverage.

Both probes return a three-way :class:`OracleVerdict` rather than a bool:
``"certified"`` and ``"refuted"`` are backed by explicit evidence (a safety
margin, or a confirmed witness), ``"inconclusive"`` means the sampling
budget was exhausted without either.  Verdicts never silently degrade: a
precondition the data fails to meet refines the mesh or ends inconclusive.

Injectivity is read off the boundary circle, with no 2D grid.  Certification
needs J > 0 on the closed disk (no zero of f_z, |f_zbar| < |f_z|) and a
simple boundary curve (binned pair scan under per-sample movement radii,
plus a tangent-turning bound).  By Lewy's theorem a univalent harmonic map
has J != 0, so the zeros of f_z and sign changes of J, or the curve scan's
worst pair, seed collisions that one batched damped Gauss-Newton polish
drives to two distinct preimages agreeing to 1e-12; the first is the witness.

Coverage uses winding numbers of the sampled boundary curve, with a
per-segment resolution precondition: a segment chord must not exceed a
tenth of its distance to the probed point, else the winding is not
trusted and the curve is refined.  A winding is the signed count of
segments crossing a ray from the point; where the precondition holds it is
the exact winding of the sampled polygon, and nothing reads it elsewhere.
A curve whose gap to the target disk dominates its chords winds equally
around every point of the disk, so one winding number at the centre
decides; only a curve that reaches into the disk needs a net of target
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .sampling import disk_net

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "OracleVerdict",
    "REFUTED",
    "coverage_probe",
    "univalence_probe",
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

# inconclusive reason for a map that overflows: no margin computed from
# inf or nan values means anything, and JSON has no spelling for them
_NONFINITE = "non-finite map values"

# the first curve of each probe has this many points, and univalence_probe
# refines its curve scan and both probes their windings at most _ROUNDS times;
# the winding refinements stop at _CURVE_CAP points
_UNIVALENCE_POINTS = 1024
_COVERAGE_POINTS = 2048
_ROUNDS = 3
_CURVE_CAP = 1 << 18

# the power sums lose accuracy, and np.roots costs cubic time, as zeros
# multiply; beyond this many zeros of h' or g', none seed a pair
_MAX_ZEROS = 64


@dataclass(frozen=True)
class OracleVerdict:
    status: str
    margin: float
    witness: Any = None
    resolution: dict = field(default_factory=dict)

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
# a winding block holds at most this many target-segment elements
_WINDING_BLOCK = 1 << 13


def _chords(curve: np.ndarray) -> np.ndarray:
    """Cyclic chords curve[k+1] - curve[k] of a sampled closed curve."""
    chords = np.empty_like(curve)
    np.subtract(curve[1:], curve[:-1], out=chords[:-1])
    np.subtract(curve[:1], curve[-1:], out=chords[-1:])
    return chords


def _refined(n: int, need: float) -> int:
    """n times the power of two, 2 to 32, that a chord precondition short by need asks for."""
    return min(_CURVE_CAP, n * max(2, 2 ** math.ceil(math.log2(min(32.0, need)))))


def _cabs(d: np.ndarray) -> np.ndarray:
    """|d| bit for bit as Python's abs(complex); np.abs may differ in the last ulp."""
    return np.hypot(d.real, d.imag)


def _cell_pairs(values: np.ndarray, cell: float):
    """Index pairs of values in the same or adjacent square image cells, each pair once.

    Every pair closer than ``cell`` is among them, as (i, j) with i != j in
    either order.  Yields (i, j) index arrays in chunks of about _PAIR_CHUNK
    pairs, cut between points.  The points are sorted by cell key, and each
    reads two runs of that order: the rest of its own cell with the cell
    above it, and the three cells of the next column.  The other four
    neighbours reach the point from their side.  One ``searchsorted`` per
    distinct cell finds both runs; keys below 2^16 sort as uint16, which
    numpy sorts by radix, and a stable order is the same for any key type.
    values must be a contiguous complex array.
    """
    n = len(values)
    k = np.floor(values.view(float) / cell).astype(np.int64)
    kx, ky = k[::2], k[1::2]
    # the curve scan sizes the cells from a chord bound of the values, so
    # each axis spans at most a few cells per sample and the flat cell key
    # stays far from int64 overflow
    width = int(ky.max() - ky.min()) + 3
    # rows run 1..width-2, so rows dy = -1, 0, +1 of the next column stay
    # inside it and are the consecutive keys key + width - 1 .. + 1
    key = kx - (kx.min() - 1)
    key *= width
    key += ky
    key -= ky.min() - 1
    members = np.argsort(key.astype(np.uint16) if key.max() < 1 << 16 else key, kind="stable")
    sorted_key = key[members]
    # starts of the distinct cells in sorted order, and n; each cell's run
    # ends, at the first positions of keys key + 2 (keys are integers, so
    # that ends the cell above), key + width - 1 and key + width + 2
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=edge[1:-1])
    starts = np.flatnonzero(edge)
    cells = sorted_key[starts[:-1]]
    bounds = starts[np.searchsorted(cells, cells + np.array([[2], [width - 1], [width + 2]]))]
    bounds = np.repeat(bounds, np.diff(starts), axis=1)
    # per sorted position: the lengths of its two runs, the pair counts
    # through each, and the run starts less those counts, so that the
    # run positions are these offsets plus the pair number
    runs = np.empty((n, 2), dtype=np.int64)
    np.subtract(bounds[0], np.arange(1, n + 1), out=runs[:, 0])
    np.subtract(bounds[2], bounds[1], out=runs[:, 1])
    counts = runs[:, 0] + runs[:, 1]
    done = np.cumsum(counts)
    offsets = bounds[:2].T - (done - runs[:, 1])[:, None]
    lo = 0
    while lo < n:
        base = int(done[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(done, base + _PAIR_CHUNK, side="right")))
        q = np.repeat(offsets[lo:hi].ravel(), runs[lo:hi].ravel()) + np.arange(base, done[hi - 1])
        yield np.repeat(members[lo:hi], counts[lo:hi]), members[q]
        lo = hi


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
    A pair converges when its residual, plus the rounding error bound of
    both evaluations (``horner_bound``), is below 1e-12 while it stays
    separated by more than 1e-6; so a pair that only rounding makes collide
    is no witness.

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
        near = np.flatnonzero(~live & ok)
        ok[near] = _cabs(resid[near]) + f.horner_bound(z1[near]) + f.horner_bound(z2[near]) < _RESID_TOL
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


def _worst_pair(curve: np.ndarray, move: np.ndarray):
    """The least separation slack of a sampled closed curve: ((slack, lower, upper), pairs).

    The slack of a pair of samples at cyclic index distance >= 2 is
    _cabs(c_i - c_j) - (move_i + move_j); worst is the least slack, then
    the least (lower, upper) index pair, or (max move, n, n) when no slack
    is at most max move: a pair the cell join skips is more than 3 max
    move apart, so its slack exceeds max move.  pairs counts the pairs of
    the join less the neighbour pairs.  move_k must be at least 0.75 times
    each chord at sample k, so that the join holds all n cyclic neighbour
    pairs; a slack of inf, indexed by i - j (-1 wraps to n - 1, 1 - n to
    1), keeps them out of the minimum.  n must be at least 3.

    Each chunk of the join first forms the slack with np.abs, which is
    several times cheaper than _cabs, and rechecks with _cabs only the pairs
    within tol = 2^-40 cell (plus 2^-1064 for subnormal cells) of its least
    cheap slack.  Both moduli agree to a few ulps, and every pair in the
    join is within 3 cells, so a cheap and an exact slack differ by at most
    about 2^-47 cell (or a few subnormal ulps).  A pair whose exact slack
    ties the chunk's exact minimum therefore lies within twice that of the
    least cheap slack, hence among the rechecked pairs, and worst keeps the
    bits of an exact slack on every pair.
    """
    n_curve = len(curve)
    move_max = float(move.max())
    cell = 3.0 * move_max
    worst = (move_max, n_curve, n_curve)
    pairs = -n_curve
    neighbour = np.zeros(n_curve)
    neighbour[[1, -1]] = np.inf
    tol = 2.0**-40 * cell + 2.0**-1064
    for i, j in _cell_pairs(curve, cell):
        pairs += len(i)
        d = curve[i]
        d -= curve[j]
        slack = np.abs(d)
        slack -= move[i]
        slack -= move[j]
        slack += neighbour[i - j]
        least = slack.min(initial=np.inf)
        if least < np.inf:
            near = np.flatnonzero(slack <= least + tol)
            i, j = i[near], j[near]
            exact = _cabs(curve[i] - curve[j]) - (move[i] + move[j])
            pair = np.minimum(i, j) * n_curve + np.maximum(i, j)
            k = np.lexsort((pair, exact))[0]
            worst = min(worst, (exact[k], *divmod(int(pair[k]), n_curve)))
    return worst, pairs


def _curve_scan(f, radius: float, n_curve: int, curve=None):
    """Simplicity scan of the image of |z| = radius at n_curve samples.

    Returns (simple, margin, reason, info).  The curve is declared simple
    when every pair of samples at cyclic index distance >= 2 is separated
    by more than the sum of their movement radii, and consecutive chord
    directions never turn by a right angle or more.  The margin is a lower
    bound for the separation slack over all such pairs, binned pairs
    explicitly (:func:`_worst_pair`) and the rest by the bin-size
    guarantee.  curve, when given, is f.on_circle(radius, n_curve)[0].
    """
    if curve is None:
        curve = f.on_circle(radius, n_curve)[0]
    chords = _chords(curve)
    abs_chords = np.abs(chords)
    info = {"curve_points": n_curve}
    if not np.isfinite(abs_chords).all():
        return False, 0.0, _NONFINITE + " on the boundary curve", info
    info["max_chord"] = float(abs_chords.max())
    if abs_chords.min() == 0.0:
        return False, 0.0, "stationary boundary samples", info
    turn = np.angle(chords[1:] * np.conj(chords[:-1]))
    last = np.angle(chords[:1] * np.conj(chords[-1:]))
    info["max_turn"] = float(max(np.abs(turn).max(), abs(last[0])))
    if info["max_turn"] >= 0.5 * np.pi:
        return False, 0.0, "chord direction turns by a right angle between samples", info

    # the larger of the chords before and after each sample
    move = np.empty_like(abs_chords)
    np.maximum(abs_chords[:-1], abs_chords[1:], out=move[1:])
    move[0] = max(abs_chords[-1], abs_chords[0])
    move *= _MOVE_SAFETY
    worst, info["scanned_pairs"] = _worst_pair(curve, move)
    margin = worst[0]
    if margin <= 0.0:
        info["worst_pair_theta"] = [2.0 * np.pi * k / n_curve for k in worst[1:]]
        return False, float(margin), "near self-intersection unresolved at this resolution", info
    return True, float(margin), "", info


def _jacobian_certificate(f, radius: float, n: int, first=None):
    """Boundary certificate of J > 0 on |z| <= radius: (reason it fails, or "", keys, circle).

    Write f = h + conj(g), so f_z = h' and |f_zbar| = |g'|.  J > 0 on the
    closed disk if and only if h' has no zero in it and |g'| < |h'| on the
    circle, since the dilatation g'/h' is then analytic on the disk and, by
    the maximum principle, of modulus below 1 inside.  The zeros of h' are
    its winding about 0 under the chord precondition of _winding_block; at
    most _ROUNDS refinements each jump to the resolution it demands.
    first, when given, is the first round's (f_z, f_zbar) as
    f.on_circle(radius, n, values=False, partials=True) returns them.
    circle is (f_z, f_zbar) at the last samples, None if not finite.
    """
    for round_idx in range(_ROUNDS + 1):
        info = {"hprime_points": n}
        fz, fzb = first or f.on_circle(radius, n, values=False, partials=True)
        first = None
        abs_fz, abs_fzb = np.abs(fz), np.abs(fzb)
        if not (np.isfinite(abs_fz).all() and np.isfinite(abs_fzb).all()):
            return _NONFINITE + " or derivatives on the boundary circle", info, None
        circle = (fz, fzb)
        if not (abs_fzb < abs_fz).all():
            worst = 2.0 * np.pi * int(np.argmax(abs_fzb - abs_fz)) / n
            return f"nonpositive Jacobian on the boundary circle at theta = {worst!r}; cannot certify", info, circle
        info["dilatation_max"] = float((abs_fzb / abs_fz).max())
        # h' / max|h'| winds as h' does, and its chords and moduli stay finite
        # where |h'| is near overflow
        hprime = fz / abs_fz.max()
        zeros, valid, dist, chord_max = _centre_winding(hprime)
        if valid:
            info["hprime_zeros"] = zeros
            return (f"h' = f_z has {zeros} zeros in the disk, where J <= 0" if zeros else ""), info, circle
        # the longest chord shrinks no faster than 1/n and dist cannot grow
        # under refinement, so a need beyond the cap cannot be met within it
        need = chord_max / (0.1 * dist)
        if round_idx == _ROUNDS or n * need > _CURVE_CAP:
            return "winding preconditions for the zeros of h' = f_z unmet at this resolution", info, circle
        n = _refined(n, need)


def _zeros_inside(values: np.ndarray, fn, radius: float) -> np.ndarray:
    """Zeros in |z| < radius of an analytic fn sampled as values at radius e^{2 pi i k / n}.

    None when their count, the winding of values about 0, is unresolved
    (:func:`_winding_block`) or above _MAX_ZEROS.  The Delves-Lyness power
    sums of the zeros, Newton's identities and np.roots locate them, and a
    few secant steps on fn polish them.
    """
    scale = np.abs(values).max()
    if not scale > 0.0:
        return np.zeros(0, dtype=complex)
    # values / scale winds as values do, and its chords and moduli stay
    # finite where values are near overflow
    scaled = values / scale
    count, valid, _, _ = _centre_winding(scaled)
    if not (valid and 0 < count <= _MAX_ZEROS):
        return np.zeros(0, dtype=complex)
    # the chord precondition keeps each ratio within a tenth of 1, on the principal branch
    dlog = np.log(np.roll(values, -1) / values)
    # z_mid^k = (radius e^{i pi / n})^k e^{i k theta}: one DFT of dlog gives every sum
    k = np.arange(1, count + 1)
    sums = (radius * np.exp(1j * np.pi / len(values))) ** k * np.fft.ifft(dlog, norm="forward")[k] / (2j * np.pi)
    coeffs = [1.0]
    for j in range(1, count + 1):
        coeffs.append(-sum(coeffs[j - i] * sums[i - 1] for i in range(1, j + 1)) / j)
    p = np.roots(coeffs)
    p = p[np.abs(p) < radius]
    q = p + 1e-6 * (radius - np.abs(p))
    for _ in range(8):
        fp, fq = np.split(fn(np.concatenate([p, q])), 2)
        move = np.isfinite(fq - fp) & (fq != fp)
        step = q - fq * (q - p) / np.where(move, fq - fp, 1.0)
        p, q = q, np.where(move & (np.abs(step) < radius), step, q)
        # with p = q every further step is a no-op
        if np.array_equal(p, q):
            break
    return q


def _collision_seeds(f, radius: float, circle, worst_theta):
    """Candidate collision pairs (z1, z2) from the certificate's circle samples, in polish order.

    (a) The zeros p of h' = f_z inside, where J = -|g'|^2 <= 0; (b) a fold
    p, where J changes sign between the worst circle sample (else a zero of
    h') and the best one (else the centre, else a zero of g').  Each p gives
    p +- t v, with v in the kernel of Df (e^{2 i alpha} = -f_zbar / f_z) and
    t = (radius - |p|)/4.  (c) A failed curve scan's worst pair, moved to
    0.999 radius.
    """
    def positive(w):
        fz, fzb = f.partials(w)
        return np.abs(fz) > np.abs(fzb)

    p = np.zeros(0, dtype=complex)
    if circle is not None:
        fz, fzb = circle
        p = _zeros_inside(fz, lambda w: f.partials(w)[0], radius)
        margin = np.abs(fz) - np.abs(fzb)
        worst, best = 2.0 * np.pi * np.array([[np.argmin(margin)], [np.argmax(margin)]]) / len(fz)
        low = np.concatenate([radius * np.exp(1j * worst), p])
        high = np.concatenate([radius * np.exp(1j * best), [0j],
                               _zeros_inside(np.conj(fzb), lambda w: np.conj(f.partials(w)[1]), radius)])
        low, high = low[~positive(low)], high[positive(high)]
        if len(low) and len(high):
            # bisect 64 ways at a time: keep the first cut whose right end has J > 0
            low, high = low[0], high[0]
            for _ in range(3):
                cuts = low + (high - low) * np.linspace(0.0, 1.0, 65)
                k = max(1, int(np.argmax(positive(cuts))))
                low, high = cuts[k - 1], cuts[k]
            p = np.append(p, 0.5 * (low + high))
    fz, fzb = f.partials(p)
    tv = 0.25 * (radius - np.abs(p)) * np.exp(0.5j * (np.angle(-fzb) - np.angle(fz)))
    z1, z2 = p + tv, p - tv
    if worst_theta is not None:
        ends = 0.999 * radius * np.exp(1j * np.asarray(worst_theta))
        z1, z2 = np.append(z1, ends[0]), np.append(z2, ends[1])
    return z1, z2


def univalence_probe(f, radius: float) -> OracleVerdict:
    """Three-way injectivity verdict for f on the closed disk |z| <= radius.

    Certified by J > 0 on the closed disk (:func:`_jacobian_certificate`)
    and a simple boundary curve (:func:`_curve_scan`), each refined at most
    _ROUNDS times.  Otherwise the circle samples seed a few
    candidate collision pairs (:func:`_collision_seeds`), polished as one
    batch; the first that converges is the witness, and without one the
    verdict is inconclusive with the reason the certificate failed.
    """
    radius = float(radius)
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")

    n_curve = _UNIVALENCE_POINTS
    # round 0 of both checks reads one stacked inverse DFT of f, f_z and f_zbar
    curve, fz, fzb = f.on_circle(radius, n_curve, partials=True)
    reason, cert, circle = _jacobian_certificate(f, radius, n_curve, (fz, fzb))
    if not reason:
        for round_idx in range(_ROUNDS + 1):
            simple, margin, reason, info = _curve_scan(f, radius, n_curve << round_idx,
                                                       curve if round_idx == 0 else None)
            if simple:
                res = {**cert, **info, "rounds_used": round_idx}
                return OracleVerdict(CERTIFIED, margin=margin, resolution=res)
        cert.update(info)

    z1, z2 = _collision_seeds(f, radius, circle, cert.get("worst_pair_theta"))
    cert["seeds"] = len(z1)
    if len(z1):
        z1, z2, ok, resid, pair_sep = _polish_collisions(f, z1, z2, radius)
        if ok[-1]:
            cert.update(collision_residual=float(resid[-1]), witness_separation=float(pair_sep[-1]))
            return OracleVerdict(REFUTED, margin=-float(pair_sep[-1]),
                                 witness=(complex(z1[-1]), complex(z2[-1])), resolution=cert)
    return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution={**cert, "reason": reason})


def _winding_block(curve: np.ndarray, abs_chords: np.ndarray, targets: np.ndarray):
    """Winding numbers of the sampled curve around each target point.

    Returns integer windings, a per-target validity flag (every segment
    chord at most a tenth of its distance to the target), and the distance
    from each target to the nearest curve sample.  A winding is the signed
    count of segments crossing the ray from the target along the positive
    real axis, upwards less downwards, with a vertex on the ray's line
    counted below it.  It means something only where the target is valid:
    a segment there crosses the line at least 9 chords from the target, so
    both its ends lie on the side of the crossing, and the count is the
    exact winding of the sampled polygon.  Elsewhere it may be anything.
    Targets and segments run in blocks of at most _WINDING_BLOCK elements;
    windings are integer sums, validity an ``all`` and the distance a
    ``min``, so the blocks give the bits of one pass.
    """
    n_curve = len(curve)
    n_targets = len(targets)
    wind = np.zeros(n_targets, dtype=np.int64)
    valid = np.ones(n_targets, dtype=bool)
    dist = np.full(n_targets, np.inf)
    segments = min(n_curve, _WINDING_BLOCK)
    rows = max(1, _WINDING_BLOCK // segments)
    for start in range(0, n_targets, rows):
        sel = slice(start, min(start + rows, n_targets))
        for lo in range(0, n_curve, segments):
            hi = min(lo + segments, n_curve)
            # the block's vertices relative to each target; the last block
            # closes with the first sample
            rel = np.empty((sel.stop - start, hi - lo + 1), dtype=complex)
            np.subtract(curve[lo:hi], targets[sel, None], out=rel[:, :-1])
            np.subtract(curve[hi % n_curve], targets[sel], out=rel[:, -1])
            abs_rel = np.abs(rel)
            near = np.minimum(abs_rel[:, :-1], abs_rel[:, 1:])
            near *= 0.1
            valid[sel] &= (abs_chords[lo:hi] <= near).all(axis=1)
            np.minimum(dist[sel], abs_rel.min(axis=1), out=dist[sel])
            # +1 where a segment goes from below the line to above it, -1 the other way
            below = (rel.imag <= 0.0).view(np.int8)
            step = below[:, :-1] - below[:, 1:]
            step *= rel.real[:, :-1] > 0.0
            wind[sel] += step.sum(axis=1)
    return wind, valid, dist


def _centre_winding(curve: np.ndarray):
    """:func:`_winding_block` about the one target 0, with the longest chord.

    Returns (winding, valid, dist, longest chord), the winding a Python int.
    The samples run in blocks of _WINDING_BLOCK / 2, each closing with the
    next sample, so that a block's vertices and chords hold about
    _WINDING_BLOCK complex elements and no temporary spans the curve;
    |curve| serves as both the distances to 0 and the moduli of the
    vertices, and a block whose longest chord is at most a tenth of its
    least modulus is valid without a per-segment test.  Windings add,
    validity ands and the distance and longest chord take the min and max
    across blocks, with NaN carried as by one pass, so the blocks give the
    bits of :func:`_winding_block`.
    """
    n_curve = len(curve)
    block = _WINDING_BLOCK // 2
    wind, valid, dist, chord_max = 0, True, np.inf, 0.0
    for lo in range(0, n_curve, block):
        hi = min(lo + block, n_curve)
        ends = np.empty(hi - lo + 1, dtype=complex)
        ends[:-1] = curve[lo:hi]
        ends[-1] = curve[hi % n_curve]
        abs_ends = np.abs(ends)
        abs_chords = np.abs(ends[1:] - ends[:-1])
        least, longest = abs_ends.min(), abs_chords.max()
        if not longest <= 0.1 * least:
            near = np.minimum(abs_ends[:-1], abs_ends[1:])
            near *= 0.1
            valid &= bool((abs_chords <= near).all())
        dist, chord_max = np.minimum(dist, least), np.maximum(chord_max, longest)
        below = (ends.imag <= 0.0).view(np.int8)
        step = below[:-1] - below[1:]
        step *= ends.real[:-1] > 0.0
        wind += int(step.sum())
    return wind, valid, dist, chord_max


def coverage_probe(f, radius: float, rho: float) -> OracleVerdict:
    """Does f(|z| < radius) cover the closed disk |w| <= rho?

    Certification needs the sampled boundary curve to keep a gap > 0 from
    the target disk with every chord at most a tenth of it.  Each polygon
    segment then lies within half a chord of a sample, so the polygon
    misses the disk by at least 0.95 gap and its winding number is the same
    at every point of the disk: the winding at the centre, recorded as
    ``winding_min``, certifies when it is at least one.  Else the centre,
    or, for a curve that meets the disk within sampling slack, a net point
    of winding <= 0 under valid per-segment preconditions refutes, if J > 0
    on the closed disk is certified: the winding counts preimages with the
    sign of J (z + 1.5 conj(z)^2 winds -2 about f(0) = 0).  Non-finite
    samples, or J > 0 uncertified, leave the verdict inconclusive.
    """
    radius = float(radius)
    rho = float(rho)
    if not (0.0 < radius < 1.0):
        raise ValueError(f"radius must lie in (0, 1), got {radius}")
    if not (0.0 < rho < math.inf):
        raise ValueError(f"rho must be positive and finite, got {rho}")

    n_curve = _COVERAGE_POINTS
    witness = None
    for round_idx in range(_ROUNDS + 1):
        curve = f.on_circle(radius, n_curve)[0]
        centre, _, min_abs, chord_max = _centre_winding(curve)
        chord_max, min_abs = float(chord_max), float(min_abs)
        if not (math.isfinite(chord_max) and math.isfinite(min_abs)):
            # refining the curve cannot remove an overflowing sample
            res = {"curve_points": n_curve, "rounds_used": round_idx,
                   "reason": _NONFINITE + " on the boundary curve"}
            return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution=res)
        gap = min_abs - rho
        info = {
            "curve_points": n_curve,
            "max_chord": chord_max,
            "curve_min_abs": min_abs,
            "rounds_used": round_idx,
        }

        if gap > 0.0 and chord_max <= 0.1 * gap:
            # the polygon misses the disk by >= 0.95 gap, so the winding at
            # the centre is the winding at every point of the disk
            margin = gap - 0.5 * chord_max
            info["winding_min"] = centre
            if centre >= 1:
                return OracleVerdict(CERTIFIED, margin=float(margin), resolution=info)
            witness, margin = 0j, -min_abs
            break

        if gap <= 0.0:
            net = disk_net(rho, rho / 16.0)
            info["net_points"] = len(net)
            wind, valid, dist = _winding_block(curve, np.abs(_chords(curve)), net)
            bad_mask = valid & (wind <= 0)
            if bad_mask.any():
                bad_idx = np.flatnonzero(bad_mask)
                pick = bad_idx[int(np.argmax(dist[bad_idx]))]
                info["winding_at_witness"] = int(wind[pick])
                witness, margin = complex(net[pick]), -float(dist[pick])
                break
            if valid.all():
                # every net winding is that of the true curve, and refining
                # keeps these samples, so the gap stays <= 0: nothing to gain
                reason = "boundary curve meets the target disk within sampling slack; cannot certify the remainder"
                break
            reason = "winding preconditions unmet near the curve at this resolution"
            # as in _jacobian_certificate, the longest chord shrinks no faster
            # than 1/n; a target's distance to the samples can shrink by half
            # a chord, to 0 for a target on the curve, so a need beyond the
            # cap cannot be met within it
            near = float(dist[~valid].min()) - 0.5 * chord_max
            if not near > 0.0 or n_curve * chord_max / (0.1 * near) > _CURVE_CAP:
                break
            need = chord_max / (0.1 * near)
        else:
            # jump straight to the resolution the precondition demands
            need = chord_max / (0.1 * gap)
            reason = "chord length exceeds a tenth of the curve-to-disk gap"

        if n_curve >= _CURVE_CAP:
            break
        n_curve = _refined(n_curve, need)

    if witness is not None:
        # an analytic map counts every preimage with positive multiplicity
        if f.is_analytic:
            reason = ""
        else:
            reason = _jacobian_certificate(f, radius, _UNIVALENCE_POINTS)[0]
        if not reason:
            return OracleVerdict(REFUTED, margin=margin, witness=witness, resolution=info)
        reason = "a winding <= 0 shows an uncovered point only where J > 0 on the closed disk: " + reason
    return OracleVerdict(INCONCLUSIVE, margin=0.0, resolution={**info, "reason": reason})

"""Probe oracles: verdict semantics, witnesses, winding numbers."""

import json
import math

import numpy as np
import pytest
from conftest import grid_stretches
from hypothesis import given
from hypothesis import strategies as st

from elliptica import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    OracleVerdict,
    build_classical,
    build_Fn,
    classical_landau,
    coverage_probe,
    disk_net,
    landau,
    random_elliptic,
    univalence_probe,
)
from elliptica import oracles, sampling, seriescore
from elliptica.oracles import _MOVE_SAFETY, _collision_seeds, _curve_scan, _polish_collisions, _zeros_inside

IDENTITY = HarmonicMap.identity()
SQUARE = HarmonicMap([0.0, 0.0, 1.0])  # z^2, the canonical non-injective map


class TestUnivalenceProbe:
    def test_identity_certified(self):
        v = univalence_probe(IDENTITY, 0.9)
        assert v.status == CERTIFIED
        assert v.margin > 0
        assert v.resolution["hprime_zeros"] == 0
        assert 0 <= v.resolution["dilatation_max"] < 1

    def test_square_refuted_with_antipodal_witness(self):
        v = univalence_probe(SQUARE, 0.9)
        assert v.status == REFUTED
        z1, z2 = v.witness
        # the polisher lands on an exact antipodal collision pair
        assert abs(z1 + z2) < 1e-9
        assert abs(SQUARE.eval(z1) - SQUARE.eval(z2)) < 1e-11
        assert abs(z1 - z2) > 1e-6
        assert v.margin == pytest.approx(-abs(z1 - z2), abs=1e-15)

    def test_fold_refuted(self):
        # a genuine fold produces confirmable collisions across it
        fold = HarmonicMap([0.0, 1.0], [0.0, 0.75])
        v = univalence_probe(fold, 0.9)
        assert v.status == REFUTED
        z1, z2 = v.witness
        assert abs(fold.eval(z1) - fold.eval(z2)) < 1e-11

    def test_sense_reversing_is_inconclusive_not_refuted(self):
        # conj(z) is injective but sense-reversing; the probe must neither
        # certify (its criterion assumes J > 0) nor invent a collision
        anti = HarmonicMap([0.0], [1.0])
        v = univalence_probe(anti, 0.9)
        assert v.status == INCONCLUSIVE
        assert "Jacobian" in v.resolution["reason"]

    def test_deterministic(self):
        a = univalence_probe(IDENTITY, 0.7).to_json_dict()
        b = univalence_probe(IDENTITY, 0.7).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_radius_validation(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                univalence_probe(IDENTITY, bad)

    def test_resolution_records_thresholds(self):
        v = univalence_probe(SQUARE, 0.5)
        assert v.status == REFUTED
        # the certificate's facts that seeded the witness, and the witness's own
        assert v.resolution["hprime_zeros"] == 1 and v.resolution["hprime_points"] == 1024
        assert v.resolution["seeds"] >= 1
        assert v.resolution["collision_residual"] < 1e-12
        assert v.resolution["witness_separation"] == -v.margin > 1e-6
        for key in ("mesh", "sep_threshold", "image_threshold", "sup_lambda", "candidate_pairs", "n_r"):
            assert key not in v.resolution
        v = univalence_probe(IDENTITY, 0.5)
        assert v.status == CERTIFIED
        for key in ("hprime_zeros", "hprime_points", "dilatation_max"):
            assert key in v.resolution


def _winding(f, radius: float, w: complex, n: int = 2048) -> tuple[int, bool]:
    """Winding of the image of |z| = radius about w, and whether its chord precondition holds."""
    curve = f.on_circle(radius, n)[0]
    wind, valid, _ = oracles._winding_block(curve, np.abs(oracles._chords(curve)), np.array([w], dtype=complex))
    return int(wind[0]), bool(valid[0])


class TestWindingNumber:
    def test_identity(self):
        assert _winding(IDENTITY, 0.5, 0.0) == (1, True)
        assert _winding(IDENTITY, 0.5, 0.3 + 0.2j) == (1, True)
        assert _winding(IDENTITY, 0.5, 0.7) == (0, True)

    def test_square_counts_preimages(self):
        assert _winding(SQUARE, 0.5, 0.0) == (2, True)
        assert _winding(SQUARE, 0.5, 0.1) == (2, True)
        assert _winding(SQUARE, 0.5, 0.5) == (0, True)  # outside the image disk

    def test_mesh_precision_guard(self):
        # at 2048 points the chords (~1.5e-3) dwarf a tenth of the 3e-3
        # standoff; 16384 points bring them under it
        assert not _winding(IDENTITY, 0.5, 0.503)[1]
        assert _winding(IDENTITY, 0.5, 0.503, n=1 << 14) == (0, True)


@given(st.integers(64, 2048), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_crossing_windings_match_the_angle_sums(n, modes, seed):
    # closed polygons sampled from random Fourier sums, one vertex moved onto
    # the real axis; the reference rounds the summed turning angles
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n) / n
    k = rng.integers(-3, 4, modes)
    curve = (rng.standard_normal(modes) + 1j * rng.standard_normal(modes)) @ np.exp(1j * np.outer(k, theta))
    curve -= 1j * curve[rng.integers(n)].imag
    chords = np.abs(oracles._chords(curve))
    scale = np.abs(curve).max()
    vertex = curve[rng.integers(0, n, 8)]
    targets = np.concatenate([
        scale * (rng.uniform(-1.2, 1.2, 8) + 1j * rng.uniform(-1.2, 1.2, 8)),
        scale * rng.uniform(-1.2, 1.2, 8) + 0j,  # on the real axis
        scale * rng.uniform(-1.2, 1.2, 8) + 1j * vertex.imag,  # level with a vertex
        vertex + chords.max() * rng.uniform(5.0, 40.0, 8) * np.exp(2j * np.pi * rng.random(8)),  # near the curve
        [scale + 20.0 * chords.max()],
    ])
    wind, valid, _ = oracles._winding_block(curve, chords, targets)
    rel = curve[None, :] - targets[:, None]
    angles = np.angle(np.roll(rel, -1, axis=1) * np.conj(rel))
    reference = np.rint(angles.sum(axis=1) / (2.0 * np.pi)).astype(np.int64)
    assert valid[-1] and wind[-1] == 0
    assert np.array_equal(wind[valid], reference[valid])


def test_nonfinite_targets_are_usage_errors():
    # no refinement can place a curve around inf or nan, so the coverage
    # oracle may not ask for one
    fn2 = build_Fn(2, 2.0)
    calls = [lambda: coverage_probe(fn2, 0.3, np.nan),
             lambda: coverage_probe(fn2, 0.3, np.inf)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


class TestCoverageProbe:
    def test_certified_inside(self):
        v = coverage_probe(IDENTITY, 0.5, 0.45)
        assert v.status == CERTIFIED
        # certification margin is the curve-to-disk gap less half a chord
        assert 0 < v.margin < 0.05
        assert v.resolution["winding_min"] >= 1

    def test_refuted_outside(self):
        v = coverage_probe(IDENTITY, 0.5, 0.55)
        assert v.status == REFUTED
        assert abs(v.witness) > 0.5  # the witness is genuinely uncovered
        assert v.margin < 0
        # z + 0.5 conj(z) maps |z| = 0.9 onto an ellipse with minor semi-axis 0.45
        assert coverage_probe(HarmonicMap([0.0, 1.0], [0.5]), 0.9, 0.5).status == REFUTED

    def test_hairline_gap_is_inconclusive(self):
        # gap of 1e-9 would need ~1e10 curve points; the budget refuses
        v = coverage_probe(IDENTITY, 0.5, 0.5 - 1e-9)
        assert v.status == INCONCLUSIVE
        assert "chord" in v.resolution["reason"]

    def test_multivalent_cover_counts(self):
        # z^2 covers the disk of radius r^2 twice; winding 2 still certifies
        v = coverage_probe(SQUARE, 0.5, 0.2)
        assert v.status == CERTIFIED
        assert v.resolution["winding_min"] == 2

    def test_thin_gap_certified_by_one_winding(self):
        # gap 1e-3 against chords of ~1e-4: the centre's winding certifies
        # without a net of target points, however fine that net would be
        v = coverage_probe(IDENTITY, 0.5, 0.499)
        assert v.status == CERTIFIED
        assert v.resolution["winding_min"] == 1
        assert 0 < v.margin < 1e-3

    def test_uncovered_centre_refuted_in_gap_branch(self):
        # the image circle of 0.6 + z misses the disk by a wide gap and does
        # not wind around it: the centre is the witness
        v = coverage_probe(HarmonicMap([0.6, 1.0]), 0.5, 0.05)
        assert v.status == REFUTED
        assert v.witness == 0j
        assert v.margin == pytest.approx(-0.1)
        assert v.resolution["winding_min"] == 0

    def test_a_target_disk_the_curve_crosses_leaves_every_net_winding_valid(self):
        # |f| on |z| = 0.95 ripples by 6e-3 with 101 lobes, and the target
        # disk reaches a quarter of the way up: round 0 finds targets too near
        # the curve, round 1's finer curve leaves every net point valid, and
        # none is uncovered, so nothing remains to refine
        eps = 3e-3 / 0.95**102
        f = HarmonicMap([0.0, 1.0] + [0.0] * 100 + [eps])
        size = np.abs(f.on_circle(0.95, 65536)[0])
        v = coverage_probe(f, 0.95, size.min() + 0.25 * (size.max() - size.min()))
        assert v.status == INCONCLUSIVE and v.margin == 0.0
        assert v.resolution["rounds_used"] == 1 and v.resolution["curve_points"] == 32768
        assert v.resolution["reason"].startswith("boundary curve meets the target disk within sampling slack; ")

    def test_deterministic(self):
        a = coverage_probe(IDENTITY, 0.5, 0.45).to_json_dict()
        b = coverage_probe(IDENTITY, 0.5, 0.45).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_probe(IDENTITY, 1.0, 0.5)
        with pytest.raises(ValueError):
            coverage_probe(IDENTITY, 0.5, 0.0)


# 1.5e308 z^2 overflows to inf on the grid; the map must not be certified
# with a NaN margin, nor crash the coverage refinement
OVERFLOWING = HarmonicMap([0.0, 1.0, 1.5e308, 1.5e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteMaps:
    def _assert_strict_inconclusive(self, v):
        assert v.status == INCONCLUSIVE
        assert v.margin == 0.0
        assert "non-finite map values" in v.resolution["reason"]
        json.dumps(v.to_json_dict(), allow_nan=False)

    def test_univalence_inconclusive(self):
        self._assert_strict_inconclusive(univalence_probe(OVERFLOWING, 0.9))

    def test_coverage_inconclusive(self):
        self._assert_strict_inconclusive(coverage_probe(OVERFLOWING, 0.9, 0.1))

    def test_curve_scan_fails_on_the_refined_curve(self):
        simple, margin, reason, info = _curve_scan(OVERFLOWING, 0.9, 4096)
        assert (simple, margin, info) == (False, 0.0, {"curve_points": 4096})
        assert "non-finite map values" in reason

    def test_huge_finite_map_is_not_refuted(self):
        # values and stretches stay finite, and the polish drives a pair to
        # z2 = -z1, where 1e307 z^2 agrees and only rounding hides the exact
        # gap |z1 - z2|; the Horner bound at the pair exceeds the tolerance
        f = HarmonicMap([0.0, 1.0, 1e307])
        v = univalence_probe(f, 0.5)
        assert v.status == INCONCLUSIVE and v.resolution["seeds"] > 0
        z = np.array([0.125, -0.125])
        assert f.eval(z[0]) == f.eval(z[1]) and f.horner_bound(z).min() > 1e290


def _gap_certified_cases():
    yield pytest.param(IDENTITY, 0.5, 0.45, id="identity")
    yield pytest.param(SQUARE, 0.5, 0.2, id="square")
    # the image of |z| = 0.9 under z + 0.5 conj(z) is an ellipse with semi-axes 1.35 and 0.45
    yield pytest.param(HarmonicMap([0.0, 1.0], [0.5]), 0.9, 0.4, id="affine")
    res = landau(EllipticityParams(1.0, 0.0), DistortionBound(2.0))
    yield pytest.param(build_Fn(2, 2.0, n_terms=128), res.r1 * (1 - 1e-6),
                       res.sigma1 * (1 - 1e-3), id="F_2")
    for seed, (k, kp, lam) in ((3, (2.0, 0.5, 1.5)), (11, (4.0, 1.0, 3.0))):
        res = landau(EllipticityParams(k, kp), DistortionBound(lam))
        f = random_elliptic(EllipticityParams(k, kp), lam, seed)
        yield pytest.param(f, res.r1 * (1 - 1e-6), res.sigma1 * (1 - 1e-3), id=f"random-{seed}")


@pytest.mark.parametrize("f,radius,rho", list(_gap_certified_cases()))
def test_gap_certificate_winding_is_constant_on_disk(f, radius, rho):
    # the certificate evaluates one winding, at the centre; by the gap
    # argument every point of the target disk must have that same winding
    v = coverage_probe(f, radius, rho)
    assert v.status == CERTIFIED
    n_curve = v.resolution["curve_points"]
    for w in disk_net(rho, rho / 8.0):
        assert _winding(f, radius, w, n_curve) == (v.resolution["winding_min"], True)


@pytest.mark.parametrize("f,radius", [
    pytest.param(IDENTITY, 0.5, id="identity"),
    pytest.param(SQUARE, 0.5, id="square"),
    pytest.param(build_Fn(3, 2.0, n_terms=64), 0.3, id="F_3"),
    pytest.param(build_classical(2.0, n_terms=400), 1.05 * classical_landau(2.0).r0,
                 id="classical-beyond-r0"),
])
def test_curve_scan_margin_matches_brute_force(f, radius):
    n_curve = 256
    simple, margin, _, info = _curve_scan(f, radius, n_curve)
    # the scan's own samples: a series map's circle comes from one DFT
    curve = f.on_circle(radius, n_curve)[0]
    chords = np.abs(np.roll(curve, -1) - curve)
    move = _MOVE_SAFETY * np.maximum(np.roll(chords, 1), chords)
    brute = float(move.max())
    for i in range(n_curve):
        for j in range(i + 2, n_curve - (i == 0)):
            brute = min(brute, abs(curve[i] - curve[j]) - (move[i] + move[j]))
    assert margin == brute
    assert simple == (brute > 0)
    assert info["scanned_pairs"] > 0


def _circle_zeros(f, radius, n=2048):
    """_zeros_inside for h' = f_z from the circle samples the certificate takes."""
    fz, _ = f.on_circle(radius, n, values=False, partials=True)
    return _zeros_inside(fz, lambda w: f.partials(w)[0], radius)


@pytest.mark.parametrize("a,radius", [
    pytest.param([0.0, 1.0, 0.0, 0.6], 0.95, id="two-zeros-centroid-0"),
    pytest.param([0.0, 0.0, 1.0], 0.5, id="square"),
    pytest.param([0.0, 1.0, 0.3 - 0.2j, 0.25, -0.1j, 0.2], 0.9, id="quintic"),
    pytest.param([0.0, 1.0, 1e307], 0.5, id="huge"),
    pytest.param([0.0, 1.0, 0.1], 0.9, id="no-zero-inside"),
])
def test_hprime_zeros_match_the_roots(a, radius):
    # the exact zeros of the polynomial h' that lie inside the circle, each
    # located to rounding: h' vanishes there to 1e-12 of its scale
    f = HarmonicMap(a)
    exact = np.roots((np.arange(len(a)) * np.asarray(a, dtype=complex))[:0:-1])
    exact = exact[np.abs(exact) < radius]
    got = _circle_zeros(f, radius)
    assert len(got) == len(exact)
    if len(exact):
        gaps = np.abs(got[:, None] - exact[None, :])
        assert gaps.min(axis=0).max() < 1e-12 and gaps.min(axis=1).max() < 1e-12
    scale = np.abs(f.partials(np.array([radius]))[0]).max()
    assert np.abs(f.partials(got)[0]).max(initial=0.0) < 1e-12 * scale


def test_classical_hprime_zero_is_r0():
    f, cl = build_classical(2.0, 400), classical_landau(2.0)
    (p,) = _circle_zeros(f, 1.05 * cl.r0)
    assert abs(p - cl.r0) < 1e-14


def _nine_query_cell_pairs(values, cell):
    """Reference: the cell join with one searchsorted query per neighbour cell."""
    kx = np.floor(values.real / cell).astype(np.int64)
    ky = np.floor(values.imag / cell).astype(np.int64)
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
        hi = max(lo + 1, int(np.searchsorted(done, base + oracles._PAIR_CHUNK, side="right")))
        runs = count[lo:hi].ravel()
        i = np.repeat(np.arange(lo, hi), per_point[lo:hi])
        j = members[np.repeat(first[lo:hi].ravel() - (np.cumsum(runs) - runs), runs)
                    + np.arange(done[hi - 1] - base)]
        keep = j > i
        yield i[keep], j[keep]
        lo = hi


def _cell_join_cases():
    rng = np.random.default_rng(7)
    for n, cell in ((1, 0.1), (2, 0.5), (17, 0.3), (500, 0.05), (4000, 0.02), (20_000, 0.01)):
        yield rng.random(n) + 1j * rng.random(n), cell
    yield 1e-3 * (rng.random(800) + 1j * rng.random(800)), 1.0  # one cell, 319,600 pairs
    yield rng.random(20_000) + 1j * rng.random(20_000), 0.04  # ~2.7e6 pairs
    radius = 1.05 * classical_landau(2.0).r0
    curve = np.asarray(build_classical(2.0, 400).eval(radius * np.exp(2j * np.pi * np.arange(1024) / 1024)))
    chords = np.abs(np.roll(curve, -1) - curve)
    yield curve, 3.0 * float((_MOVE_SAFETY * np.maximum(np.roll(chords, 1), chords)).max())
    # a row of 8 points across `columns` unit cells has a key range of
    # 3 * columns + 6: the widest row the prefix-count table takes, then
    # the narrowest that goes to searchsorted
    widest = (8 * oracles._TABLE_SPAN - 6) // 3
    for columns in (widest, widest + 1):
        yield np.linspace(0.5, columns - 0.5, 8) + 0.5j, 1.0


def test_cell_join_matches_the_nine_query_reference():
    chunk_counts = []
    for values, cell in _cell_join_cases():
        got = list(oracles._cell_pairs(values, cell))
        want = list(_nine_query_cell_pairs(values, cell))
        assert len(got) == len(want)
        for (i, j), (ri, rj) in zip(got, want):
            assert np.array_equal(i, ri) and np.array_equal(j, rj)
        chunk_counts.append(len(got))
    assert chunk_counts[6] > 1 and chunk_counts[7] > 10


def _probe_candidates(monkeypatch, f, radius):
    """The verdict of univalence_probe and the candidate arrays it polished."""
    seen = []

    def recording(f, z1, z2, radius):
        seen.append((z1.copy(), z2.copy()))
        return _polish_collisions(f, z1, z2, radius)

    monkeypatch.setattr(oracles, "_polish_collisions", recording)
    verdict = univalence_probe(f, radius)
    (z1, z2), = seen
    return verdict, z1, z2


def _seed_fan(radius):
    """32 seed-shaped pairs p +- t e^{i phi} for the classical map at M = 2, in 16 directions each.

    The middle 16 centre on its critical point r0, where the seeded path
    centres its pair, with t = |radius - r0| / 4; the 8 before and after
    centre on 0.5i radius, where the map is injective, so none of them
    converges.
    """
    r0 = classical_landau(2.0).r0
    spin = np.exp(1j * np.pi * np.arange(16) / 16)
    centres = np.concatenate([np.full(8, 0.5j * radius), np.full(16, r0), np.full(8, 0.5j * radius)])
    steps = np.concatenate([0.25 * radius * spin[:8], 0.25 * abs(radius - r0) * spin, 0.25 * radius * spin[8:]])
    return centres + steps, centres - steps


def _solo_polishes(f, z1, z2, radius):
    """Each candidate polished in a batch of its own, lazily, one row per candidate."""
    for k in range(len(z1)):
        yield tuple(out[0] for out in _polish_collisions(f, z1[k:k + 1], z2[k:k + 1], radius))


def _batch_polishes(f, z1, z2, radius):
    """Every candidate polished in one batch with all the candidates after it."""
    rows, k = [], 0
    while k < len(z1):
        out = _polish_collisions(f, z1[k:], z2[k:], radius)
        rows += zip(*out)
        k += len(out[0])
    return rows


def _count_horner(monkeypatch):
    """A list that grows by one for every Horner pass from here on."""
    calls = []
    horner = seriescore._horner

    def counting(coeffs, z):
        calls.append(np.size(z))
        return horner(coeffs, z)

    monkeypatch.setattr(seriescore, "_horner", counting)
    return calls


def test_polish_work_count_of_a_sharp_certificate(monkeypatch):
    # counts Horner passes, not time: the scalar per-candidate polish made
    # about 6,400 of them on this probe, and the certificate's circles are
    # now each one inverse DFT, so a certified probe makes none
    calls = _count_horner(monkeypatch)
    f = build_classical(2.0, 400)
    v = univalence_probe(f, 0.99 * classical_landau(2.0).r0)
    assert v.status == CERTIFIED
    assert "candidate_pairs" not in v.resolution
    assert len(calls) == 0


def test_certified_coverage_makes_no_horner_pass(monkeypatch):
    calls = _count_horner(monkeypatch)
    cl = classical_landau(2.0)
    v = coverage_probe(build_classical(2.0, 400), 0.99 * cl.r0, 0.99 * cl.R0)
    assert v.status == CERTIFIED
    assert len(calls) == 0


def test_refutation_makes_horner_passes_for_the_seeds_and_polish_only(monkeypatch):
    calls = _count_horner(monkeypatch)
    f = build_classical(2.0, 400)
    v = univalence_probe(f, 1.05 * classical_landau(2.0).r0)
    assert v.status == REFUTED and v.resolution["seeds"] == 1
    # the circle samples come from DFTs; the secant steps on the zero of h',
    # the Jacobian signs at the fold's ends and the polish of the one seed
    # evaluate at most two points at a time, and under a hundred in all
    assert calls and max(calls) <= 2 and sum(calls) < 100


def test_refutation_polish_runs_horner_to_the_effective_degree(monkeypatch):
    # the witnesses lie within |z| <= 0.29, where the series needs about 21
    # of its 401 coefficients
    lengths = []
    horner = seriescore._horner

    def counting(coeffs, z):
        lengths.append(coeffs.size)
        return horner(coeffs, z)

    monkeypatch.setattr(seriescore, "_horner", counting)
    v = univalence_probe(build_classical(2.0, 400), 1.05 * classical_landau(2.0).r0)
    assert v.status == REFUTED
    assert lengths and max(lengths) <= 32


def test_hprime_zero_on_the_circle_stops_without_refining_to_the_cap():
    # h' = 1 - 2 e^{-i} z vanishes at 0.5 e^{i}, on the circle and between
    # samples: no resolution within the cap meets the chord precondition,
    # so the certificate gives up at the first resolution that shows it
    f = HarmonicMap([0.0, 1.0, -np.exp(-1j)])
    reason, keys, _ = oracles._jacobian_certificate(f, 0.5, 1024)
    assert reason == "winding preconditions for the zeros of h' = f_z unmet at this resolution"
    assert keys["hprime_points"] == 1024


@pytest.mark.parametrize("factor", [0.99, 1.05])
def test_polish_does_not_depend_on_the_batch(factor):
    f = build_classical(2.0, 400)
    radius = factor * classical_landau(2.0).r0
    z1, z2 = _seed_fan(radius)
    solo = list(_solo_polishes(f, z1, z2, radius))
    batch = _batch_polishes(f, z1, z2, radius)
    assert batch == solo  # rows of z1, z2, ok, residual, separation
    # inside r0 nothing collides; beyond it every pair about r0 converges
    assert [row[2] for row in solo] == [False] * 8 + [factor > 1.0] * 16 + [False] * 8


def _scalar_polish(f, z1, z2, radius):
    """Reference: the damped Gauss-Newton polish of one pair, in scalar steps."""
    cap = radius * (1.0 - 1e-12)
    for _ in range(80):
        resid = f.eval(z1) - f.eval(z2)
        if abs(resid) < 1e-13:
            break
        fz1, fzb1 = f.partials(z1)
        fz2, fzb2 = f.partials(z2)
        cols = (fz1 + fzb1, 1j * (fz1 - fzb1), -(fz2 + fzb2), -1j * (fz2 - fzb2))
        jac = np.array([[c.real for c in cols], [c.imag for c in cols]])
        step, *_ = np.linalg.lstsq(jac, [-resid.real, -resid.imag], rcond=None)
        for k in range(12):
            w1 = z1 + 0.5**k * complex(step[0], step[1])
            w2 = z2 + 0.5**k * complex(step[2], step[3])
            w1 *= min(1.0, cap / abs(w1))
            w2 *= min(1.0, cap / abs(w2))
            if abs(f.eval(w1) - f.eval(w2)) < abs(resid):
                break
        else:
            break
        z1, z2 = w1, w2
        if abs(z1 - z2) < 1e-7:
            break
    resid = abs(f.eval(z1) - f.eval(z2))
    ok = resid < 1e-12 and abs(z1 - z2) > 1e-6 and max(abs(z1), abs(z2)) <= radius + 1e-15
    return z1, z2, ok


@pytest.mark.parametrize("factor,count", [(0.99, 16), (1.05, 64)])
def test_polish_matches_the_scalar_reference(factor, count):
    # array and scalar complex arithmetic differ in the last ulp, so the
    # polished points agree to a tolerance and the convergence flags exactly
    f = build_classical(2.0, 400)
    radius = factor * classical_landau(2.0).r0
    z1, z2 = _seed_fan(radius)
    flags = []
    for got, (a, b) in zip(_solo_polishes(f, z1[:count], z2[:count], radius), zip(z1, z2)):
        w1, w2, ok = _scalar_polish(f, complex(a), complex(b), radius)
        assert abs(got[0] - w1) < 1e-12 and abs(got[1] - w2) < 1e-12
        assert got[2] == ok
        flags.append(ok)
    assert any(flags) == (factor > 1.0) and not all(flags[:count])


@pytest.mark.parametrize("M", [1.5, 2.0, 3.0, 5.0])
def test_refutation_witness_is_the_first_converging_candidate(monkeypatch, M):
    f = build_classical(M, 400)
    radius = 1.05 * classical_landau(M).r0
    v, z1, z2 = _probe_candidates(monkeypatch, f, radius)
    assert v.status == REFUTED
    # the first seed centres on the zero r0 of h'
    assert len(z1) == v.resolution["seeds"] >= 1
    assert abs(0.5 * (z1[0] + z2[0]) - classical_landau(M).r0) < 1e-14
    first = next(row for row in _solo_polishes(f, z1, z2, radius) if row[2])
    w1, w2 = v.witness
    assert (w1, w2) == (first[0], first[1])
    assert v.resolution["collision_residual"] == first[3]
    assert v.resolution["witness_separation"] == first[4] == -v.margin
    gap = float(abs(f.eval_hp(w1, dps=50) - f.eval_hp(w2, dps=50)))
    assert gap <= 1e-10
    assert abs(w1 - w2) >= 1e-6
    assert max(abs(w1), abs(w2)) <= radius
    # the polish keeps the pair about the critical point it was seeded on
    assert v.resolution["hprime_zeros"] == 1
    assert abs(0.5 * (w1 + w2) - classical_landau(M).r0) < 0.1 * abs(w1 - w2)


# pairs for z^2: one that never converges (slow), one that converges after a
# few steps, one that converges at once, and one that collapses to the diagonal
_SQUARE_PAIRS = [(0.6j, 0.1), (0.5 + 0.1j, -0.2 + 0.3j), (0.3 + 0.1j, -0.299999 - 0.1j), (0.4, 0.4 + 1e-9)]


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 3, 1, 2), (1, 2, 0, 3), (3, 0, 2, 1), (2, 1, 3, 0)])
def test_batch_polish_stops_at_the_first_converging_pair(order):
    z1 = np.array([_SQUARE_PAIRS[k][0] for k in order], dtype=complex)
    z2 = np.array([_SQUARE_PAIRS[k][1] for k in order], dtype=complex)
    solo = list(_solo_polishes(SQUARE, z1, z2, 0.9))
    first = next(k for k, row in enumerate(solo) if row[2])
    out = _polish_collisions(SQUARE, z1, z2, 0.9)
    assert list(zip(*out)) == solo[: first + 1]


class TestOracleVerdict:
    def test_json_witness_forms(self):
        pair = OracleVerdict(REFUTED, margin=-0.1, witness=(0.1 + 0.2j, -0.1 - 0.2j))
        d = pair.to_json_dict()
        assert d["witness"] == [[0.1, 0.2], [-0.1, -0.2]]
        single = OracleVerdict(REFUTED, margin=-0.1, witness=0.3j)
        assert single.to_json_dict()["witness"] == [0.0, 0.3]
        none = OracleVerdict(CERTIFIED, margin=0.5)
        assert none.to_json_dict()["witness"] is None

    def test_numpy_scalars_are_itemized(self):
        v = OracleVerdict(CERTIFIED, margin=0.5,
                          resolution={"count": np.int64(3), "gap": np.float64(0.25)})
        d = v.to_json_dict()
        assert type(d["resolution"]["count"]) is int
        assert type(d["resolution"]["gap"]) is float
        json.dumps(d)  # round-trips without a custom encoder


def _strict_json_probes():
    """(id, map, radius, rho): the fixtures, the extremal probes at the paper's radii, random maps."""
    yield "identity", IDENTITY, 0.9, 0.5
    yield "square", SQUARE, 0.9, 0.5
    yield "fold", HarmonicMap([0.0, 1.0], [0.0, 0.75]), 0.9, 0.5
    yield "conj", HarmonicMap([0.0], [1.0]), 0.9, 0.5
    yield "overflowing", OVERFLOWING, 0.9, 0.1
    yield "huge-jacobian", HarmonicMap([0.0, 1e200, 1e200]), 0.5, 0.1
    yield "huge-finite", HarmonicMap([0.0, 1.0, 1e307]), 0.5, 0.1
    for m in (1.5, 2.0, 3.0, 5.0):
        f, cl = build_classical(m, 400), classical_landau(m)
        for factor in (0.99, 1.05):
            yield f"classical-{m:g}-{factor:g}", f, factor * cl.r0, 0.99 * cl.R0
    for n in (2, 3, 5, 8):
        for lam in (1.5, 2.0, 5.0):
            res = landau(EllipticityParams(1.0, 0.0), DistortionBound(lam))
            yield f"Fn-{n}-{lam:g}", build_Fn(n, lam, 128), res.r1 * (1 - 1e-6), res.sigma1 * (1 - 1e-3)
    for seed, (k, kp, lam) in enumerate(((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))):
        res = landau(EllipticityParams(k, kp), DistortionBound(lam))
        f = random_elliptic(EllipticityParams(k, kp), lam, seed)
        yield f"random-{seed}", f, res.r1 * (1 - 1e-6), res.sigma1 * (1 - 1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_verdict_is_strict_json():
    # the Jacobian product of 1e200 (z + z^2) overflows although its values
    # and stretches stay finite; no key may record inf or nan
    for name, f, radius, rho in _strict_json_probes():
        for v in (univalence_probe(f, radius), coverage_probe(f, radius, rho)):
            json.dumps(v.to_json_dict(), allow_nan=False)
            assert "jacobian_min" not in v.resolution, name


def _certificate_cases():
    res = landau(EllipticityParams(1.0, 0.0), DistortionBound(2.0))
    for n in range(2, 7):
        yield f"F_{n}", build_Fn(n, 2.0, 128), res.r1 * (1 - 1e-6), None
    for m in (1.5, 2.0, 3.0, 5.0):
        r0 = classical_landau(m).r0
        for factor in (0.99, 1.05):
            yield f"classical-{m:g}-{factor:g}", build_classical(m, 400), factor * r0, r0
    params = EllipticityParams(2.0, 0.5)
    r1 = landau(params, DistortionBound(1.5)).r1
    for seed in range(8):
        yield f"random-elliptic-{seed}", random_elliptic(params, 1.5, seed), r1, None
    # unconstrained harmonic polynomials, some of them sense-reversing near the rim
    for seed in range(16):
        rng = np.random.default_rng(seed)
        coeffs = [(rng.standard_normal(5) + 1j * rng.standard_normal(5)) * 0.3 / np.arange(1, 6) ** 2
                  for _ in range(2)]
        yield f"harmonic-{seed}", HarmonicMap([0.0, 1.0, *coeffs[0][1:]], coeffs[1]), 0.9, None


@pytest.mark.parametrize("name,f,radius,critical", list(_certificate_cases()))
def test_jacobian_certificate_agrees_with_a_2d_reference(name, f, radius, critical):
    reference = grid_stretches(f, radius, 48, 192)[2].min() > 0
    _, keys, _ = oracles._jacobian_certificate(f, radius, oracles._UNIVALENCE_POINTS)
    certified = keys.get("hprime_zeros") == 0 and keys.get("dilatation_max", 1.0) < 1.0
    if critical is not None and critical < radius:
        # the classical h' = f' vanishes at r0 alone, so J = |h'|^2 is positive
        # at every grid sample and zero to rounding at r0: sampling cannot
        # decide J > 0 here, and the certificate counts that zero instead
        assert reference and not certified
        assert keys["hprime_zeros"] == 1
        assert abs(f.partials(critical)[0]) < 1e-12
    else:
        assert certified == reference


@pytest.mark.parametrize("f,radius,status", [
    pytest.param(IDENTITY, 0.9, CERTIFIED, id="identity"),
    pytest.param(HarmonicMap([0.0, 1.0], [0.5]), 0.9, CERTIFIED, id="affine"),
    pytest.param(build_classical(2.0, 400), 0.99 * classical_landau(2.0).r0, CERTIFIED, id="classical"),
    pytest.param(build_Fn(3, 2.0, 128), landau(EllipticityParams(1.0, 0.0), DistortionBound(2.0)).r1,
                 CERTIFIED, id="F_3"),
    pytest.param(random_elliptic(EllipticityParams(2.0, 0.5), 1.5, 0),
                 landau(EllipticityParams(2.0, 0.5), DistortionBound(1.5)).r1, CERTIFIED, id="random"),
    pytest.param(build_classical(2.0, 400), 1.05 * classical_landau(2.0).r0, REFUTED, id="classical-beyond-r0"),
    pytest.param(SQUARE, 0.9, REFUTED, id="square"),
    pytest.param(SQUARE, 0.5, REFUTED, id="square-0.5"),
    pytest.param(HarmonicMap([0.0, 1.0], [0.0, 0.75]), 0.9, REFUTED, id="fold"),
    pytest.param(HarmonicMap([0.0, 1.0, 1.0, 1.0 / 3.0]), 0.95, REFUTED, id="curve-pair"),
    pytest.param(HarmonicMap([0.0], [1.0]), 0.9, INCONCLUSIVE, id="conj"),
    pytest.param(HarmonicMap([0.0, 1.0, -np.exp(-1j)]), 0.5, INCONCLUSIVE, id="hprime-zero-on-the-circle"),
])
def test_certified_probe_does_no_2d_work(monkeypatch, f, radius, status):
    # no probe samples a 2D grid, whatever its verdict (the library has none);
    # a certified one polishes nothing either
    def refuse(*args, **kwargs):
        raise AssertionError("a certified probe polished a collision")

    for module in (oracles, sampling):
        assert not hasattr(module, "polar_grid") and not hasattr(module, "sample_grid")
    if status == CERTIFIED:
        monkeypatch.setattr(oracles, "_polish_collisions", refuse)
    v = univalence_probe(f, radius)
    assert v.status == status
    if status == CERTIFIED:
        assert v.resolution["hprime_zeros"] == 0
    if status == REFUTED:
        w1, w2 = v.witness
        assert abs(f.eval(w1) - f.eval(w2)) < 1e-12 and abs(w1 - w2) > 1e-6


def test_winding_refinement_jumps_within_one_round(monkeypatch):
    # the chord precondition of h' needs about 6x the 1024 base points here;
    # one refinement jumps to 8192 instead of doubling three times
    monkeypatch.setattr(oracles, "_ROUNDS", 1)
    f = build_classical(2.0, 400)
    v = univalence_probe(f, 0.99 * classical_landau(2.0).r0)
    assert v.status == CERTIFIED
    assert v.resolution["hprime_points"] == 8192
    assert v.resolution["rounds_used"] == 1


def test_sense_reversing_fails_the_certificate_on_the_circle():
    v = univalence_probe(HarmonicMap([0.0], [1.0]), 0.9)
    assert v.status == INCONCLUSIVE
    assert "Jacobian" in v.resolution["reason"]
    assert "boundary circle" in v.resolution["reason"]
    # |f_zbar| < |f_z| fails, so no dilatation maximum is recorded; h' and g'
    # have no zeros and J < 0 everywhere, so nothing seeds a collision
    assert "dilatation_max" not in v.resolution
    assert v.resolution["seeds"] == 0


def _assert_confirmed(f, v, radius):
    """A refuted verdict's witness confirms: one image, two points apart, both inside.

    The images are taken to 50 digits beyond the map's scale, so that a gap
    of 1e-10 is resolved whatever the size of the coefficients.
    """
    assert v.status == REFUTED
    w1, w2 = v.witness
    scale = max(np.abs(f.analytic_coeffs).max(), np.abs(f.antianalytic_coeffs).max(initial=0.0))
    dps = 50 + max(0, math.ceil(math.log10(scale)))
    assert float(abs(f.eval_hp(w1, dps=dps) - f.eval_hp(w2, dps=dps))) <= 1e-10
    assert abs(w1 - w2) >= 1e-6
    assert max(abs(w1), abs(w2)) <= radius


def _seeds_of(f, radius):
    """The seed pairs and the certificate's keys of univalence_probe(f, radius)."""
    _, keys, circle = oracles._jacobian_certificate(f, radius, 1024)
    return _collision_seeds(f, radius, circle, None), keys


def test_seeded_witnesses_at_two_zeros_of_hprime():
    # h' = 1 + 1.8 z^2 vanishes at +-0.745i, whose centroid 0 is no zero
    f = HarmonicMap([0.0, 1.0, 0.0, 0.6])
    (z1, z2), keys = _seeds_of(f, 0.95)
    assert keys["hprime_zeros"] == 2
    centres = 0.5 * (z1 + z2)
    assert np.abs(np.sort(centres.imag[:2]) - np.array([-1.0, 1.0]) * np.sqrt(1.0 / 1.8)).max() < 1e-14
    v = univalence_probe(f, 0.95)
    _assert_confirmed(f, v, 0.95)
    assert v.resolution["seeds"] == len(z1)


@pytest.mark.parametrize("b,fold", [
    # J = 1 - 2.25 |z|^2: negative on the circle, positive at the centre, zero on |z| = 2/3
    pytest.param([0.0, 0.75], lambda p: abs(abs(p) - 2.0 / 3.0), id="centre-end"),
    # g' = -1.5 + 3z: J < 0 on the circle and at 0, J > 0 only on |z - 0.5| < 1/3
    pytest.param([-1.5, 1.5], lambda p: abs(abs(p - 0.5) - 1.0 / 3.0), id="gprime-zero-end"),
])
def test_seeded_witness_at_a_fold(b, fold):
    f = HarmonicMap([0.0, 1.0], b)
    (z1, z2), keys = _seeds_of(f, 0.9)
    assert "dilatation_max" not in keys  # the certificate failed on the circle
    # three 64-way cuts of a bracket shorter than 2 land within 2 / 64^3 of the fold
    assert len(z1) == 1 and fold(0.5 * (z1[0] + z2[0])) < 2.0 / 64**3
    v = univalence_probe(f, 0.9)
    _assert_confirmed(f, v, 0.9)
    assert v.resolution["seeds"] == 1


def test_seeded_witness_from_the_curve_scan():
    # ((1+z)^3 - 1)/3 has J = |1+z|^4 > 0 on the closed disk, but its boundary
    # curve crosses itself near z = -0.95
    f = HarmonicMap([0.0, 1.0, 1.0, 1.0 / 3.0])
    v = univalence_probe(f, 0.95)
    _assert_confirmed(f, v, 0.95)
    assert v.resolution["hprime_zeros"] == 0 and v.resolution["dilatation_max"] == 0.0
    assert v.resolution["seeds"] == 1 and "worst_pair_theta" in v.resolution


def test_polish_gets_no_more_candidates_than_seeds(monkeypatch):
    # 1e200 (z + z^2): h' vanishes at -0.5, on the circle; nothing seeds a
    # collision, so nothing is polished
    seen = []

    def recording(f, z1, z2, radius):
        seen.append(len(z1))
        return _polish_collisions(f, z1, z2, radius)

    monkeypatch.setattr(oracles, "_polish_collisions", recording)
    v = univalence_probe(HarmonicMap([0.0, 1e200, 1e200]), 0.5)
    assert v.status == INCONCLUSIVE
    assert sum(seen) <= v.resolution["seeds"]
    assert "nonpositive Jacobian on the boundary circle" in v.resolution["reason"]


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_every_refuted_witness_confirms(degree, seed):
    rng = np.random.default_rng(seed)
    a, b = ((rng.standard_normal(degree) + 1j * rng.standard_normal(degree)) / np.arange(1, degree + 1)
            for _ in range(2))
    a[0] = 1.0
    f = HarmonicMap([0.0, *a], b)
    v = univalence_probe(f, 0.9)
    if v.status == REFUTED:
        _assert_confirmed(f, v, 0.9)


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
def test_coverage_refutes_only_with_a_positive_jacobian(rho):
    # f = z + 1.5 conj(z)^2 winds -2 about f(0) = 0: the winding counts the
    # preimage 0 with the sign of J there, so it cannot show 0 uncovered
    v = coverage_probe(HarmonicMap([0.0, 1.0], [0.0, 1.5]), 0.9, rho)
    assert v.status == INCONCLUSIVE
    assert v.witness is None and v.margin == 0.0
    assert v.resolution["reason"].startswith("a winding <= 0 shows an uncovered point only where J > 0")
    assert "nonpositive Jacobian on the boundary circle" in v.resolution["reason"]


def test_coverage_refutes_an_analytic_map_without_the_jacobian_certificate():
    # z^2 covers only |w| < 0.25 from |z| < 0.5, and its winding counts the
    # preimages of w with positive multiplicity although h' vanishes at 0
    f = HarmonicMap([0.0, 0.0, 1.0])
    assert oracles._jacobian_certificate(f, 0.5, 1024)[0]
    v = coverage_probe(f, 0.5, 0.3)
    assert v.status == REFUTED
    assert 0.25 < abs(v.witness) <= 0.3
    wind, valid = _winding(f, 0.5, v.witness)
    assert valid and wind == v.resolution["winding_at_witness"] <= 0


@pytest.mark.parametrize("f,radius,rho", [
    pytest.param(IDENTITY, 0.5, 0.5, id="identity-on-the-target-circle"),
    pytest.param(HarmonicMap([0.0, 1.0, 0.0, 0.6]), 0.95, 0.5, id="folded-curve"),
])
def test_coverage_stops_when_refinement_cannot_help(f, radius, rho):
    # a net point lies within half a chord of the samples, so it may lie on
    # the curve itself: no resolution within the cap meets its precondition
    v = coverage_probe(f, radius, rho)
    assert v.status == INCONCLUSIVE
    assert v.resolution["rounds_used"] == 0 and v.resolution["curve_points"] == 2048
    assert v.resolution["reason"] == "winding preconditions unmet near the curve at this resolution"

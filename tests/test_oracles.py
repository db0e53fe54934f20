"""Probe oracles: verdict semantics, witnesses, winding numbers."""

import json

import numpy as np
import pytest

from elliptica import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    BlochRescaledMap,
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    MeshPrecisionError,
    OracleVerdict,
    SamplingSpec,
    build_classical,
    build_Fn,
    classical_landau,
    coverage_probe,
    disk_net,
    distortion_arrays,
    landau,
    polar_grid,
    random_elliptic,
    univalence_probe,
    winding_number,
)
from elliptica import oracles, seriescore
from elliptica.oracles import _MOVE_SAFETY, _curve_scan, _near_pairs, _polish_collisions
from elliptica.sampling import sample_grid

IDENTITY = HarmonicMap.identity()
SQUARE = HarmonicMap([0.0, 0.0, 1.0])  # z^2, the canonical non-injective map


class TestUnivalenceProbe:
    def test_identity_certified(self):
        v = univalence_probe(IDENTITY, 0.9)
        assert v.status == CERTIFIED
        assert bool(v)
        assert v.margin > 0
        assert v.resolution["hprime_zeros"] == 0
        assert 0 <= v.resolution["dilatation_max"] < 1

    def test_square_refuted_with_antipodal_witness(self):
        v = univalence_probe(SQUARE, 0.9)
        assert v.status == REFUTED
        assert not bool(v)
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
        v = univalence_probe(SQUARE, 0.5, SamplingSpec(16, 64, 1))
        assert v.status == REFUTED
        for key in ("mesh", "sep_threshold", "image_threshold", "sup_lambda",
                    "candidate_pairs"):
            assert key in v.resolution
        v = univalence_probe(IDENTITY, 0.5, SamplingSpec(16, 64, 1))
        assert v.status == CERTIFIED
        for key in ("hprime_zeros", "hprime_points", "dilatation_max"):
            assert key in v.resolution


class TestWindingNumber:
    def test_identity(self):
        assert winding_number(IDENTITY, 0.5, 0.0) == 1
        assert winding_number(IDENTITY, 0.5, 0.3 + 0.2j) == 1
        assert winding_number(IDENTITY, 0.5, 0.7) == 0

    def test_square_counts_preimages(self):
        assert winding_number(SQUARE, 0.5, 0.0) == 2
        assert winding_number(SQUARE, 0.5, 0.1) == 2
        assert winding_number(SQUARE, 0.5, 0.5) == 0  # outside the image disk

    def test_mesh_precision_guard(self):
        # at the default 2048 points the chords (~1.5e-3) dwarf a tenth of
        # the 3e-3 standoff; 16384 points bring them under it
        with pytest.raises(MeshPrecisionError):
            winding_number(IDENTITY, 0.5, 0.503)
        assert winding_number(IDENTITY, 0.5, 0.503, n_theta=1 << 14) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            winding_number(IDENTITY, 1.0, 0.0)
        with pytest.raises(ValueError):
            winding_number(IDENTITY, 0.5, 0.0, n_theta=4)


def test_nonfinite_targets_are_usage_errors():
    # no refinement can place a curve around inf or nan, so neither oracle
    # may ask for one, and no winding sum may run on them
    fn2 = build_Fn(2, 2.0)
    calls = [lambda: winding_number(IDENTITY, 0.5, np.inf),
             lambda: winding_number(IDENTITY, 0.5, np.nan),
             lambda: coverage_probe(fn2, 0.3, np.nan),
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

    def test_huge_finite_map_still_refuted(self):
        # values and stretches stay finite (only the Jacobian product
        # overflows), so the collision witness still stands
        v = univalence_probe(HarmonicMap([0.0, 1.0, 1e307]), 0.5)
        assert v.status == REFUTED


def _gap_certified_cases():
    yield pytest.param(IDENTITY, 0.5, 0.45, id="identity")
    yield pytest.param(SQUARE, 0.5, 0.2, id="square")
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
        assert winding_number(f, radius, w, n_theta=n_curve) == v.resolution["winding_min"]


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
    _, curve = oracles.sample_circle(f, radius, n_curve)
    chords = np.abs(np.roll(curve, -1) - curve)
    move = _MOVE_SAFETY * np.maximum(np.roll(chords, 1), chords)
    brute = float(move.max())
    for i in range(n_curve):
        for j in range(i + 2, n_curve - (i == 0)):
            brute = min(brute, abs(curve[i] - curve[j]) - (move[i] + move[j]))
    assert margin == brute
    assert simple == (brute > 0)
    assert info["scanned_pairs"] > 0


def test_near_pairs_match_brute_force():
    radius = 0.9
    points = polar_grid(radius, 8, 32)
    images = np.asarray(SQUARE.eval(points))
    mesh = max(radius / 8, 2.0 * np.pi * radius / 32)
    eps_img, sep = 2.0 * radius * mesh / 4.0, 2.0 * mesh
    brute = sorted(
        (abs(images[i] - images[j]), i, j)
        for i in range(len(points)) for j in range(i + 1, len(points))
        if abs(images[i] - images[j]) <= eps_img and abs(points[i] - points[j]) > sep
    )
    pairs = _near_pairs(points, images, eps_img, sep)
    assert pairs == [(i, j) for _, i, j in brute]
    assert len(pairs) > 32  # antipodal samples of z^2 collide
    capped = _near_pairs(points, images, eps_img, sep, cap=5)
    assert len(capped) == 5 and set(capped) <= set(pairs)


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


def _refutation_candidates(monkeypatch, f, radius):
    """The verdict and the candidate arrays of the refutation path, run whatever the certificate says."""
    monkeypatch.setattr(oracles, "_jacobian_certificate", lambda *args: ("certificate withheld", {}))
    return _probe_candidates(monkeypatch, f, radius)


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


def test_refutation_grid_keeps_horner_for_the_polish_only(monkeypatch):
    calls = _count_horner(monkeypatch)
    f = build_classical(2.0, 400)
    v = univalence_probe(f, 1.05 * classical_landau(2.0).r0)
    assert v.status == REFUTED
    # the grid's 9217 points never go through Horner; polish batches are
    # at most two points per candidate pair
    assert calls and max(calls) <= 2 * 64


class Affine:
    """z + 0.5 conj(z) as a plain planar map: point evaluation only, no on_rings."""

    def eval(self, z):
        return z + 0.5 * np.conj(z)

    def partials(self, z):
        one = np.ones_like(z)
        return one, 0.5 * one


def test_sample_circle_dispatches_on_the_map():
    series = HarmonicMap([0.0, 1.0], [0.5])
    radii = np.array([0.0, 0.3, 0.6])
    theta, plain = oracles.sample_circle(Affine(), radii, 16)
    points = np.multiply.outer(radii, np.exp(1j * theta))
    assert np.array_equal(plain, Affine().eval(points))
    _, pair = oracles.sample_circle(Affine(), 0.6, 16, partials=True)
    assert np.array_equal(pair, np.stack(Affine().partials(points[2])))
    _, ring = oracles.sample_circle(series, radii, 16)
    assert np.abs(ring - plain).max() < 1e-15


@pytest.mark.parametrize("f", [Affine(), BlochRescaledMap(build_Fn(2, 2.0), 0.3 - 0.2j, 1.5)],
                         ids=["affine", "bloch-rescaled"])
def test_sample_grid_evaluates_other_maps_at_the_grid_points(f):
    points = polar_grid(0.9, 6, 40)
    assert np.array_equal(sample_grid(f, 0.9, 6, 40), f.eval(points))
    for got, want in zip(sample_grid(f, 0.9, 6, 40, partials=True), f.partials(points)):
        assert np.array_equal(got, want)


def test_point_evaluated_map_runs_both_probes():
    for f in (Affine(), HarmonicMap([0.0, 1.0], [0.5])):
        uni = univalence_probe(f, 0.9)
        assert uni.status == CERTIFIED and uni.resolution["hprime_zeros"] == 0
        # the image of |z| = 0.9 is an ellipse with semi-axes 1.35 and 0.45
        assert coverage_probe(f, 0.9, 0.4).status == CERTIFIED
        assert coverage_probe(f, 0.9, 0.5).status == REFUTED

    class PlainSquare:
        def eval(self, z):
            return z * z

        def partials(self, z):
            return 2 * z, np.zeros_like(z)

    # the refutation grid samples a point-evaluated map at its points too
    v = univalence_probe(PlainSquare(), 0.5)
    assert v.status == REFUTED
    w1, w2 = v.witness
    assert abs(w1 * w1 - w2 * w2) < 1e-12 and abs(w1 - w2) > 1e-6


def test_hprime_zero_on_the_circle_stops_without_refining_to_the_cap():
    # h' = 1 - 2 e^{-i} z vanishes at 0.5 e^{i}, on the circle and between
    # samples: no resolution within the cap meets the chord precondition,
    # so the certificate gives up at the first resolution that shows it
    f = HarmonicMap([0.0, 1.0, -np.exp(-1j)])
    reason, keys = oracles._jacobian_certificate(f, 0.5, 1024, 3)
    assert reason == "winding preconditions for the zeros of h' = f_z unmet at this resolution"
    assert keys["hprime_points"] == 1024


@pytest.mark.parametrize("factor", [0.99, 1.05])
def test_polish_does_not_depend_on_the_batch(monkeypatch, factor):
    f = build_classical(2.0, 400)
    radius = factor * classical_landau(2.0).r0
    v, z1, z2 = _refutation_candidates(monkeypatch, f, radius)
    assert len(z1) == 64
    assert v.resolution["candidate_pairs"] == (873 if factor < 1.0 else 2438)
    solo = list(_solo_polishes(f, z1, z2, radius))
    batch = _batch_polishes(f, z1, z2, radius)
    assert batch == solo  # rows of z1, z2, ok, residual, separation
    assert any(row[2] for row in solo) == (factor > 1.0)


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
def test_polish_matches_the_scalar_reference(monkeypatch, factor, count):
    # array and scalar complex arithmetic differ in the last ulp, so the
    # polished points agree to a tolerance and the convergence flags exactly
    f = build_classical(2.0, 400)
    radius = factor * classical_landau(2.0).r0
    _, z1, z2 = _refutation_candidates(monkeypatch, f, radius)
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
    first = next(row for row in _solo_polishes(f, z1, z2, radius) if row[2])
    w1, w2 = v.witness
    assert (w1, w2) == (first[0], first[1])
    assert v.resolution["collision_residual"] == first[3]
    assert v.resolution["witness_separation"] == first[4] == -v.margin
    gap = float(abs(f.eval_hp(w1, dps=50) - f.eval_hp(w2, dps=50)))
    assert gap <= 1e-10
    assert abs(w1 - w2) >= 1e-6
    assert max(abs(w1), abs(w2)) <= radius


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
    spec = SamplingSpec()
    reference = distortion_arrays(f, polar_grid(radius, spec.n_r, spec.n_theta))[2].min() > 0
    _, keys = oracles._jacobian_certificate(f, radius, max(1024, 4 * spec.n_theta), spec.refinement_rounds)
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


@pytest.mark.parametrize("f,radius", [
    pytest.param(IDENTITY, 0.9, id="identity"),
    pytest.param(build_classical(2.0, 400), 0.99 * classical_landau(2.0).r0, id="classical"),
    pytest.param(build_Fn(3, 2.0, 128), landau(EllipticityParams(1.0, 0.0), DistortionBound(2.0)).r1,
                 id="F_3"),
    pytest.param(random_elliptic(EllipticityParams(2.0, 0.5), 1.5, 0),
                 landau(EllipticityParams(2.0, 0.5), DistortionBound(1.5)).r1, id="random"),
])
def test_certified_probe_does_no_2d_work(monkeypatch, f, radius):
    def refuse(*args, **kwargs):
        raise AssertionError("a certified probe sampled the disk")

    for name in ("polar_grid", "_near_pairs", "_polish_collisions"):
        monkeypatch.setattr(oracles, name, refuse)
    v = univalence_probe(f, radius)
    assert v.status == CERTIFIED
    assert v.resolution["hprime_zeros"] == 0


def test_winding_refinement_jumps_within_one_round():
    # the chord precondition of h' needs about 6x the 1024 base points here;
    # one refinement jumps to 8192 instead of doubling three times
    f = build_classical(2.0, 400)
    v = univalence_probe(f, 0.99 * classical_landau(2.0).r0, SamplingSpec(refinement_rounds=1))
    assert v.status == CERTIFIED
    assert v.resolution["hprime_points"] == 8192
    assert v.resolution["rounds_used"] == 1


def test_sense_reversing_fails_the_certificate_on_the_circle():
    v = univalence_probe(HarmonicMap([0.0], [1.0]), 0.9)
    assert v.status == INCONCLUSIVE
    assert "Jacobian" in v.resolution["reason"]
    assert "boundary circle" in v.resolution["reason"]
    # |f_zbar| < |f_z| fails, so no dilatation maximum is recorded
    assert "dilatation_max" not in v.resolution
    assert v.resolution["candidate_pairs"] == 0

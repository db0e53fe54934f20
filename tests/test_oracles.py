"""Probe oracles: verdict semantics, witnesses, winding numbers."""

import json

import numpy as np
import pytest

from elliptica import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
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
    landau,
    polar_grid,
    random_elliptic,
    univalence_probe,
    winding_number,
)
from elliptica import oracles, seriescore
from elliptica.oracles import _MOVE_SAFETY, _curve_scan, _near_pairs, _polish_collisions

IDENTITY = HarmonicMap.identity()
SQUARE = HarmonicMap([0.0, 0.0, 1.0])  # z^2, the canonical non-injective map


class TestUnivalenceProbe:
    def test_identity_certified(self):
        v = univalence_probe(IDENTITY, 0.9)
        assert v.status == CERTIFIED
        assert bool(v)
        assert v.margin > 0
        assert v.resolution["jacobian_min"] > 0

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
        v = univalence_probe(IDENTITY, 0.5, SamplingSpec(16, 64, 1))
        for key in ("mesh", "sep_threshold", "image_threshold", "sup_lambda",
                    "candidate_pairs", "jacobian_min"):
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
    curve = np.asarray(f.eval(radius * np.exp(2j * np.pi * np.arange(n_curve) / n_curve)))
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


def test_polish_work_count_of_a_sharp_certificate(monkeypatch):
    # counts Horner passes, not time: the scalar per-candidate polish made
    # about 6,400 of them on this probe
    calls = 0
    horner = seriescore._horner

    def counting(coeffs, z):
        nonlocal calls
        calls += 1
        return horner(coeffs, z)

    f = build_classical(2.0, 400)
    monkeypatch.setattr(seriescore, "_horner", counting)
    v = univalence_probe(f, 0.99 * classical_landau(2.0).r0)
    assert v.status == CERTIFIED
    assert v.resolution["candidate_pairs"] == 873
    assert calls < 640


@pytest.mark.parametrize("factor", [0.99, 1.05])
def test_polish_does_not_depend_on_the_batch(monkeypatch, factor):
    f = build_classical(2.0, 400)
    radius = factor * classical_landau(2.0).r0
    _, z1, z2 = _probe_candidates(monkeypatch, f, radius)
    assert len(z1) == 64
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
    _, z1, z2 = _probe_candidates(monkeypatch, f, radius)
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

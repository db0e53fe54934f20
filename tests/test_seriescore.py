"""Series maps: evaluation, Wirtinger derivatives, tails, serialization."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    build_classical,
    build_Fn,
    growth_rate,
    random_elliptic,
)
from elliptica import seriescore
from elliptica.hypotheses import _TWIDDLE_ULPS, _dft_error

AFFINE = HarmonicMap([0.0, 1.0], [0.5])  # z + 0.5*conj(z)


def random_map(seed: int, degree: int = 6) -> HarmonicMap:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    b = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    return HarmonicMap(a, b)


small_complex = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)


class TestEval:
    def test_affine_closed_form(self):
        for z in (0.3, 0.2 - 0.5j, -0.7j):
            assert AFFINE.eval(z) == z + 0.5 * np.conj(z)

    def test_polynomial_closed_form(self):
        f = HarmonicMap([0.0, 1.0, 0.75, -0.25])
        z = 0.3
        assert f.eval(z) == pytest.approx(z + 0.75 * z**2 - 0.25 * z**3, abs=1e-16)

    def test_scalar_vs_array(self):
        f = random_map(0)
        zs = np.array([0.1, 0.2 + 0.3j, -0.5j])
        arr = f.eval(zs)
        assert arr.shape == zs.shape
        for k, z in enumerate(zs):
            assert f.eval(complex(z)) == arr[k]

    def test_domain_rejected(self):
        f = HarmonicMap.identity()
        with pytest.raises(ValueError):
            f.eval(1.0)
        with pytest.raises(ValueError):
            f.eval(np.array([0.5, 1.0 + 0j]))
        with pytest.raises(ValueError):
            f.partials(-1.2)
        with pytest.raises(ValueError):
            f.eval_hp(1.0 + 0j)

    @given(small_complex, small_complex)
    def test_linearity(self, z, w):
        f, g = random_map(1), random_map(2, degree=4)
        # the coefficient-wise sum, with g zero-padded from degree 4 to 6
        total = HarmonicMap(f.analytic_coeffs + np.pad(g.analytic_coeffs, (0, 2)),
                            f.antianalytic_coeffs + np.pad(g.antianalytic_coeffs, (0, 2)))
        lhs = total.eval(z)
        rhs = f.eval(z) + g.eval(z)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
        del w  # second draw keeps the strategy shared with other properties

    def test_eval_hp_matches_double(self):
        f = random_map(3)
        for z in (0.4, 0.3 + 0.4j, -0.6 + 0.1j):
            hp = f.eval_hp(z)
            assert abs(complex(hp) - f.eval(z)) < 1e-13


class TestPartials:
    def test_affine_exact(self):
        fz, fzb = AFFINE.partials(0.2 + 0.1j)
        assert fz == 1.0 and fzb == 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wirtinger_against_central_differences(self, seed):
        # df/dx = f_z + f_zb and df/dy = i (f_z - f_zb); solve for both
        f = random_map(seed)
        h = 1e-5
        for z in (0.1, 0.35 - 0.2j, -0.3 + 0.55j):
            dx = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
            dy = (f.eval(z + 1j * h) - f.eval(z - 1j * h)) / (2 * h)
            fd_fz = 0.5 * (dx - 1j * dy)
            fd_fzb = 0.5 * (dx + 1j * dy)
            fz, fzb = f.partials(z)
            assert abs(fz - fd_fz) <= 1e-6 * max(1.0, abs(fz))
            assert abs(fzb - fd_fzb) <= 1e-6 * max(1.0, abs(fzb))

    def test_vectorized(self):
        f = random_map(4)
        zs = np.array([0.2, 0.1 + 0.1j])
        fz, fzb = f.partials(zs)
        s0 = f.partials(complex(zs[0]))
        assert (fz[0], fzb[0]) == s0


def _ring_maps():
    yield "classical-2", build_classical(2.0, 400), 0.25
    yield "F_3", build_Fn(3, 2.0, n_terms=128), 0.5
    for seed, (k, kp, lam) in enumerate(((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))):
        yield f"random-{seed}", random_elliptic(EllipticityParams(k, kp), lam, seed), 0.6


class TestOnRings:
    """Circles summed by one inverse DFT agree with Horner at every sample."""

    @pytest.mark.parametrize("name,f,radius", [pytest.param(*case, id=case[0]) for case in _ring_maps()])
    def test_matches_horner_within_the_coefficient_sum(self, name, f, radius):
        eps = np.finfo(float).eps
        k = np.arange(f.truncation_degree + 1)
        moduli = np.abs(f.analytic_coeffs) + np.abs(f._b_full)
        radii = np.array([0.5 * radius, radius])
        # folded (n < N + 1) and unfolded (n >= N + 1) spectra
        for n in ((f.truncation_degree + 1) // 2, 2 * f.truncation_degree + 8):
            points = np.multiply.outer(radii, np.exp(2j * np.pi * np.arange(n) / n))
            values = f.on_rings(radii, n)
            fz, fzb = f.on_rings(radii, n, partials=True)
            assert values.shape == fz.shape == fzb.shape == (2, n)
            ref_fz, ref_fzb = f.partials(points)
            for row, r in enumerate(radii):
                value_sum = (moduli * r**k).sum()
                slope_sum = (k[1:] * moduli[1:] * r ** k[:-1]).sum()
                assert np.abs(values[row] - f.eval(points[row])).max() <= 64 * eps * value_sum
                assert np.abs(fz[row] - ref_fz[row]).max() <= 64 * eps * slope_sum
                assert np.abs(fzb[row] - ref_fzb[row]).max() <= 64 * eps * slope_sum

    def test_repeated_calls_are_bit_identical(self):
        f = build_classical(2.0, 400)
        radii = np.array([0.0, 0.1, 0.2])
        for partials in (False, True):
            first = np.asarray(f.on_rings(radii, 192, partials))
            assert np.array_equal(first, np.asarray(f.on_rings(radii, 192, partials)))

    def test_scalar_radius_and_centre(self):
        f = random_map(5)
        values = f.on_rings(0.0, 8)
        assert values.shape == (8,)
        assert np.allclose(values, f.analytic_coeffs[0], rtol=0, atol=1e-15)
        fz, fzb = f.on_rings(0.0, 4, partials=True)
        assert np.allclose(fz, f.analytic_coeffs[1], rtol=0, atol=1e-15)
        assert np.allclose(fzb, np.conj(f.antianalytic_coeffs[0]), rtol=0, atol=1e-15)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            HarmonicMap.identity().on_rings([0.5, 1.0], 16)

    def test_spectra_are_bit_identical_to_the_padded_fold(self):
        def folded(coeffs, powers, n):
            rows = powers.shape[:-1]
            scaled = coeffs * powers[..., : coeffs.size]
            pad = np.zeros(rows + (-coeffs.size % n,), dtype=complex)
            return np.concatenate([scaled, pad], axis=-1).reshape(rows + (-1, n)).sum(axis=-2)

        def same(got, want):
            got, want = np.asarray(got), np.asarray(want)
            return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

        rng = np.random.default_rng(18)
        for degree in (1, 5, 19, 40):
            a, b = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for size in (degree + 1, degree))
            for c in (a, b):
                # signed zeros, which a sum from 0 turns into +0
                c[rng.random(c.size) < 0.3] = complex(-0.0, -0.0)
                c.imag[rng.random(c.size) < 0.3] = -0.0
            f = HarmonicMap(a, b)
            for radii in (0.6, np.array([0.0, 0.35, 0.9])):
                powers = np.power(np.asarray(radii)[..., None], np.arange(degree + 1))
                # folded (n < N + 1) and unfolded (n >= N + 1) spectra, one sample included
                for n in sorted({1, max(1, degree // 2), degree, degree + 1, degree + 2, 2 * degree + 3}):
                    for c in f._series:
                        assert same(seriescore._ring_spectrum(c, powers, n), folded(c, powers, n))
                    g = folded(np.conj(f._b_full), powers, n)[..., -np.arange(n) % n]
                    values = np.fft.ifft(folded(f.analytic_coeffs, powers, n) + g, norm="forward")
                    hp, gp = (np.fft.ifft(folded(c, powers, n), norm="forward") for c in f._series[2:])
                    assert same(f.on_rings(radii, n), values)
                    assert same(f.on_rings(radii, n, partials=True), (hp, np.conj(gp)))


class TestDFTError:
    """The DFT error bound that the review's arcs add, measured against mpmath at the sizes in use."""

    SIZES = (256, 1024, 4096, 16384, 65536)

    @staticmethod
    def _roots(n):
        """e^{2 pi i m/n}, m < n, as double-double pairs (hi, lo), from a quarter circle of cospi."""
        quarter = n // 4
        with mpmath.workdps(30):
            exact = [mpmath.cospi(mpmath.mpf(2 * m) / n) for m in range(quarter + 1)]
            hi = np.array([float(x) for x in exact])
            lo = np.array([float(x - h) for x, h in zip(exact, hi)])
        m = np.arange(quarter)
        # sin(2 pi m/n) = cos(2 pi (n/4 - m)/n), and each further quadrant is a
        # product by i, exact in floating point
        return tuple(np.concatenate([(part[m] + 1j * part[quarter - m]) * unit for unit in (1, 1j, -1, -1j)])
                     for part in (hi, lo))

    def test_impulse_responses_are_within_the_fft_bound(self):
        u = seriescore._UNIT_ROUNDOFF
        eta = _TWIDDLE_ULPS * u + seriescore._gamma(4) * (math.sqrt(2.0) + _TWIDDLE_ULPS * u)
        hi, lo = self._roots(max(self.SIZES))
        for n in self.SIZES:
            log_n = math.log2(n)
            step = max(self.SIZES) // n
            for k in (1, 3, n // 3, n // 2 - 1, n - 1):
                impulse = np.zeros(n, dtype=complex)
                impulse[k] = 1.0
                # the inverse DFT of e_k is e^{2 pi i jk/n}, a vector of 2-norm sqrt(n)
                at = (np.arange(n) * k % n) * step
                error = (np.fft.ifft(impulse, norm="forward") - hi[at]) - lo[at]
                assert np.linalg.norm(error) / math.sqrt(n) <= log_n * eta / (1.0 - log_n * eta)

    @pytest.mark.parametrize("degree,harmonic", [(8, False), (8, True), (400, False), (400, True)])
    def test_on_rings_is_within_the_dft_bound(self, degree, harmonic):
        rng = np.random.default_rng(degree + harmonic)
        a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        b = rng.standard_normal(degree) + 1j * rng.standard_normal(degree) if harmonic else np.zeros(degree)
        f, r = HarmonicMap(a, b), 0.999
        scale = float((np.abs(f.analytic_coeffs) + np.abs(f._b_full)) @ r ** np.arange(degree + 1))
        for n in self.SIZES if degree < 64 else self.SIZES[::2]:
            values = f.on_rings(r, n)
            # the samples Horner flags as worst, and two at random
            guess = np.abs(values - f.eval(r * np.exp(2j * np.pi * np.arange(n) / n)))
            picks = {*np.argsort(guess)[-3:].tolist(), *rng.integers(0, n, 2).tolist()}
            with mpmath.workdps(30):
                for j in picks:
                    z = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / n)
                    exact = mpmath.polyval(a[::-1].tolist(), z) + mpmath.conj(z * mpmath.polyval(b[::-1].tolist(), z))
                    assert float(abs(mpmath.mpc(values[j]) - exact)) <= _dft_error(n, degree) * scale


def _full_horner(coeffs, z):
    """Reference: Horner over every stored coefficient, highest degree first."""
    acc = np.zeros_like(z, dtype=complex) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _degree_maps():
    yield "classical-2", build_classical(2.0, 400)
    yield "F_3", build_Fn(3, 2.0, n_terms=128)
    for seed, (k, kp, lam) in enumerate(((2.0, 0.5, 1.5), (1.0, 0.0, 2.0))):
        yield f"random-{seed}", random_elliptic(EllipticityParams(k, kp), lam, seed)
    yield "random_map", random_map(6, degree=40)


class TestEffectiveDegree:
    """Horner runs each point only to the degree its modulus needs."""

    @pytest.mark.parametrize("name,f", [pytest.param(*case, id=case[0]) for case in _degree_maps()])
    def test_matches_full_degree_horner(self, name, f):
        eps = np.finfo(float).eps
        k = np.arange(f.truncation_degree + 1)
        moduli = np.abs(f.analytic_coeffs) + np.abs(f._b_full)
        radii = np.concatenate([[0.0], np.linspace(0.001, 0.999, 97)])
        z = radii * np.exp(1j * (0.3 + 2.4 * np.arange(radii.size)))
        values = f.eval(z)
        fz, fzb = f.partials(z)
        ref = _full_horner(f.analytic_coeffs, z) + np.conj(_full_horner(f._b_full, z))
        ref_fz = _full_horner(k[1:] * f.analytic_coeffs[1:], z)
        ref_fzb = np.conj(_full_horner(k[1:] * f._b_full[1:], z))
        value_sum = (moduli * np.abs(z)[:, None] ** k).sum(axis=1)
        slope_sum = (k[1:] * moduli[1:] * np.abs(z)[:, None] ** k[:-1]).sum(axis=1)
        assert (np.abs(values - ref) <= 64 * eps * value_sum).all()
        assert (np.abs(fz - ref_fz) <= 64 * eps * slope_sum).all()
        assert (np.abs(fzb - ref_fzb) <= 64 * eps * slope_sum).all()
        for m in range(0, radii.size, 12):
            assert abs(f.eval(complex(z[m])) - ref[m]) <= 64 * eps * value_sum[m]
            pair = f.partials(complex(z[m]))
            assert abs(pair[0] - ref_fz[m]) <= 64 * eps * slope_sum[m]
            assert abs(pair[1] - ref_fzb[m]) <= 64 * eps * slope_sum[m]

    def test_each_point_is_evaluated_alone(self):
        # the classical map's degrees grow with |z|, so this array spans many;
        # every value must be the one the point gets in an array of its own
        f = build_classical(2.0, 400)
        z = np.linspace(0.0, 0.99, 41) * np.exp(1j * np.arange(41))
        values = f.eval(z)
        fz, fzb = f.partials(z)
        for m in range(z.size):
            alone = z[m:m + 1]
            assert values[m] == f.eval(alone)[0]
            assert (fz[m], fzb[m]) == tuple(part[0] for part in f.partials(alone))

    def test_dropped_tail_is_negligible_at_the_point(self, monkeypatch):
        # radii on both sides of every ladder radius j/64, where a point
        # given the level below its own would drop too much
        f = build_classical(2.0, 400)
        kept = []
        horner = seriescore._horner

        def recording(coeffs, z):
            kept.append(coeffs.size)
            return horner(coeffs, z)

        monkeypatch.setattr(seriescore, "_horner", recording)
        with mpmath.workdps(40):
            moduli = [mpmath.mpf(abs(c)) for c in f.analytic_coeffs]
            for j in range(1, 64):
                for r in (np.nextafter(j / 64, 0.0), j / 64, np.nextafter(j / 64, 1.0)):
                    kept.clear()
                    f.eval(np.array([r]))
                    terms = [m * mpmath.mpf(r) ** k for k, m in enumerate(moduli)]
                    assert mpmath.fsum(terms[kept[0]:]) <= 2.0**-53 * mpmath.fsum(terms[:kept[0]])

    def test_ladders_are_lazy_and_small_where_the_series_decay(self):
        f = build_classical(2.0, 400)
        assert "_ladders" not in vars(f)
        f.eval(0.1)
        h, g, hp, gp = f._ladders
        assert g == gp == 0  # the classical map is analytic
        assert h[1] <= h[32] <= h[64] < 400
        # a degree-8 map needs its whole degree at every level
        assert random_elliptic(EllipticityParams(2.0, 0.5), 1.5, 0)._ladders[0] == 8

    def test_overflowing_sums_keep_the_full_degree(self):
        # warnings fail the suite, so building the ladder must raise none
        f = HarmonicMap([0.0, 1.0, 1.5e308, 1.5e308])
        assert f._ladders == [3, 0, 2, 0]


class TestCoefficients:
    def test_padding_and_access(self):
        f = HarmonicMap([1.0, 2.0], [3.0, 4.0, 5.0])
        assert f.truncation_degree == 3
        assert f.a_n(0) == 1.0 and f.a_n(1) == 2.0 and f.a_n(3) == 0.0
        assert f.b_n(1) == 3.0 and f.b_n(3) == 5.0
        assert f.a_n(99) == 0j and f.b_n(99) == 0j
        assert f.coeff_abs_sum(2) == abs(f.a_n(2)) + abs(f.b_n(2))

    def test_degree_bounds(self):
        f = HarmonicMap.identity()
        with pytest.raises(ValueError):
            f.a_n(-1)
        with pytest.raises(ValueError):
            f.b_n(0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            HarmonicMap([0.0, math.inf])
        with pytest.raises(ValueError):
            HarmonicMap([0.0, 1.0], [complex(0, math.nan)])

    def test_coeff_arrays_frozen(self):
        f = HarmonicMap.identity()
        with pytest.raises(ValueError):
            f.analytic_coeffs[1] = 7.0


# any value json.load can return (it accepts NaN and Infinity), plus records
# shaped enough to reach the HarmonicMap constructor
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.just(10**400)
                 | st.floats() | st.text(max_size=6))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_PAIRS = st.lists(st.lists(_JSON_SCALARS, min_size=2, max_size=2), max_size=4)
_RECORDS = st.fixed_dictionaries({
    "a": _PAIRS | _JSON,
    "b": _PAIRS | _JSON,
    "tail_bound": st.floats(0.0, 1.0) | _JSON_SCALARS,
    "r_ref": st.floats(0.0, 1.0) | _JSON_SCALARS,
})


class TestSerialization:
    def test_round_trip_exact(self):
        f = random_map(5)
        g = HarmonicMap.from_json_dict(f.to_json_dict())
        assert np.array_equal(f.analytic_coeffs, g.analytic_coeffs)
        assert np.array_equal(f.antianalytic_coeffs, g.antianalytic_coeffs)
        assert f.tail_bound == g.tail_bound
        assert f.eval(0.3 + 0.2j) == g.eval(0.3 + 0.2j)

    def test_save_load(self, tmp_path):
        f = random_map(6)
        path = tmp_path / "map.json"
        f.save(path)
        g = HarmonicMap.load(path)
        assert np.array_equal(f.analytic_coeffs, g.analytic_coeffs)
        # the on-disk form is plain JSON with [re, im] pairs
        raw = json.loads(path.read_text())
        assert set(raw) == {"a", "b", "tail_bound", "r_ref"}

    @pytest.mark.parametrize("record", [
        {},
        {"a": [[0, 0]], "b": []},                                  # missing fields
        {"a": [[0, 0], [1]], "b": [], "tail_bound": 0, "r_ref": 0.9},  # ragged pair
        {"a": [[0, 0]], "b": [], "tail_bound": "x", "r_ref": 0.9},
    ])
    def test_malformed_rejected(self, record):
        with pytest.raises(ValueError):
            HarmonicMap.from_json_dict(record)

    @pytest.mark.parametrize("field", ["a", "b", "tail_bound"])
    def test_oversized_number_rejected(self, field):
        record = {"a": [[0, 0], [1, 0]], "b": [], "tail_bound": 0, "r_ref": 0.9}
        huge = 10**400  # a float() of it overflows
        record[field] = huge if field == "tail_bound" else [[0, 0], [huge, 0]]
        with pytest.raises(ValueError, match="malformed harmonic-map record"):
            HarmonicMap.from_json_dict(record)

    @given(_JSON | _RECORDS)
    def test_any_json_value_loads_or_raises_value_error(self, data):
        try:
            f = HarmonicMap.from_json_dict(data)
        except ValueError:
            return
        assert isinstance(f, HarmonicMap)

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicMap([0, 1], tail_bound=-1.0)
        with pytest.raises(ValueError):
            HarmonicMap([0, 1], reference_radius=1.0)
        with pytest.raises(ValueError):
            HarmonicMap([[0, 1], [2, 3]])


class TestDerivedMaps:
    def test_remainder_lipschitz_under_growth_bound(self):
        # a map obeying the degreewise bound T/n has remainder derivative
        # at most sum_{n>=2} T r^{n-1} = T r/(1-r) on |z| <= r
        params, bound = EllipticityParams(1, 0), DistortionBound(2)
        T = growth_rate(params, bound)
        f = build_Fn(2, 2.0, n_terms=64)
        # the map with its affine data removed
        rem = HarmonicMap([0.0, 0.0, *f.analytic_coeffs[2:]])
        rng = np.random.default_rng(9)
        r = 0.7
        z1 = r * np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
        z2 = r * np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
        lip = T * r / (1 - r)
        gap = np.abs(rem.eval(z1) - rem.eval(z2))
        assert np.all(gap <= np.abs(z1 - z2) * lip * (1 + 1e-12) + 1e-15)

    def test_scale_output(self):
        f = random_map(12)
        g = f.scale_output(2j)
        z = 0.25 + 0.1j
        assert abs(g.eval(z) - 2j * f.eval(z)) < 1e-14
        assert g.tail_bound == 2 * f.tail_bound


class TestTails:
    def test_builder_tail_is_sound(self):
        # N-term build vs 2N-term build differ by less than the N-term tail
        small = build_Fn(2, 2.0, n_terms=12, r_ref=0.9)
        big = build_Fn(2, 2.0, n_terms=24, r_ref=0.9)
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        z = 0.9 * np.exp(1j * theta)
        gap = np.abs(small.eval(z) - big.eval(z))
        assert float(gap.max()) <= small.tail_bound

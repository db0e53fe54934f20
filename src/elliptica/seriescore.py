"""Truncated harmonic-map series.

A planar harmonic map f = h + conj(g) is its coefficients: those of its two
polynomials

    h(z) = a_0 + a_1 z + ... + a_N z^N,      g(z) = b_1 z + ... + b_N z^N,

and nothing else.  A map cut from an infinite series is that polynomial:
every review and probe covers the polynomial alone.  Maps are immutable; the
coefficient arrays are frozen at construction, so instances may be shared
freely across worker threads.

Scattered points are evaluated by a fixed-order Horner recurrence (from the
point's effective degree down to the constant).  Scalars and ndarrays run
the same recurrence, but a scalar's result may differ in the last bit from
the same point inside an array, since numpy's scalar complex arithmetic
rounds differently from its array loops.  Either way the error is at most
gamma_{2N} * sum_k |a_k| |z|^k per series
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
5.1).  The effective degree comes from a ladder of radii rho_j = j / L,
j = 1..L: for each of the four series h, g, h', g', K(rho_j) is the smallest
K whose dropped tail sum_{k>K} |c_k| rho_j^k is at most u = 2^-53 times the
kept sum_{k<=K} |c_k| rho_j^k.  That ratio is nondecreasing in rho, since
every tail exponent exceeds every head exponent, so K(rho_j) serves every
point with |z| <= rho_j, and a point with floor(|z| L) = j - 1 uses it.  The
dropped tail adds at most u * sum_k |c_k| |z|^k, and gamma_{2K} + u <=
gamma_{2N} for K < N, so the bound above holds unchanged.  The sums are
compared with a factor 1 +- gamma_{4N+8} on each side, covering the
rounding of the moduli, powers and sums and of |z| itself, and a power that
underflows counts as the smallest normal number.  The ladder is built on the
first Horner evaluation of a map and cached on it.  A series keeps its full
degree, which is always sound, when its sums are not finite or when its top
term is not negligible even at rho_1.
Circles |z| = r go through
:meth:`HarmonicMap.on_circle`, one inverse DFT of the coefficients scaled by
r^k, in O(n log n) rather than O(n N) per circle; its 2-norm error over a
circle of n samples is at most log2(n) * eta / (1 - log2(n) * eta) times the
2-norm of the values, with eta = mu + gamma_4 * (sqrt(2) + mu) and mu the
error of the computed roots of unity (Higham, section 24.1).  Both are
deterministic, so results are bit-reproducible for a given coefficient vector
and sample set.  Wirtinger derivatives come from the term-differentiated
series, never from finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["HarmonicMap"]


def _coeff_array(values, name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat coefficient sequence")
    if arr.size and not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
        raise ValueError(f"{name} must contain only finite coefficients")
    return arr


def _horner(coeffs: np.ndarray, z):
    # Scattered points only; circles go through _ring_spectrum and one DFT.
    # HarmonicMap passes each point's effective-degree prefix of a series (see
    # the module docstring).  The fixed order keeps each point's value
    # bit-reproducible and within the Horner bound of the module docstring,
    # so do not swap in a scheme with another reduction order, such as np.polyval.
    # A 2-D coeffs holds one series per column, summed at every z[..., None].
    acc = np.zeros_like(z, dtype=complex) + coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


# the ladder radii rho_j = j / _LADDER_LEVELS, j = 1.._LADDER_LEVELS
_LADDER_LEVELS = 64
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _derivatives(columns: np.ndarray, count: int) -> np.ndarray:
    """The coefficients of the first ``count`` derivatives of the series in columns, indexed by degree.

    Column j * width + i holds derivative j + 1 of column i, zero-padded to one degree fewer; huge inputs give inf.
    """
    rows, width = columns.shape
    out = np.zeros((rows - 1, count * width), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(count):
            columns = (np.arange(len(columns), dtype=complex)[:, None] * columns)[1:]
            out[: len(columns), j * width : (j + 1) * width] = columns
    return out


def _majorants(moduli: np.ndarray, radius) -> np.ndarray:
    """sum_k moduli[k] r^k per column of moduli, at r = radius or at each of an array of radii.

    A power that underflows counts as the smallest normal number, so that
    moduli |c_k| bound their series on |z| <= r; the caller rounds outward,
    and sets the error state under which a sum may overflow.
    """
    powers = np.power(np.asarray(radius)[..., None], np.arange(len(moduli)))
    return np.maximum(powers, 2.0**-1022, out=powers) @ moduli


def _ladder(coeffs: np.ndarray, powers: np.ndarray, upper: np.ndarray):
    """The degree ladder of one series (see the module docstring).

    One degree when it serves every level, else an int array whose entry j
    is the degree for the level j points (index 0 unused).  Row k of powers
    holds rho_j^k over the levels, and upper is powers bounded below by the
    smallest normal number, which bounds an underflowing power from above.
    """
    nonzero = np.flatnonzero(coeffs)
    top = int(nonzero[-1]) if nonzero.size else 0
    if top == 0:
        return 0
    moduli = np.abs(coeffs[: top + 1])[:, None]
    gamma = _gamma(4 * top + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        # the full degree is always sound; keep it at once when the top term
        # is not negligible even on the smallest radius
        if moduli[top, 0] * powers[top, 0] > _UNIT_ROUNDOFF * (moduli[:top, 0] @ powers[:top, 0]):
            return top
        head = moduli * powers[: top + 1]
        np.cumsum(head, axis=0, out=head)
        # tail[K] = sum_{k>K}, summed from the top down
        tail = moduli[:0:-1] * upper[top:0:-1]
        np.cumsum(tail, axis=0, out=tail)
        tail = tail[::-1]
        if not np.isfinite(head[-1] + tail[0]).all():
            return top
        # tail (1 + gamma) <= u (1 - gamma) head, with an absolute term for
        # products that land among the subnormals
        tail *= (1.0 + gamma) / (_UNIT_ROUNDOFF * (1.0 - gamma))
        tail += (top + 1) * 2.0**-1074
        fits = tail <= head[:-1]
    # fits holds from some K on (head grows, tail shrinks), so its False entries count the degree
    degrees = top - fits.sum(axis=0)
    return int(degrees[0]) if degrees[0] == degrees[-1] else np.concatenate([degrees[:1], degrees])


def _levels(z) -> np.ndarray:
    """The ladder level floor(|z| L) + 1 of each point; |z| < 1 keeps it at most L."""
    z = np.asarray(z)
    return (np.sqrt(z.real * z.real + z.imag * z.imag) * _LADDER_LEVELS).astype(np.int64) + 1


def _ring_spectrum(coeffs: np.ndarray, powers: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Add c_k = coeffs[k] r^k, with powers[k] = r^k, into out at frequencies k mod n.

    Folding is exact aliasing: e^{ik theta} and e^{i(k mod n) theta} agree on
    the n angles 2 pi j / n, so the n-point inverse DFT of the folded row is
    sum_k c_k e^{ik theta_j}.  out defaults to a new row of zeros, and is
    returned.  Only a series of more than n terms is folded, by summing its
    zero-padded rows of n; a shorter one is added into out as it is.  Either
    way each entry is 0 plus its terms in the same order, so a -0 term comes
    out +0 and the bits do not depend on the path.
    """
    if out is None:
        out = np.zeros(n, dtype=complex)
    scaled = coeffs * powers[: coeffs.size]
    if coeffs.size <= n:
        out[: coeffs.size] += scaled
    else:
        pad = np.zeros(-coeffs.size % n, dtype=complex)
        out += np.concatenate([scaled, pad]).reshape(-1, n).sum(axis=0)
    return out


@dataclass(frozen=True, eq=False)
class HarmonicMap:
    """Immutable truncated harmonic map h + conj(g) on the unit disk.

    analytic_coeffs lists a_0..a_N; antianalytic_coeffs lists b_1..b_N (the
    degree-1-based convention of the on-disk format).  Shorter inputs are
    zero-padded to a common truncation degree N >= 1.  A map memoizes what
    depends on its coefficients alone: its degree ladders, and the certified
    hypothesis reviews of :mod:`elliptica.hypotheses`, one per (K, K',
    Lambda, tol).  Neither is computed before its first use, and both are
    freed with the map.
    """

    analytic_coeffs: np.ndarray = field(repr=False)
    antianalytic_coeffs: np.ndarray = field(default=(), repr=False)
    truncation_degree: int = field(init=False)

    def __post_init__(self) -> None:
        a = _coeff_array(self.analytic_coeffs, "analytic_coeffs")
        b1 = _coeff_array(self.antianalytic_coeffs, "antianalytic_coeffs")
        n = max(a.size - 1, b1.size, 1)
        # h and g zero-padded to degree n, one row each, indexed by degree (b_0 = 0)
        series = np.zeros((2, n + 1), dtype=complex)
        series[0, : a.size], series[1, 1 : b1.size + 1] = a, b1
        (a, b_full), (hp, gp) = series, _derivatives(series.T, 1).T
        for name, value in (
            ("analytic_coeffs", a),
            ("antianalytic_coeffs", b_full[1:]),
            ("_b_full", b_full),
            ("_series", (a, b_full, hp, gp)),
            ("truncation_degree", n),
        ):
            object.__setattr__(self, name, value)
        for arr in (a, self.antianalytic_coeffs, b_full, hp, gp):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls) -> "HarmonicMap":
        return cls([0.0, 1.0], [])

    @classmethod
    def from_json_dict(cls, data: dict) -> "HarmonicMap":
        """The map of a record {"a": [[re, im], ...], "b": [[re, im], ...]}.

        Older records also hold "tail_bound" and "r_ref", a tail model that
        no check ever read; those keys, like any other, are ignored.
        """
        try:
            a = [complex(re, im) for re, im in data["a"]]
            b = [complex(re, im) for re, im in data["b"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed harmonic-map record: {exc}") from exc
        return cls(a, b)

    @classmethod
    def load(cls, path) -> "HarmonicMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            "a": [[float(c.real), float(c.imag)] for c in self.analytic_coeffs],
            "b": [[float(c.real), float(c.imag)] for c in self.antianalytic_coeffs],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    # ------------------------------------------------------------------
    # coefficient access
    # ------------------------------------------------------------------

    def a_n(self, n: int) -> complex:
        if n < 0:
            raise ValueError("degree must be >= 0")
        return complex(self.analytic_coeffs[n]) if n <= self.truncation_degree else 0j

    def b_n(self, n: int) -> complex:
        if n < 1:
            raise ValueError("degree must be >= 1")
        return complex(self._b_full[n]) if n <= self.truncation_degree else 0j

    def coeff_abs_sum(self, n: int) -> float:
        """|a_n| + |b_n|, the quantity the growth bound caps for n >= 2."""
        return abs(self.a_n(n)) + (abs(self.b_n(n)) if n >= 1 else 0.0)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    @property
    def is_analytic(self) -> bool:
        """True when g = 0, so that f = h."""
        return not self.antianalytic_coeffs.any()

    def horner_bound(self, z) -> np.ndarray:
        """Bound on the rounding error of ``eval`` at each z (module docstring).

        That error is at most gamma_{2N} sum_k (|a_k| + |b_k|) |z|^k, the
        ``_majorants`` sum; the factor gamma_{4N+8} also covers the rounding
        of the sum itself, of |z|, and of h + conj(g).
        """
        moduli = np.abs(self.analytic_coeffs) + np.abs(self._b_full)
        with np.errstate(over="ignore", invalid="ignore"):
            return _gamma(4 * self.truncation_degree + 8) * _majorants(moduli, np.abs(z))

    def _check_domain(self, z) -> None:
        if np.any(np.abs(z) >= 1.0):
            raise ValueError("evaluation requires |z| < 1")

    @cached_property
    def _ladders(self) -> list:
        """Degree ladders of h, g, h', g' (see the module docstring), built on first use."""
        degrees = np.arange(self.truncation_degree + 1)[:, None]
        powers = np.power(np.arange(1, _LADDER_LEVELS + 1) / _LADDER_LEVELS, degrees)
        upper = np.maximum(powers, np.finfo(float).tiny)
        return [_ladder(c, powers, upper) for c in self._series]

    @cached_property
    def _reviews(self) -> dict:
        """Certified hypothesis reviews of the map by their key, filled by ``hypotheses`` on first use."""
        return {}

    def _sums(self, z, which):
        """Horner sums at z of the series numbered in which, each point to its effective degree."""
        ladders = self._ladders
        levels = None
        sums = []
        for s in which:
            coeffs, degrees = self._series[s], ladders[s]
            if isinstance(degrees, int):
                sums.append(_horner(coeffs[: degrees + 1], z))
                continue
            if levels is None:
                levels = _levels(z)
            point_degrees = degrees[levels]
            # np.unique would import numpy.ma, a megabyte of resident memory
            spread = np.flatnonzero(np.bincount(np.ravel(point_degrees)))
            if spread.size == 1:
                sums.append(_horner(coeffs[: spread[0] + 1], z))
                continue
            values = np.empty(np.shape(z), dtype=complex)
            for d in spread:
                at = point_degrees == d
                values[at] = _horner(coeffs[: d + 1], np.asarray(z)[at])
            sums.append(values)
        return sums

    def eval(self, z):
        """f(z) for scalar or ndarray z with |z| < 1."""
        self._check_domain(z)
        h, g = self._sums(z, (0, 1))
        value = h + np.conj(g)
        return complex(value) if np.isscalar(z) or np.ndim(z) == 0 else value

    def partials(self, z):
        """Wirtinger pair (f_z, f_zbar) from the differentiated series."""
        self._check_domain(z)
        hp, gp = self._sums(z, (2, 3))
        fzb = np.conj(gp)
        if np.isscalar(z) or np.ndim(z) == 0:
            return complex(hp), complex(fzb)
        return hp, fzb

    def on_circle(self, radius: float, n: int, values: bool = True, partials: bool = False) -> np.ndarray:
        """Samples at radius e^{2 pi i k / n}, k < n, one row each: f if values, then f_z and f_zbar if partials.

        On |z| = r, h is the trigonometric polynomial with coefficients
        a_k r^k, and conj(g) the one with conj(b_k) r^k at frequency -k;
        both fold into one spectrum, and the partials take h' and g' the
        same way.  Every spectrum goes into one zeroed array of shape
        (rows, n), and one inverse DFT sums them all in place, so a call
        allocates one array of n per row; each row has the bits a transform
        of its own would give.
        """
        radius = float(radius)
        self._check_domain(radius)
        powers = np.power(radius, np.arange(self.truncation_degree + 1))
        spectra = np.zeros((values + 2 * partials, n), dtype=complex)
        if values:
            _ring_spectrum(self.analytic_coeffs, powers, n, spectra[0])
            g = np.conj(self._b_full)
            if g.size <= n:
                # frequency -k is frequency k - 1 of the reversed row, and b_0 = 0 adds nothing
                _ring_spectrum(g[1:], powers[1:], n, spectra[0][::-1])
            else:
                # fold, then reverse: a one-sample fold sums pairwise, where
                # the b_0 term's place in the sum counts
                spectra[0] += _ring_spectrum(g, powers, n)[-np.arange(n) % n]
        if partials:
            for row, c in zip(spectra[values:], self._series[2:]):
                _ring_spectrum(c, powers, n, row)
        rows = np.fft.ifft(spectra, norm="forward", out=spectra)
        if partials:
            np.conj(rows[-1], out=rows[-1])
        return rows

    def eval_hp(self, z: complex, dps: int = 50):
        """High-precision f(z) (mpmath, `dps` decimal digits), scalar only."""
        # imported here: no other path needs mpmath, and loading it costs every process
        import mpmath

        if abs(z) >= 1.0:
            raise ValueError("evaluation requires |z| < 1")
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z)
            acc_h = mpmath.mpc(0)
            for d in range(self.truncation_degree, -1, -1):
                acc_h = acc_h * zz + mpmath.mpc(self.analytic_coeffs[d])
            acc_g = mpmath.mpc(0)
            for d in range(self.truncation_degree, 0, -1):
                acc_g = acc_g * zz + mpmath.mpc(self._b_full[d])
            acc_g = acc_g * zz
            return acc_h + acc_g.conjugate()

    # ------------------------------------------------------------------
    # derived maps
    # ------------------------------------------------------------------

    def scale_output(self, c: complex) -> "HarmonicMap":
        """The map c*f (post-composition with a linear scaling).

        The antianalytic side stores g with f = h + conj(g), and
        c*conj(g) = conj(conj(c)*g), so those coefficients pick up conj(c).
        """
        return HarmonicMap(c * self.analytic_coeffs, np.conj(c) * self.antianalytic_coeffs)

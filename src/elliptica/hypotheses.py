"""Certified review of the theorems' hypotheses on the closed disk |z| <= 0.999.

Beyond f(0) = 0 and lambda(0) = 1, the Landau and Bloch theorems assume of
f = h + conj(g) that lambda = ||h'| - |g'|| is at most Lambda, that f is
(K, K')-elliptic, i.e. that the margin

    K J + K' - |Df|^2 = (K - 1)|h'|^2 - (K + 1)|g'|^2 - 2|h'||g'| + K'

is nonnegative, and that f preserves sense.  :func:`certify_hypotheses`
proves all three for a series map from enclosures of |h'| and |g'|, or
refutes one at a point of the disk where it fails:

* g != 0.  Squares cover the disk, 16 x 16 to begin with.  Take a square
  of centre c and half-diagonal delta, and let e be c moved into the disk
  (the nearest disk point to c is nearer than c to every disk point).
  Then |h'(z)| lies within |h'(e)| +- (delta |h''(e)| + delta^2 H3(rho) / 2)
  on the square's part of the disk, where H3(rho) = sum_k k(k-1)(k-2)|a_k|
  rho^(k-3), with rho = min(|e| + delta, 0.999), bounds |h'''| on the
  segment from e to z; |g'| likewise.  The bounds give the margin from
  below, lambda <= max(hi_h - lo_g, hi_g - lo_h), and J > 0 from
  lo_h > hi_g.  A square whose bounds fall short while its centre fails
  no hypothesis splits in four.  (Moore, Kearfott & Cloud, *Introduction
  to Interval Analysis*, SIAM 2009.)
* g = 0.  The margin (K - 1)|h'|^2 + K' is at least K' everywhere (a
  review asked for more, by a tol below -K', is inconclusive), and f
  preserves sense: its dilatation g'/h' vanishes.  The zeros h' may have
  (the extremals F_n have n - 1 of them) are isolated points where
  J = |h'|^2 vanishes; they fail no hypothesis.  By the maximum modulus
  principle sup lambda = max |h'| on the circle |z| = 0.999, so arcs of
  that circle replace the squares.  Let H(theta) = h'(0.999 e^{i theta});
  its theta-derivatives H' = i z h''(z) and H'' come from the same DFT
  as H.  On the arc |theta - theta_s| <= phi = pi/n around a sample,
  |H| is at most max |H + p H' + p^2 H'' / 2| over |p| <= phi, bounded
  term by term in its square, plus phi^3 M / 6, where M bounds the third
  theta-derivative through H2, H3 and H4, the majorants of the second to
  fourth derivatives of h at 0.999.  Where |h'| peaks its tangential
  slope vanishes, so the bound exceeds max |H| by O(phi^2) times the
  curvature of the image curve, not times a majorant.

The Bloch pipeline's search for the argmax of W(z) = (1 - |z|^2) lambda(z),
for a map with |h'| > |g'| certified, splits the same squares.  With A, B =
h'(e), h''(e), C, D = g'(e), g''(e) and t = z - e, the centred form |h'(z)|
<= |A| + Re(conj(A) B t)/|A| + delta^2 (|B|^2/(2|A|) + H3/2), the projection
|g'(z)| >= |C| + Re(conj(C) D t)/|C| - delta^2 G3/2 and 1 - |z|^2 <= 1 -
|e|^2 - 2 Re(conj(e) t) bound W by a product of affine functions of t, which
exceeds W by O(delta^2) where W peaks.  After the origin, a square splits
until its bound is at most (1 + tau) m for the best centre value m, so the
largest settled bound M has sup W <= M <= (1 + tau) m, tau = _SEARCH_GAP.

Every enclosure adds the error of the values it starts from: a Horner sum
at a point, gamma_{2N} sum_k |c_k| rho^k (the ``seriescore`` docstring),
and a circle from ``on_circle``, its DFT bound from the same docstring with
mu = 4u for the computed roots of unity; bounds and majorants are then
rounded outward by a factor 1 + gamma_{4N+8} (Rump, Acta Numerica 19,
2010).  The review is ``certified`` when every square or arc passes,
``refuted`` at the first centre or sample that fails a hypothesis beyond
the caller's tolerance, and ``inconclusive`` when the budget of squares or
circle samples is used up first.  Each review is memoized on the map per
(K, K', Lambda, tol), as its degree ladders are, so campaigns that check
two theorems on one map review it once.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .constants import EllipticityParams
from .distortion import stretches
from .oracles import CERTIFIED, INCONCLUSIVE, REFUTED
from .seriescore import _UNIT_ROUNDOFF, HarmonicMap, _gamma, _horner, _ring_spectrum

__all__ = ["HypothesisReview", "certify_hypotheses"]

# the theorems' closed disk
_REGION = 0.999
# the disk a moved centre is put in: inside _REGION despite rounding
_INNER = _REGION * (1.0 - 2.0**-50)
# squares per side of the first cover, the budget of squares, and the most
# times a square may split: deeper, the centres' rounding would outgrow the
# margin that _HALF_DIAGONAL leaves
_GRID = 16
_CELL_CAP = 1 << 16
_DEPTH = 30
# squares evaluated at a time, which bounds the memory of one review
_CHUNK = 1 << 12
# half-diagonal per side: above sqrt(1/2), so a square's disk also covers
# the rounding of its centre
_HALF_DIAGONAL = 0.70711
# the relative gap tau that the weighted-distortion search leaves between
# its best centre and its bound on sup W
_SEARCH_GAP = 1e-10
# circle samples of the first arcs, and their budget
_ARCS = 256
_ARC_CAP = 1 << 16

# error of the computed roots of unity of the DFT, in units of roundoff
_TWIDDLE_ULPS = 4


@dataclass(frozen=True)
class HypothesisReview:
    """What :func:`certify_hypotheses` found.

    Certified: ``sup_lambda`` bounds sup lambda from above and
    ``ellipticity_margin`` the margin from below.  Otherwise they are the
    largest lambda and the least margin at the points evaluated, and a
    refutation names its ``witness``, a point of the disk where a
    hypothesis fails.  ``pieces`` counts the squares (``cells``) or the
    circle samples (``arcs``) evaluated, in a read-only mapping: the map
    keeps its reviews, so a caller must not be able to change one.
    """

    status: str
    sup_lambda: float
    ellipticity_margin: float
    pieces: Mapping
    witness: complex | None = None
    reasons: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", MappingProxyType(dict(self.pieces)))

    def __reduce__(self):
        # a mappingproxy does not pickle, and a pickled map carries its reviews
        return type(self), (self.status, self.sup_lambda, self.ellipticity_margin, dict(self.pieces),
                            self.witness, self.reasons)


def _derivatives(c: np.ndarray, count: int) -> list:
    """The coefficient arrays of the first ``count`` derivatives of the series c."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count):
            c = (np.arange(c.size) * c)[1:]
            out.append(c)
    return out


def _columns(series: list, length: int) -> np.ndarray:
    """The series as the columns of one array, zero-padded to ``length`` degrees."""
    out = np.zeros((length, len(series)), dtype=complex)
    for j, c in enumerate(series):
        out[: c.size, j] = c
    return out


def certify_hypotheses(f: HarmonicMap, params: EllipticityParams, lam: float, tol: float) -> HypothesisReview:
    """Prove sup lambda <= lam, (K, K')-ellipticity and sense preservation on |z| <= 0.999.

    Each within tol, which may be negative to demand room: sup lambda <=
    lam + tol and a margin >= -tol.  See the module docstring for the
    squares (g != 0), the arcs (g = 0) and the three outcomes.  The review
    is a function of f's frozen coefficients and (K, K', lam, tol) alone,
    so f keeps it under that key, as it keeps its degree ladders, and a
    second call returns it.
    """
    # repr tells the signed zeros apart, which compare equal but print apart
    # in a review; threads that race on one key store equal reviews
    key = repr((float(params.K), float(params.Kp), float(lam), float(tol)))
    review = f._reviews.get(key)
    if review is None:
        review = (_arcs if f.is_analytic else _cells)(f, params, float(lam), tol)
        f._reviews[key] = review
    return review


def _square_series(f: HarmonicMap) -> tuple:
    """Columns h', g', h'', g'', majorant columns of h''', g''', gamma, and the four's Horner error."""
    n = f.truncation_degree
    hd = _derivatives(f.analytic_coeffs, 3)
    gd = _derivatives(np.concatenate([[0.0], f.antianalytic_coeffs]), 3)
    values = _columns([hd[0], gd[0], hd[1], gd[1]], n)
    third = np.abs(_columns([hd[2], gd[2]], max(n - 2, 1)))
    gamma = _gamma(4 * n + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        err = gamma * (_REGION ** np.arange(n) @ np.abs(values))
    return values, third, gamma, err


def _squares(judge) -> tuple:
    """Split squares over the disk |z| <= 0.999 until judge settles each; return (stop, squares evaluated).

    judge(e, rho, delta) gets up to _CHUNK centres moved into the disk, radii
    bounding the squares' parts of the disk, and the half-diagonal, and
    returns the mask of squares to split, or a stop (status, witness,
    reasons).  stop is None once no square is left, and inconclusive when
    _CELL_CAP squares or _DEPTH splits run out.
    """
    side = 2.0 * _REGION / _GRID
    axis = -_REGION + side * (np.arange(_GRID) + 0.5)
    pending = (axis[None, :] + 1j * axis[:, None]).ravel()
    cells = 0
    for _ in range(_DEPTH + 1):
        delta = _HALF_DIAGONAL * side
        size = np.abs(pending)
        inside = size - delta <= _REGION
        pending, size = pending[inside], size[inside]
        if cells + pending.size > _CELL_CAP:
            return (INCONCLUSIVE, None, (f"cell budget of {_CELL_CAP} squares used up",)), cells
        cells += pending.size
        split = []
        for lo_idx in range(0, pending.size, _CHUNK):
            chunk = slice(lo_idx, lo_idx + _CHUNK)
            e = pending[chunk] / np.maximum(size[chunk] / _INNER, 1.0)
            # delta is rounded up enough to absorb the rounding of |e|
            rho = np.minimum(np.minimum(size[chunk], _INNER) + delta, _REGION)
            verdict = judge(e, rho, delta)
            if isinstance(verdict, tuple):
                return verdict, cells
            split.append(pending[chunk][verdict])
        side *= 0.5
        quarter = 0.5 * side
        pending = (np.concatenate(split)[:, None]
                   + quarter * np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])).ravel()
        if not pending.size:
            return None, cells
    return (INCONCLUSIVE, None, (f"squares split {_DEPTH} times without deciding",)), cells


def _cells(f: HarmonicMap, params: EllipticityParams, lam: float, tol: float) -> HypothesisReview:
    values, third, gamma, err = _square_series(f)
    k_, kp = float(params.K), float(params.Kp)
    seen_lam, seen_margin = 0.0, math.inf
    sup_lam, min_margin = 0.0, math.inf

    def judge(e, rho, delta):
        nonlocal seen_lam, seen_margin, sup_lam, min_margin
        # the Horner errors of h' and g', of h'' and g'' times delta
        slack = err[:2] + delta * err[2:]
        with np.errstate(over="ignore", invalid="ignore"):
            mod = np.abs(_horner(values, e[:, None]))
            lam_max, lam_min, jac = stretches(mod[:, 0], mod[:, 1])
            margin = k_ * jac + kp - lam_max * lam_max
            seen_lam = max(seen_lam, float(np.fmax.reduce(lam_min)))
            seen_margin = min(seen_margin, float(np.fmin.reduce(margin)))
            fails = (lam_min > lam + tol, margin < -tol, jac <= 0.0)
            if (fails[0] | fails[1] | fails[2]).any():
                return _refuted(e, min(lam, lam + tol), (lam_min, margin, jac), fails)
            h3 = rho[:, None] ** np.arange(len(third)) @ third
            rad = (delta * mod[:, 2:] + (0.5 * delta * delta) * h3 + gamma * mod[:, :2]) * (1.0 + gamma) + slack
            lo = np.maximum(mod[:, :2] - rad, 0.0)
            hi = mod[:, :2] + rad
            lam_hi = np.maximum(hi[:, 0] - lo[:, 1], hi[:, 1] - lo[:, 0]) * (1.0 + gamma)
            # the margin's terms are nonnegative but for the two subtracted ones;
            # total bounds their rounding
            kept = (k_ - 1.0) * lo[:, 0] ** 2 + kp
            total = kept + (k_ + 1.0) * hi[:, 1] ** 2 + 2.0 * hi[:, 0] * hi[:, 1]
            margin_lo = 2.0 * kept - (1.0 + gamma) * total
        if not np.isfinite(margin_lo + lam_hi).all():
            z = complex(e[np.flatnonzero(~np.isfinite(margin_lo + lam_hi))[0]])
            return INCONCLUSIVE, None, (f"non-finite map derivatives near z = {z!r}",)
        ok = (lam_hi <= lam + tol) & (margin_lo >= -tol) & (lo[:, 0] > hi[:, 1])
        if ok.any():
            sup_lam = max(sup_lam, float(lam_hi[ok].max()))
            min_margin = min(min_margin, float(margin_lo[ok].min()))
        return ~ok

    stop, cells = _squares(judge)
    if stop is None:
        return HypothesisReview(CERTIFIED, sup_lam, min_margin, {"cells": cells})
    status, witness, reasons = stop
    return HypothesisReview(status, seen_lam, seen_margin, {"cells": cells}, witness=witness, reasons=reasons)


def _refuted(e, threshold, data, fails) -> tuple:
    """The refutation at the first centres where each hypothesis fails: status, witness, reasons."""
    texts = ("sup lambda >= {!r} exceeds " + repr(threshold), "ellipticity margin {!r}", "Jacobian {!r} <= 0")
    firsts = [(int(np.argmax(mask)), text, values) for mask, text, values in zip(fails, texts, data) if mask.any()]
    reasons = tuple(text.format(float(values[i])) + f" at z = {complex(e[i])!r}" for i, text, values in firsts)
    return REFUTED, complex(e[min(i for i, _, _ in firsts)]), reasons


def _sup_weighted(f: HarmonicMap) -> tuple[complex, float, int]:
    """Best centre z0, bound on sup W over |z| <= 0.999 and squares evaluated, given |h'| > |g'|."""
    values, third, gamma, err = _square_series(f)
    # the origin first, so that a tie keeps it
    best, best_z = float(abs(values[0, 0]) - abs(values[0, 1])), 0j
    top = -math.inf

    def judge(e, rho, delta):
        nonlocal best, best_z, top
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = _horner(values, e[:, None])
            mod = np.abs(v)
            size2 = e.real * e.real + e.imag * e.imag
            centre = (1.0 - size2) * (mod[:, 0] - mod[:, 1])
            i = int(np.argmax(centre))
            if centre[i] > best:
                best, best_z = float(centre[i]), complex(e[i])
            h3 = rho[:, None] ** np.arange(len(third)) @ third
            # |h'| - |g'| <= lam0 + Re(slope t), lam0 with the second-order and error terms
            unit_g = np.divide(v[:, 1].conj(), mod[:, 1], out=np.zeros(e.size, dtype=complex), where=mod[:, 1] > 0.0)
            slope = v[:, 0].conj() / mod[:, 0] * v[:, 2] - unit_g * v[:, 3]
            lam0 = (mod[:, 0] - mod[:, 1] + gamma * (mod[:, 0] + mod[:, 1]) + err[:2].sum() + delta * err[2:].sum()
                    + (0.5 * delta * delta) * (mod[:, 2] * mod[:, 2] / mod[:, 0] + h3.sum(axis=1)))
            # times 1 - |z|^2 <= weight - 2 Re(conj(e) t) over |t| <= delta; scale bounds every term
            weight = 1.0 - size2 + 4.0 * _UNIT_ROUNDOFF
            grad = weight * slope.conj() - 2.0 * lam0 * e
            reach = np.abs(e) * np.abs(slope)
            hi = weight * lam0 + delta * np.abs(grad) + delta * delta * (reach - (e * slope).real)
            scale = weight * (lam0 + delta * (mod[:, 2] + mod[:, 3])) + 2.0 * delta * (lam0 * np.abs(e) + delta * reach)
            hi = (hi + gamma * scale) * (1.0 + gamma)
        settled = hi <= best * (1.0 + _SEARCH_GAP)
        if settled.any():
            top = max(top, float(hi[settled].max()))
        return ~settled

    stop, cells = _squares(judge)
    if stop is not None:
        raise RuntimeError(f"weighted-distortion search: {stop[2][0]}")
    return best_z, top, cells


def _dft_error(n: int, degree: int) -> float:
    """Per-sample error of on_circle over n angles, per unit of sum_k |c_k| r^k (seriescore docstring)."""
    mu = _TWIDDLE_ULPS * _UNIT_ROUNDOFF
    eta = mu + _gamma(4) * (math.sqrt(2.0) + mu)
    log_n = math.log2(n)
    # the spectrum's own scaling and folding, then the 2-norm bound of the
    # transform, which bounds every sample by sqrt(n) times the spectrum's 2-norm
    return _gamma(degree + 4) + math.sqrt(n) * log_n * eta / (1.0 - log_n * eta)


def _arcs(f: HarmonicMap, params: EllipticityParams, lam: float, tol: float) -> HypothesisReview:
    n_deg = f.truncation_degree
    hd = _derivatives(f.analytic_coeffs, 4)
    # H(theta) = h'(0.999 e^{i theta}) = sum_k c_k 0.999^k e^{i k theta}, and its
    # first two theta-derivatives, the spectra i k c_k and -k^2 c_k
    k = np.arange(hd[0].size)
    powers = _REGION ** np.arange(n_deg)
    gamma = _gamma(4 * n_deg + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        series = (hd[0], 1j * k * hd[0], -(k * k) * hd[0])
        h1, h2, h3, h4 = ((1.0 + gamma) * float(np.abs(c) @ powers[: c.size]) for c in hd)
        # majorants of sum_k k^j |c_k| 0.999^k for j = 0, 1, 2, and of the third theta-derivative of H
        sums = np.array([h1, _REGION * h2, _REGION * (h2 + _REGION * h3)])
        third = _REGION * (h2 + 3.0 * _REGION * h3 + _REGION**2 * h4) * (1.0 + gamma)
    kp = float(params.Kp)
    if kp < -tol:
        # a negative tol asks for a margin above K', which the arcs do not bound from below
        return HypothesisReview(INCONCLUSIVE, 0.0, kp, {"arcs": 0},
                                reasons=(f"margin bound K' = {kp!r} is below {-tol!r}",))

    n = _ARCS
    seen = 0.0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            a, t, u = np.fft.ifft(np.stack([_ring_spectrum(c, powers, n) for c in series]), norm="forward")
            size = np.abs(a)
        top = int(np.argmax(size))
        if np.isfinite(size[top]):
            seen = max(seen, float(size[top]))
        if size[top] > lam + tol:
            # the sample, moved inside the disk by far less than tol can notice
            z = _INNER * complex(math.cos(2.0 * math.pi * top / n), math.sin(2.0 * math.pi * top / n))
            return HypothesisReview(REFUTED, seen, kp, {"arcs": n}, witness=z,
                                    reasons=(f"sup lambda >= {float(size[top])!r} exceeds {min(lam, lam + tol)!r} "
                                             f"at z = {z!r}",))
        phi = math.pi / n
        with np.errstate(over="ignore", invalid="ignore"):
            # |P(p)|^2 for P(p) = a + p t + p^2 u / 2, bounded over |p| <= phi term by term
            square = (size * size + 2.0 * phi * np.abs((a * t.conj()).real)
                      + phi**2 * np.maximum(np.abs(t) ** 2 + (a * u.conj()).real, 0.0)
                      + phi**3 * np.abs((t * u.conj()).real) + 0.25 * phi**4 * np.abs(u) ** 2)
            # |H - P| <= phi^3 max|H'''| / 6 on the arc, and the DFT error of a, t and u
            err = _dft_error(n, n_deg) * (sums @ [1.0, phi, 0.5 * phi * phi])
            hi = (np.sqrt(square * (1.0 + gamma)) + phi**3 * third / 6.0 + err) * (1.0 + gamma)
        if not np.isfinite(hi).all():
            return HypothesisReview(INCONCLUSIVE, seen, kp, {"arcs": n},
                                    reasons=("non-finite map derivatives on the circle",))
        over = hi > lam + tol
        if not over.any():
            return HypothesisReview(CERTIFIED, float(hi.max()), kp, {"arcs": n})
        # the arc bound exceeds |h'(s)| by terms of order 1/n^2 and smaller:
        # jump to the resolution that would close the worst gap, 2 to 64 times finer
        need = math.sqrt(float(np.max((hi[over] - size[over]) / (lam + tol - size[over]))))
        if n * need > _ARC_CAP:
            return HypothesisReview(INCONCLUSIVE, seen, kp, {"arcs": n},
                                    reasons=(f"arc budget of {_ARC_CAP} circle samples used up",))
        n *= max(2, 2 ** math.ceil(math.log2(min(64.0, need))))

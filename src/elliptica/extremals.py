"""Extremal map families with closed-form coefficients.

Every builder returns a :class:`~elliptica.seriescore.HarmonicMap` whose
coefficients come from the printed series expansion, never from quadrature.
The dropped tail is bounded by the exact geometric majorant at the map's
reference radius, so truncation error is certified rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seriescore import HarmonicMap

__all__ = [
    "ExtremalSpec",
    "build_classical",
    "build_extremal",
    "build_fn",
    "build_Fn",
]

_FAMILIES = ("Fn", "fn", "classical")


@dataclass(frozen=True)
class ExtremalSpec:
    """Names one member of the extremal families.

    ``family`` is one of ``"Fn"`` (minimum-distortion pinned), ``"fn"``
    (maximum-distortion pinned) or ``"classical"`` (bounded analytic
    extremal).  ``n`` is the branch-point order for the first two and
    ignored for ``"classical"``.  ``parameter`` is the pinned distortion
    value (lam) or the sup bound (M).
    """

    family: str
    parameter: float
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.family in ("Fn", "fn"):
            if self.n is None or not isinstance(self.n, int) or isinstance(self.n, bool):
                raise ValueError("families 'Fn' and 'fn' require an integer n >= 2")
            if self.n < 2:
                raise ValueError(f"n must be >= 2, got {self.n}")
        p = float(self.parameter)
        if not math.isfinite(p):
            raise ValueError("parameter must be finite")
        if self.family == "classical":
            if p <= 1.0:
                raise ValueError(f"classical family needs M > 1, got {p}")
        elif p < 1.0:
            raise ValueError(f"distortion parameter must be >= 1, got {p}")

    def describe(self) -> str:
        if self.family == "classical":
            return f"classical(M={float(self.parameter):g})"
        return f"{self.family}(n={self.n},lam={float(self.parameter):g})"


def _check_common(n_terms: int, r_ref: float) -> None:
    if not isinstance(n_terms, int) or isinstance(n_terms, bool):
        raise ValueError("N must be an integer")
    if not (0.0 < r_ref < 1.0):
        raise ValueError(f"reference radius must lie in (0, 1), got {r_ref}")


def build_Fn(n: int, lam: float, n_terms: int = 64, r_ref: float = 0.9) -> HarmonicMap:
    """Analytic extremal with minimum distortion pinned to ``lam``.

    The expansion is ``z + sum_{k>=1} (-1)^{k+1} (lam^2-1) z^{k(n-1)+1} /
    ((k(n-1)+1) lam^k)``; coefficients vanish except in degrees ``k(n-1)+1``.
    ``n_terms`` is the truncation degree N and must admit at least the first
    nonlinear term.  The geometric tail bound is exact for this series.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    _check_common(n_terms, r_ref)
    if n_terms < n:
        raise ValueError(f"N must be at least n (need the first nonlinear term), got N={n_terms} < n={n}")

    coeffs = np.zeros(n_terms + 1, dtype=complex)
    coeffs[1] = 1.0
    amp = lam * lam - 1.0
    k = 1
    while k * (n - 1) + 1 <= n_terms:
        d = k * (n - 1) + 1
        sign = 1.0 if k % 2 == 1 else -1.0
        coeffs[d] = sign * amp / (d * lam**k)
        k += 1
    # first dropped index pair: degree k*(n-1)+1 with ratio r^(n-1)/lam < 1
    q = r_ref ** (n - 1) / lam
    tail = amp * r_ref * q**k / ((k * (n - 1) + 1) * (1.0 - q))
    return HarmonicMap(coeffs, (), tail_bound=tail, reference_radius=r_ref)


def build_fn(n: int, big_lam: float, n_terms: int = 64, r_ref: float = 0.9) -> HarmonicMap:
    """Same series as :func:`build_Fn` with the maximum distortion pinned."""
    return build_Fn(n, big_lam, n_terms, r_ref)


def build_classical(m_sup: float, n_terms: int = 64, r_ref: float = 0.9) -> HarmonicMap:
    """Bounded analytic extremal ``M z (1 - M z) / (M - z)``.

    Coefficients from long division by ``(M - z)``: a_1 = 1,
    a_2 = (1 - M^2)/M, then a_d = a_{d-1}/M.  Requires ``m_sup > 1``;
    the value 1 degenerates to the identity and is rejected.
    """
    m_sup = float(m_sup)
    if not (math.isfinite(m_sup) and m_sup > 1.0):
        raise ValueError(f"M must be finite and > 1 (M = 1 degenerates to the identity), got {m_sup}")
    _check_common(n_terms, r_ref)
    if n_terms < 2:
        raise ValueError(f"N must be >= 2, got {n_terms}")

    coeffs = np.zeros(n_terms + 1, dtype=complex)
    coeffs[1] = 1.0
    coeffs[2] = (1.0 - m_sup * m_sup) / m_sup
    for d in range(3, n_terms + 1):
        coeffs[d] = coeffs[d - 1] / m_sup
    # dropped degrees d > N sum to (M^2-1) r (r/M)^N / (1 - r/M)
    q = r_ref / m_sup
    tail = (m_sup * m_sup - 1.0) * r_ref * q**n_terms / (1.0 - q)
    return HarmonicMap(coeffs, (), tail_bound=tail, reference_radius=r_ref)


def build_extremal(spec: ExtremalSpec, n_terms: int = 64, r_ref: float = 0.9) -> HarmonicMap:
    """Dispatch on ``spec.family``."""
    if spec.family == "Fn":
        return build_Fn(spec.n, spec.parameter, n_terms, r_ref)
    if spec.family == "fn":
        return build_fn(spec.n, spec.parameter, n_terms, r_ref)
    return build_classical(spec.parameter, n_terms, r_ref)

"""Extremal map families with closed-form coefficients.

Every builder returns a :class:`~elliptica.seriescore.HarmonicMap` whose
coefficients come from the printed series expansion, never from quadrature.
The map is that series truncated at degree N, and a review or probe of it
covers the truncated polynomial only.
"""

from __future__ import annotations

import math

import numpy as np

from .seriescore import HarmonicMap

__all__ = ["build_classical", "build_Fn"]


def _check_n_terms(n_terms: int) -> None:
    if not isinstance(n_terms, int) or isinstance(n_terms, bool):
        raise ValueError("N must be an integer")


def build_Fn(n: int, lam: float, n_terms: int = 64) -> HarmonicMap:
    """Analytic extremal with minimum distortion pinned to ``lam``.

    The expansion is ``z + sum_{k>=1} (-1)^{k+1} (lam^2-1) z^{k(n-1)+1} /
    ((k(n-1)+1) lam^k)``; coefficients vanish except in degrees ``k(n-1)+1``.
    ``n_terms`` is the truncation degree N and must admit at least the first
    nonlinear term.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lam must be finite and >= 1, got {lam}")
    _check_n_terms(n_terms)
    if n_terms < n:
        raise ValueError(f"N must be at least n (need the first nonlinear term), got N={n_terms} < n={n}")

    coeffs = np.zeros(n_terms + 1, dtype=complex)
    coeffs[1] = 1.0
    # each term is amp / (d lam^(k - shift)) with amp = (lam^2 - 1)/lam^shift;
    # shift is 1 only past the square root of the float range, where lam^2 overflows
    amp, shift = lam * lam - 1.0, 0
    if amp == math.inf:
        amp, shift = lam - 1.0 / lam, 1
    for k in range(1, (n_terms - 1) // (n - 1) + 1):
        d = k * (n - 1) + 1
        sign = 1.0 if k % 2 == 1 else -1.0
        try:
            denom = d * lam ** (k - shift)
        except OverflowError:
            denom = math.inf
        if denom < math.inf:
            coeffs[d] = sign * amp / denom
        else:
            # lam**k, or d times it, is past the float range, but the term is
            # tiny: in logarithms it keeps its value, or underflows to 0
            coeffs[d] = sign * math.exp(math.log(amp / d) - (k - shift) * math.log(lam))
    return HarmonicMap(coeffs)


def build_classical(m_sup: float, n_terms: int = 64) -> HarmonicMap:
    """Bounded analytic extremal ``M z (1 - M z) / (M - z)``.

    Coefficients from long division by ``(M - z)``: a_1 = 1,
    a_2 = (1 - M^2)/M, then a_d = a_{d-1}/M.  Requires ``m_sup > 1``;
    the value 1 degenerates to the identity and is rejected.
    """
    m_sup = float(m_sup)
    if not (math.isfinite(m_sup) and m_sup > 1.0):
        raise ValueError(f"M must be finite and > 1 (M = 1 degenerates to the identity), got {m_sup}")
    _check_n_terms(n_terms)
    if n_terms < 2:
        raise ValueError(f"N must be >= 2, got {n_terms}")

    coeffs = np.zeros(n_terms + 1, dtype=complex)
    coeffs[1] = 1.0
    square = m_sup * m_sup
    # where M^2 overflows, (1 - M^2)/M = 1/M - M
    coeffs[2] = (1.0 - square) / m_sup if square < math.inf else 1.0 / m_sup - m_sup
    for d in range(3, n_terms + 1):
        coeffs[d] = coeffs[d - 1] / m_sup
    return HarmonicMap(coeffs)


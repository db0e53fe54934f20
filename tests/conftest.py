"""Shared test configuration, and the reference grid the certificate tests sample.

Hypothesis runs derandomized so a red test reproduces from the same command
line; the deadline is disabled because several properties evaluate maps on
numpy grids and the first call pays the allocation cost.

The library certifies the hypotheses and samples no 2D grid, so tests that
hold a certificate against samples build their own: :func:`polar_grid` and
:func:`grid_stretches`, which evaluates a map there by Horner (``partials``).
"""

import numpy as np
from hypothesis import settings

from elliptica.distortion import stretches

settings.register_profile("suite", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("suite")


def polar_grid(radius, n_r, n_theta):
    """The centre, then n_r rings of n_theta points at radius (i + 1)/n_r, ring by ring from angle 0."""
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rings = np.multiply.outer(radius * (np.arange(1, n_r + 1) / n_r), np.exp(1j * angles))
    return np.concatenate([[0j], rings.ravel()])


def grid_stretches(f, radius, n_r, n_theta):
    """(lambda_max, lambda_min, J) of f at the points of polar_grid(radius, n_r, n_theta)."""
    return stretches(*f.partials(polar_grid(radius, n_r, n_theta)))

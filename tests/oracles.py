"""Test-only views of the built-in families that production code never reads.

The package evaluates every functional through the standardized law and the
log-space profile accessors; these helpers rebuild sigma_j, F_j and the
continuous laws' densities from the family parameters, so the quadrature
oracles share no code with the closed forms they check.
"""

import math

import numpy as np

SQRT3 = math.sqrt(3.0)

_DENSITIES = {
    "uniform": lambda z: np.where(np.abs(z) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0),
    "normal": lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
    "expcentered": lambda z: np.where(z >= -1.0, np.exp(-(z + 1.0)), 0.0),
}


def sigma(fam, j):
    """sigma_j of the family's profile, j >= 1."""
    prof = fam.profile
    if prof.is_constant:
        return prof.sigma
    return prof.ratio ** (0.5 * (j - 1))


def variance(fam, j):
    return sigma(fam, j) ** 2


def cdf(fam, j, x):
    """F_j(x) = P(sigma_j Z < x)."""
    return fam.law.cdf(np.asarray(x, dtype=float) / sigma(fam, j))


def density(law, z):
    """Density of a continuous standardized law."""
    return _DENSITIES[law.name](np.asarray(z, dtype=float))

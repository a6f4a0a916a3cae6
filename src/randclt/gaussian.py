"""Standard-normal helper functions shared across the package.

Everything here is vectorized over numpy arrays and uses scipy's ndtr/erfc
family for full double-precision accuracy in the tails.
"""

from __future__ import annotations

import numpy as np
from scipy import special

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def norm_pdf(x):
    """Density of N(0,1)."""
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def norm_cdf(x):
    """P(Z < x) for Z ~ N(0,1)."""
    return special.ndtr(x)


def norm_sf(x):
    """P(Z > x), accurate in the far tail."""
    return special.ndtr(-np.asarray(x, dtype=float))


def norm_central_prob(t):
    """P(|Z| <= t) = erf(t / sqrt(2))."""
    return special.erf(np.asarray(t, dtype=float) / np.sqrt(2.0))


def x2_antiderivative(z):
    """Antiderivative of z^2 * pdf(z): integral_{-inf}^{z} u^2 phi(u) du."""
    z = np.asarray(z, dtype=float)
    return special.ndtr(z) - z * norm_pdf(z)


def upper_x_sf_integral(t):
    """integral_{t}^{inf} z * (1 - Phi(z)) dz, closed form, t >= 0.

    Equals 0.5 * (t*phi(t) + (1 - t^2) * (1 - Phi(t))).
    """
    t = np.asarray(t, dtype=float)
    return 0.5 * (t * norm_pdf(t) + (1.0 - t * t) * norm_sf(t))


def normal_tail_second_moment(t):
    """E[Z^2; |Z| > t] for t >= 0, closed form 2*(t*phi(t) + 1 - Phi(t))."""
    t = np.asarray(t, dtype=float)
    return 2.0 * (t * norm_pdf(t) + norm_sf(t))


def normal_abs_moment(order):
    """E|Z|^order = 2^(order/2) * Gamma((order+1)/2) / sqrt(pi)."""
    order = float(order)
    return float(
        np.exp(0.5 * order * np.log(2.0) + special.gammaln(0.5 * (order + 1.0)))
        / np.sqrt(np.pi)
    )

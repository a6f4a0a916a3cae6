"""Numerical integration for tail functionals of summand distributions.

The engine is an adaptive Gauss-Kronrod (G7, K15) pair: each panel is scored
by the embedded-rule discrepancy and the worst panel is bisected until the
total estimate meets the absolute tolerance or the subdivision budget runs
out.  Discrete laws never touch the engine: tail moments are exact atom sums
and the absolute-difference integral against the normal comparator is done
piecewise-analytically between atoms.  Infinite domains are truncated where
per-law envelope bounds certify the remainder, and that remainder is added to
the reported error estimate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .families import NormalComparator, NormalLaw, SummandFamily
from .gaussian import (
    norm_cdf,
    norm_ppf,
    upper_x_sf_integral,
    x_cdf_minus_c_antiderivative,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SUBDIVISIONS = 10_000

# Gauss-Kronrod 15/7 nodes and weights on [-1, 1] (positive half, node 0 last).
_XK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # ascending, 15 nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Engine failed to converge; carries the partial value and its error."""

    def __init__(self, message, value, error_estimate):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    subdivisions: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"integral value must be finite: {self.value}")
        if self.error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")


def _gk15(fn, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(fn(x), dtype=float)
    valk = half * float(np.dot(_WEIGHTS_K, y))
    valg = half * float(np.dot(_WEIGHTS_G, y))
    raw = abs(valk - valg)
    # roughness-scaled estimate: kinks and jumps inflate the raw discrepancy
    # the way QUADPACK does, keeping the estimate honest on non-smooth panels
    resasc = half * float(np.dot(_WEIGHTS_K, np.abs(y - valk / (b - a))))
    if resasc > 0.0 and raw > 0.0:
        return valk, resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    return valk, raw


def adaptive_integral(
    fn,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
    breakpoints=(),
) -> IntegralResult:
    """Integrate fn over [a, b] to absolute tolerance tol.

    breakpoints lists interior kink locations used to seed the initial panels.
    Raises QuadratureError when the panel budget is exhausted while the error
    estimate still exceeds 100x the tolerance.
    """
    if b <= a:
        return IntegralResult(0.0, 0.0, 0)
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    panels = []  # entries: (-err, counter, lo, hi, val, err)
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(fn, lo, hi)
        panels.append((-err, counter, lo, hi, val, err))
        counter += 1
    heapq.heapify(panels)
    splits = 0
    while splits < max_subdivisions:
        total_err = sum(p[5] for p in panels)
        if total_err <= tol:
            break
        neg_err, _, lo, hi, val, err = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution; keep as-is
            heapq.heappush(panels, (neg_err, counter, lo, hi, val, err))
            counter += 1
            break
        for s, e in ((lo, mid), (mid, hi)):
            val, err = _gk15(fn, s, e)
            heapq.heappush(panels, (-err, counter, s, e, val, err))
            counter += 1
        splits += 1
    value = float(sum(p[4] for p in panels))
    error = float(sum(p[5] for p in panels))
    if error > 100.0 * tol and splits >= max_subdivisions:
        raise QuadratureError(
            f"no convergence after {splits} subdivisions (err={error:.3g})",
            value=value,
            error_estimate=error,
        )
    return IntegralResult(value, error, splits)


# ---------------------------------------------------------------------------
# Tail moments against dF_j
# ---------------------------------------------------------------------------


def _atom_tail_moment(family: SummandFamily, j: int, threshold: float, power):
    points, masses = family.law.atoms
    sigma = float(family.sigma(j))
    x = sigma * points
    keep = np.abs(x) > threshold  # strict: atoms at the threshold excluded
    return float(np.sum(masses[keep] * np.abs(x[keep]) ** power))


def _continuous_tail_moment(
    family, j, threshold, power, tol, max_subdivisions
) -> IntegralResult:
    sigma = float(family.sigma(j))
    law = family.law
    cut = sigma * _law_cutoff(law)
    hi = max(cut, threshold)

    def integrand(x):
        return np.abs(x) ** power * law.pdf(x / sigma) / sigma

    total = 0.0
    err = 0.0
    splits = 0
    lo_support, hi_support = law.support
    # right tail [threshold, hi]
    if hi > threshold:
        r = adaptive_integral(
            integrand,
            threshold,
            hi,
            tol=0.5 * tol,
            max_subdivisions=max_subdivisions,
            breakpoints=_support_breaks(sigma, law, threshold, hi),
        )
        total += r.value
        err += r.error_estimate
        splits += r.subdivisions
    # left tail [-hi, -threshold]
    lo_cut = sigma * lo_support if math.isfinite(lo_support) else -hi
    lo = min(lo_cut, -threshold)
    if -threshold > lo:
        r = adaptive_integral(
            integrand,
            lo,
            -threshold,
            tol=0.5 * tol,
            max_subdivisions=max_subdivisions,
            breakpoints=_support_breaks(sigma, law, lo, -threshold),
        )
        total += r.value
        err += r.error_estimate
        splits += r.subdivisions
    # certified truncation remainder beyond the cutoff
    rem = law.tail_abs_moment(hi / sigma, power)
    if rem is None:
        # second-moment envelope: |x|^p <= x^2 * z^(p-2) at |x| > z for p <= 2
        z = hi / sigma
        rem = float(law.tail_second_moment(z)) * max(1.0, z ** (power - 2.0))
    err += sigma**power * float(rem)
    return IntegralResult(total, err, splits)


def _law_cutoff(law) -> float:
    """Point beyond which the law's tails are numerically negligible."""
    lo, hi = law.support
    if math.isfinite(hi) and math.isfinite(lo):
        return max(abs(lo), abs(hi))
    if law.name == "expcentered":
        return 48.0
    return 10.5  # Gaussian-type decay


def _support_breaks(sigma, law, lo, hi):
    lo_s, hi_s = law.support
    breaks = []
    for edge in (lo_s, hi_s):
        if math.isfinite(edge) and lo < sigma * edge < hi:
            breaks.append(sigma * edge)
    return breaks


def _sign_changes(diff, lo, hi, samples: int = 513):
    """Zero crossings of a vectorized function on [lo, hi] (kinks of |diff|)."""
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(diff(xs), dtype=float)
    sign = np.sign(vals)
    roots = []
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(
            float(brentq(lambda x: float(diff(np.array([x]))[0]), xs[i], xs[i + 1]))
        )
    return roots


def tail_second_moment(
    family: SummandFamily,
    j: int,
    threshold: float,
    tol: float = DEFAULT_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> IntegralResult:
    """integral_{|x| > threshold} x^2 dF_j(x).

    Exact atom summation for discrete laws; adaptive quadrature otherwise.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if family.law.is_discrete:
        return IntegralResult(_atom_tail_moment(family, j, threshold, 2.0), 0.0, 0)
    return _continuous_tail_moment(family, j, threshold, 2.0, tol, max_subdivisions)


def tail_abs_moment(
    family: SummandFamily,
    j: int,
    threshold: float,
    order: float,
    tol: float = DEFAULT_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> IntegralResult:
    """integral_{|x| > threshold} |x|^order dF_j(x); threshold 0 gives E|X_j|^order."""
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if order < 1.0:
        raise ValueError(f"moment order must be >= 1: {order}")
    if family.law.is_discrete:
        return IntegralResult(_atom_tail_moment(family, j, threshold, order), 0.0, 0)
    return _continuous_tail_moment(family, j, threshold, order, tol, max_subdivisions)


# ---------------------------------------------------------------------------
# Absolute-difference integral against the normal comparator
# ---------------------------------------------------------------------------


def _discrete_rotar(family, sigma_c, j, threshold) -> IntegralResult:
    """Piecewise-exact integral of |x| |F_j - Phi_j| for atomic laws.

    Between consecutive atoms F_j is a constant c, so on every segment where
    Phi_j - c keeps its sign (split at sigma_c * Phi^{-1}(c)) the integrand is
    +-x (Phi_j(x) - c) with an explicit antiderivative.  The two unbounded end
    pieces fold into integral z (1 - Phi(z)) dz, also closed form.
    """
    points, masses = family.law.atoms
    sigma = float(family.sigma(j))
    xs = sigma * np.asarray(points, dtype=float)
    cums = np.cumsum(masses)
    pieces = [(0.0, -math.inf, float(xs[0]))]
    for i in range(1, len(xs)):
        pieces.append((float(cums[i - 1]), float(xs[i - 1]), float(xs[i])))
    pieces.append((1.0, float(xs[-1]), math.inf))

    def seg_value(c, s, e):
        v = sigma_c**2 * (
            x_cdf_minus_c_antiderivative(e / sigma_c, c)
            - x_cdf_minus_c_antiderivative(s / sigma_c, c)
        )
        return abs(float(v))

    t = float(threshold)
    total = 0.0
    for side_lo, side_hi in ((t, math.inf), (-math.inf, -t)):
        for c, plo, phi_hi in pieces:
            lo, hi = max(plo, side_lo), min(phi_hi, side_hi)
            if hi <= lo:
                continue
            if math.isinf(lo):
                total += sigma_c**2 * float(upper_x_sf_integral(-hi / sigma_c))
            elif math.isinf(hi):
                total += sigma_c**2 * float(upper_x_sf_integral(lo / sigma_c))
            else:
                root = sigma_c * float(norm_ppf(c)) if 0.0 < c < 1.0 else None
                if root is not None and lo < root < hi:
                    total += seg_value(c, lo, root) + seg_value(c, root, hi)
                else:
                    total += seg_value(c, lo, hi)
    return IntegralResult(total, 32.0 * np.finfo(float).eps * (total + 1.0), 0)


def rotar_tail_integral(
    family: SummandFamily,
    comparator: NormalComparator,
    j: int,
    threshold: float,
    tol: float = DEFAULT_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> IntegralResult:
    """integral_{|x| > threshold} |x| |F_j(x) - Phi_j(x)| dx.

    Identically zero when the family law is normal (F_j == Phi_j); exact
    piecewise integration for atomic laws; adaptive quadrature otherwise.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    sigma_c = float(comparator.sigma(j))
    matched = comparator.profile == family.profile
    if isinstance(family.law, NormalLaw) and matched:
        return IntegralResult(0.0, 0.0, 0)
    if family.law.is_discrete:
        return _discrete_rotar(family, sigma_c, j, threshold)

    sigma = float(family.sigma(j))
    law = family.law
    cut = max(sigma, sigma_c) * max(_law_cutoff(law), 10.5)
    hi = max(cut, threshold * (1.0 + 1e-12))

    def diff(x):
        return np.asarray(law.cdf(x / sigma), dtype=float) - norm_cdf(x / sigma_c)

    def integrand(x):
        return np.abs(x) * np.abs(diff(x))

    total, err, splits = 0.0, 0.0, 0
    if hi > threshold:
        for lo_i, hi_i in ((threshold, hi), (-hi, -threshold)):
            breaks = _support_breaks(sigma, law, lo_i, hi_i)
            breaks += _sign_changes(diff, lo_i, hi_i)
            r = adaptive_integral(
                integrand,
                lo_i,
                hi_i,
                tol=0.5 * tol,
                max_subdivisions=max_subdivisions,
                breakpoints=breaks,
            )
            total += r.value
            err += r.error_estimate
            splits += r.subdivisions
    # remainder beyond the cutoff: |F - Phi| <= (1-F) + (1-Phi) on the right
    # tail (mirrored on the left), each piece with a closed-form envelope
    rem = sigma**2 * 0.5 * float(law.tail_second_moment(hi / sigma))
    rem += 2.0 * sigma_c**2 * float(upper_x_sf_integral(hi / sigma_c))
    return IntegralResult(total, err + rem, splits)

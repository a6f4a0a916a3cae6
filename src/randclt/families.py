"""Summand distribution families: standardized laws times sigma profiles.

Every built-in family is a scale family: the j-th summand is sigma_j * Z for a
fixed zero-mean, unit-variance standardized law Z and a deterministic standard
deviation profile sigma_j.  This covers the i.i.d. families (constant profile)
and the heterogeneous exploding-variance families (geometric profile), keeps
all moment and tail functionals exact, and makes the cumulative variance
closed-form even where the float64 value would overflow (log-space accessors).
The matched normal sequence of Rotar's condition, N(0, sigma_j^2), is read
from the same profile.

CDFs follow the strict-inequality convention F(x) = P(X < x); tail functionals
such as E[X^2; |X| > t] exclude atoms located exactly at the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gaussian import (
    norm_cdf,
    norm_central_prob,
    normal_abs_moment,
    normal_tail_second_moment,
    upper_x_sf_integral,
    x2_antiderivative,
)

_SQRT3 = math.sqrt(3.0)
_LN2 = math.log(2.0)
# Summand matrix size per draw in batch_normalized_sums; bounds its memory.
_MAX_DRAW_ENTRIES = 1 << 16


class FamilyConfigError(ValueError):
    """Unknown family kind or invalid family parameters."""


# ---------------------------------------------------------------------------
# Standardized laws (zero mean, unit variance)
# ---------------------------------------------------------------------------


class Law:
    """Interface for a standardized (zero-mean, unit-variance) summand law."""

    name: str = ""
    is_discrete: bool = False
    # (lo, hi) outside of which the law carries no mass; +-inf when unbounded
    support: tuple[float, float] = (-math.inf, math.inf)
    # (points, masses) for discrete laws, None otherwise
    atoms: Optional[tuple[np.ndarray, np.ndarray]] = None

    def cdf(self, z):
        """P(Z < z), left-continuous at atoms."""
        raise NotImplementedError

    def abs_moment(self, order: float) -> float:
        """E|Z|^order, closed form."""
        raise NotImplementedError

    def tail_second_moment(self, t):
        """E[Z^2; |Z| > t] for t >= 0 (strict inequality at atoms)."""
        raise NotImplementedError

    def central_prob(self, t):
        """P(|Z| <= t); the complement P(|Z| > t) uses strict inequality."""
        raise NotImplementedError

    def rotar_unit_tail(self, t):
        """integral_{|z|>t} |z| * |F(z) - Phi(z)| dz, closed form."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def batch_sums(self, rng: np.random.Generator, ks: np.ndarray):
        """Vectorized draws of S_k for an array of counts, or None.

        Only laws whose k-fold sum has an exactly samplable distribution
        provide this; it is the Monte Carlo fast path.
        """
        return None


class RademacherLaw(Law):
    """P(Z = +1) = P(Z = -1) = 1/2."""

    name = "rademacher"
    is_discrete = True
    support = (-1.0, 1.0)

    def __init__(self):
        self.atoms = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= -1.0, 0.0, np.where(z <= 1.0, 0.5, 1.0))

    def abs_moment(self, order):
        return 1.0

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, 1.0, 0.0)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 1.0, 1.0, 0.0)

    def rotar_unit_tail(self, t):
        # |F - Phi| equals Phi(z) - 1/2 on 0 < z <= 1 and 1 - Phi(z) beyond;
        # both halves contribute equally by symmetry.
        t = np.asarray(t, dtype=float)
        t = np.maximum(t, 0.0)
        inner_hi = _x_phi_minus_half(np.minimum(t, 1.0))
        inner = _x_phi_minus_half(1.0) - inner_hi
        outer = upper_x_sf_integral(np.maximum(t, 1.0))
        return 2.0 * (np.where(t < 1.0, inner, 0.0) + outer)

    def sample(self, rng, size=None):
        return rng.integers(0, 2, size=size) * 2.0 - 1.0

    def batch_sums(self, rng, ks):
        return 2.0 * rng.binomial(ks, 0.5) - ks


def _x_phi_minus_half(z):
    """Antiderivative of z * (Phi(z) - 1/2)."""
    z = np.asarray(z, dtype=float)
    return 0.5 * z * z * (norm_cdf(z) - 0.5) - 0.5 * x2_antiderivative(z)


class UniformLaw(Law):
    """Uniform on [-sqrt(3), sqrt(3)] (unit variance)."""

    name = "uniform"
    support = (-_SQRT3, _SQRT3)

    def __init__(self):
        self._sign_root = None

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.clip((z + _SQRT3) / (2.0 * _SQRT3), 0.0, 1.0)

    def abs_moment(self, order):
        return 3.0 ** (0.5 * order) / (order + 1.0)

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        t = np.clip(t, 0.0, _SQRT3)
        return 1.0 - t**3 / (3.0 * _SQRT3)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip(t / _SQRT3, 0.0, 1.0)

    def _diff(self, z):
        return self.cdf(z) - norm_cdf(z)

    @property
    def sign_root(self) -> float:
        """Unique z in (0, sqrt(3)) where F - Phi changes sign."""
        if self._sign_root is None:
            from scipy.optimize import brentq

            self._sign_root = brentq(self._diff, 1e-8, _SQRT3 - 1e-12, xtol=1e-15)
        return self._sign_root

    def _antideriv(self, z):
        # integral of z * (F(z) - Phi(z)) dz on [0, sqrt(3)]
        z = np.asarray(z, dtype=float)
        poly = 0.25 * z * z + z**3 / (6.0 * _SQRT3)
        gauss = 0.5 * z * z * norm_cdf(z) - 0.5 * x2_antiderivative(z)
        return poly - gauss

    def rotar_unit_tail(self, t):
        t = np.asarray(t, dtype=float)
        t = np.maximum(t, 0.0)
        zs = self.sign_root
        # F - Phi is negative on (0, z*), positive on (z*, sqrt(3)), and equals
        # 1 - Phi beyond the support edge; symmetric in z -> -z.
        h = self._antideriv
        neg = np.where(t < zs, -(h(zs) - h(np.minimum(t, zs))), 0.0)
        pos = np.where(t < _SQRT3, h(_SQRT3) - h(np.clip(t, zs, _SQRT3)), 0.0)
        outer = upper_x_sf_integral(np.maximum(t, _SQRT3))
        return 2.0 * (neg + pos + outer)

    def sample(self, rng, size=None):
        return rng.uniform(-_SQRT3, _SQRT3, size=size)


class NormalLaw(Law):
    """Standard normal: F_j is its own matched normal law Phi_j."""

    name = "normal"

    def cdf(self, z):
        return norm_cdf(z)

    def abs_moment(self, order):
        return normal_abs_moment(order)

    def tail_second_moment(self, t):
        return normal_tail_second_moment(t)

    def central_prob(self, t):
        return norm_central_prob(t)

    def rotar_unit_tail(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def sample(self, rng, size=None):
        return rng.standard_normal(size)

    def batch_sums(self, rng, ks):
        return rng.standard_normal(len(ks)) * np.sqrt(ks)


class CenteredExponentialLaw(Law):
    """Exp(1) shifted by -1: support [-1, inf), zero mean, unit variance."""

    name = "expcentered"
    support = (-1.0, math.inf)

    def __init__(self):
        self._roots = None

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= -1.0, -np.expm1(-(z + 1.0)), 0.0)

    def abs_moment(self, order):
        # integral_0^1 u^order e^(u-1) du (the part below 0) via the
        # exponential series, plus Gamma(order + 1) / e for the part above
        lower = 0.0
        fact = 1.0
        for m in range(0, 40):
            if m > 0:
                fact *= m
            lower += 1.0 / (fact * (order + m + 1.0))
        return lower / math.e + math.gamma(order + 1.0) / math.e

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        right = np.exp(-(t + 1.0)) * (t * t + 2.0 * t + 2.0)
        tl = np.minimum(t, 1.0)
        left = 1.0 - np.exp(tl - 1.0) * (tl * tl - 2.0 * tl + 2.0)
        return right + np.where(t < 1.0, left, 0.0)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.maximum(0.0, 1.0 - t)) - np.exp(-(1.0 + t))

    def _diff(self, z):
        return float(self.cdf(z) - norm_cdf(z))

    @property
    def sign_roots(self) -> tuple[float, float]:
        """Roots of F - Phi: one in (-1, 0), one past the mode crossing."""
        if self._roots is None:
            from scipy.optimize import brentq

            r1 = brentq(self._diff, -1.0 + 1e-13, 0.0, xtol=1e-15)
            r2 = brentq(self._diff, 1.0, 3.0, xtol=1e-15)
            self._roots = (r1, r2)
        return self._roots

    @staticmethod
    def _antideriv(z):
        # integral of z * (F(z) - Phi(z)) dz for z >= -1
        z = np.asarray(z, dtype=float)
        expo = 0.5 * z * z + (z + 1.0) * np.exp(-(z + 1.0))
        gauss = 0.5 * z * z * norm_cdf(z) - 0.5 * x2_antiderivative(z)
        return expo - gauss

    def rotar_unit_tail(self, t):
        t = np.asarray(t, dtype=float)
        t = np.maximum(t, 0.0)
        r1, r2 = self.sign_roots
        G = self._antideriv
        # Left side, z < -t.  Below -1: F = 0, so |z||F-Phi| = -z Phi(z) and
        # the whole tail is integral_{max(t,1)}^{inf} u Phi(-u) du.
        left_far = upper_x_sf_integral(np.maximum(t, 1.0))
        # Between -1 and -t (only when t < 1): h < 0 on (-1, r1), h > 0 after.
        a = -np.minimum(t, 1.0)  # upper end of |z|>t on the negative axis
        lo = -1.0
        # piece (-1, min(a, r1)): h < 0, z < 0 so |z||h| = z h -> +Delta G
        p1_hi = np.minimum(a, r1)
        left_neg = np.where(p1_hi > lo, G(p1_hi) - G(lo), 0.0)
        # piece (r1, min(a, 0)): h > 0, z < 0 -> -Delta G
        p2_hi = np.minimum(a, 0.0)
        left_pos = np.where(p2_hi > r1, -(G(p2_hi) - G(r1)), 0.0)
        left_mid = np.where(t < 1.0, left_neg + left_pos, 0.0)
        # Right side, z > t: h > 0 on (0, r2), h < 0 beyond.
        b = np.maximum(t, 0.0)
        q1_lo = np.minimum(b, r2)
        right_pos = np.where(r2 > b, G(r2) - G(q1_lo), 0.0)
        # beyond r2: |h| = e^{-(z+1)} - Phi_c(z); both terms closed form
        far_lo = np.maximum(b, r2)
        right_neg = (far_lo + 1.0) * np.exp(-(far_lo + 1.0)) - upper_x_sf_integral(
            far_lo
        )
        return left_far + left_mid + right_pos + right_neg

    def sample(self, rng, size=None):
        return rng.standard_exponential(size) - 1.0

    def batch_sums(self, rng, ks):
        return rng.standard_gamma(ks) - ks


# ---------------------------------------------------------------------------
# Standard deviation profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantProfile:
    """sigma_j = sigma for every j (i.i.d. scaling)."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise FamilyConfigError(f"sigma must be positive and finite: {self.sigma}")

    @property
    def is_constant(self) -> bool:
        return True

    def log_variance_at(self, j):
        return np.full_like(np.asarray(j, dtype=float), 2.0 * math.log(self.sigma))

    def log_b_squared(self, n):
        return np.log(np.asarray(n, dtype=float)) + 2.0 * math.log(self.sigma)

    def log_sum_sigma_pow(self, n, power):
        return np.log(np.asarray(n, dtype=float)) + power * math.log(self.sigma)

    def b2_over_max_var(self, k):
        """B_k^2 / max_{j<=k} sigma_j^2 = k."""
        return np.asarray(k, dtype=float)

    def weights(self, k: int) -> np.ndarray:
        """sigma_j / B_k for j = 1..k."""
        return np.full(k, 1.0 / math.sqrt(k))


def _log1mexp(a):
    """log(1 - e^-a) for a > 0, accurate on both sides of a = ln 2.

    log1p(-e^-a) cancels as a -> 0 (ratio near 1), log(-expm1(-a)) as a grows;
    the split is Maechler's "Accurately computing log(1 - exp(-|a|))" (2012).
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(a < _LN2, np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


@dataclass(frozen=True)
class GeometricProfile:
    """sigma_j^2 = ratio^(j-1); ratio > 1 gives exploding variances."""

    ratio: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.ratio < math.inf) or self.ratio == 1.0:
            raise FamilyConfigError(
                f"variance ratio must be positive, finite and != 1: {self.ratio}"
            )

    @property
    def is_constant(self) -> bool:
        return False

    def log_variance_at(self, j):
        j = np.asarray(j, dtype=float)
        return (j - 1.0) * math.log(self.ratio)

    def log_b_squared(self, n):
        return self.log_sum_sigma_pow(n, 2.0)

    def log_sum_sigma_pow(self, n, power):
        # log of sum_{j<=n} q^(j-1) with q = ratio^(power/2)
        n = np.asarray(n, dtype=float)
        logq = 0.5 * power * math.log(self.ratio)
        if logq > 0:
            # (q^n - 1)/(q - 1) = q^(n-1) * (1 - q^-n) / (1 - 1/q)
            return n * logq + _log1mexp(n * logq) - logq - _log1mexp(logq)
        return _log1mexp(-n * logq) - _log1mexp(-logq)

    def b2_over_max_var(self, k):
        """B_k^2 / max_{j<=k} sigma_j^2 = expm1(k q) / expm1(q), q = -|log ratio|.

        The largest sigma_j is sigma_k when ratio > 1 and sigma_1 otherwise;
        either way the share is a sum of e^(q i), i = 0..k-1, whose expm1
        form has no cancellation near ratio 1 (the (r - r^(1-k)) / (r - 1)
        form loses ~1e-16 / (k |r - 1|) of relative precision).  Elementwise
        math.expm1, not np.expm1: numpy's SIMD loops round differently from
        libm on some hosts, and the summand weights must keep their bits.
        """
        q = -abs(math.log(self.ratio))
        if np.ndim(k) == 0:  # one call per realized k from weights
            return math.expm1(k * q) / math.expm1(q)
        x = np.asarray(k, dtype=float) * q
        num = np.full_like(x, -1.0)  # expm1 is exactly -1.0 below -40
        live = x > -40.0
        num[live] = [math.expm1(v) for v in x[live].tolist()]
        return num / math.expm1(q)

    def weights(self, k: int) -> np.ndarray:
        """sigma_j / B_k for the j <= k whose weight exceeds e^-42 (~5e-19).

        Smaller weights cannot move a float64 sum.  The logs are taken
        relative to the largest sigma_j, through b2_over_max_var:
        subtracting log B_k from log sigma_j would cost up to ~1e-9 of the
        unit sum of squares near ratio 1, and ~1e-12 once k is in the
        thousands.
        """
        q = -abs(math.log(self.ratio))
        # steps below the largest sigma_j, which is j = k when ratio > 1
        steps = np.arange(k - 1, -1, -1) if self.ratio > 1.0 else np.arange(k)
        logw = 0.5 * (q * steps - math.log(self.b2_over_max_var(k)))
        return np.exp(logw[logw > -42.0])


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummandFamily:
    """An indexed sequence of independent zero-mean summands sigma_j * Z."""

    kind: str
    law: Law
    profile: object
    params: dict = field(default_factory=dict)

    def batch_normalized_sums(self, rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
        """Draws of S_k / B_k for an array of realized indices, all from rng.

        Laws with an exactly samplable k-fold sum (binomial, gamma, normal)
        and the all-normal geometric profile draw one value per trial.  Every
        other family groups the trials by k and multiplies (rows x k) summand
        matrices, at most _MAX_DRAW_ENTRIES entries each (one row when k is
        larger), by the weights sigma_j / B_k.
        """
        if self.profile.is_constant:
            sums = self.law.batch_sums(rng, ks)
            if sums is not None:
                return sums / np.sqrt(ks)
        elif isinstance(self.law, NormalLaw):
            # weighted sum of independent normals is normal with variance B_k^2
            return rng.standard_normal(len(ks))
        out = np.empty(len(ks))
        order = np.argsort(ks, kind="stable")
        uniq, starts = np.unique(ks[order], return_index=True)
        ends = np.append(starts[1:], len(ks))
        for k, lo, hi in zip(uniq, starts, ends):
            w = self.profile.weights(int(k))
            rows = max(1, _MAX_DRAW_ENTRIES // len(w))
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                out[order[a:b]] = self.law.sample(rng, size=(b - a, len(w))) @ w
        return out


# ---------------------------------------------------------------------------
# Factory and CLI grammar
# ---------------------------------------------------------------------------

_LAWS = {
    "rademacher": RademacherLaw,
    "uniform": UniformLaw,
    "normal": NormalLaw,
    "expcentered": CenteredExponentialLaw,
}


def make_family(kind: str, **params) -> SummandFamily:
    """Construct a built-in family.

    Kinds: rademacher | uniform | normal[, sigma=s] | expcentered
           | geomnormal[, ratio=r]   (normal summands, sigma_j^2 = r^(j-1))
           | twopoint[, growth=r]    (two-point +-sigma_j, sigma_j^2 = r^(j-1))
    """
    kind = kind.lower()
    if kind in ("rademacher", "uniform", "expcentered"):
        _reject_extra(kind, params, ())
        return SummandFamily(kind=kind, law=_LAWS[kind](), profile=ConstantProfile())
    if kind == "normal":
        _reject_extra(kind, params, ("sigma",))
        sigma = float(params.get("sigma", 1.0))
        return SummandFamily(
            kind=kind, law=NormalLaw(), profile=ConstantProfile(sigma=sigma),
            params={"sigma": sigma},
        )
    if kind == "geomnormal":
        _reject_extra(kind, params, ("ratio",))
        ratio = float(params.get("ratio", 2.0))
        return SummandFamily(
            kind=kind, law=NormalLaw(), profile=GeometricProfile(ratio=ratio),
            params={"ratio": ratio},
        )
    if kind == "twopoint":
        _reject_extra(kind, params, ("growth",))
        growth = float(params.get("growth", 2.0))
        return SummandFamily(
            kind=kind, law=RademacherLaw(), profile=GeometricProfile(ratio=growth),
            params={"growth": growth},
        )
    raise FamilyConfigError(f"unknown family kind: {kind!r}")


def _reject_extra(kind, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise FamilyConfigError(f"family {kind!r} got unknown parameters: {sorted(extra)}")


def parse_family(spec: str) -> SummandFamily:
    """Parse the flag grammar '[family=]<kind>[,<key>=<value>...]'."""
    spec = spec.strip()
    if spec.startswith("family="):
        spec = spec[len("family="):]
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise FamilyConfigError("empty family spec")
    kind = parts[0]
    params = {}
    for item in parts[1:]:
        if "=" not in item:
            raise FamilyConfigError(f"malformed family parameter {item!r} in {spec!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError as exc:
            raise FamilyConfigError(f"non-numeric family parameter {item!r}") from exc
    return make_family(kind, **params)


def family_spec_string(family: SummandFamily) -> str:
    """Inverse of parse_family for --print-config round trips."""
    if not family.params:
        return family.kind
    items = ",".join(f"{k}={v:g}" for k, v in sorted(family.params.items()))
    return f"{family.kind},{items}"


BUILTIN_FAMILY_KINDS = (
    "rademacher",
    "uniform",
    "normal",
    "geomnormal",
    "twopoint",
    "expcentered",
)

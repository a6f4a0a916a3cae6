"""Summand distribution families: standardized laws times sigma profiles.

Every built-in family is a scale family: the j-th summand is sigma_j * Z for a
fixed zero-mean, unit-variance standardized law Z and a deterministic standard
deviation profile sigma_j.  This covers the i.i.d. families (constant profile)
and the heterogeneous exploding-variance families (geometric profile), keeps
all moment and tail functionals exact, and makes the cumulative variance
closed-form even where the float64 value would overflow (log-space accessors).
The matched normal sequence of Rotar's condition, N(0, sigma_j^2), is read
from the same profile.

A law's CDF F(x) = P(X < x), strict at atoms, enters only through the
closed-form Rotar tails, so the laws carry no CDF or support of their own:
the tests keep both as oracles (tests/oracles.py).  Tail functionals such as
E[X^2; |X| > t] exclude atoms located exactly at the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

import numpy as np

from .gaussian import (
    norm_central_prob,
    norm_pdf_cdf_sf,
    normal_abs_moment,
    normal_tail_second_moment,
    piecewise,
    upper_x_sf_integral,
)
from .indices import _stirlerr

_SQRT3 = math.sqrt(3.0)
_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
# series terms of _two_kl_half: 0.49^48 / (48 * 95) is below 2^-60
_KL_TERMS = 48
# Summand matrix size per draw in batch_normalized_sums; bounds its memory.
_MAX_DRAW_ENTRIES = 1 << 16
# Summands one trial may draw (the length of its weights), past which a
# simulation is refused: 10^8 of them take ~0.8 GB and their weights as much.
_MAX_TRIAL_DRAWS = 10**8


class FamilyConfigError(ValueError):
    """Unknown family kind or invalid family parameters."""


# ---------------------------------------------------------------------------
# Standardized laws (zero mean, unit variance)
# ---------------------------------------------------------------------------


class Law:
    """A standardized (zero-mean, unit-variance) summand law.

    Each law supplies the first four in closed form:
      abs_moment(order)      E|Z|^order;
      tail_second_moment(t)  E[Z^2; |Z| > t] for t >= 0 (strict inequality at atoms);
      central_prob(t)        P(|Z| <= t); the complement P(|Z| > t) is strict;
      rotar_unit_tail(t)     integral_{|z|>t} |z| * |F(z) - Phi(z)| dz;
      sample(rng, size)      size draws of Z.
    """

    # (points, masses) for discrete laws, None otherwise
    atoms: Optional[tuple[np.ndarray, np.ndarray]] = None

    def batch_sums(self, rng: np.random.Generator, ks, size: Optional[int] = None):
        """Vectorized draws of S_k, one per trial, or None.

        ks is an array of counts, one per trial, or one count shared by all
        `size` trials (a det index), which numpy draws with a scalar shape:
        the same values as the array, with no per-trial shape to read.
        Only laws whose k-fold sum has an exactly samplable distribution
        provide this; it is the Monte Carlo fast path.
        """
        return None


def _gauss_antideriv(z, pdf, cdf):
    """integral_{-inf}^{z} u * Phi(u) du from phi(z) and Phi(z)."""
    return 0.5 * z * z * cdf - 0.5 * (cdf - z * pdf)


def _x_phi_minus_half(z):
    """Antiderivative of z * (Phi(z) - 1/2)."""
    pdf, cdf, _ = norm_pdf_cdf_sf(z)
    return 0.5 * z * z * (cdf - 0.5) - 0.5 * (cdf - z * pdf)


class RademacherLaw(Law):
    """P(Z = +1) = P(Z = -1) = 1/2."""

    _x_phi_at_atom = float(_x_phi_minus_half(1.0))
    _upper_at_atom = float(upper_x_sf_integral(1.0))

    def __init__(self):
        self.atoms = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

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
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return 2.0 * piecewise(t, (1.0,), (self._inside, upper_x_sf_integral))

    def _inside(self, t):
        # t < 1: the band (t, 1) and the whole tail past the atom
        return (self._x_phi_at_atom - _x_phi_minus_half(t)) + self._upper_at_atom

    def sample(self, rng, size=None):
        return rng.integers(0, 2, size=size) * 2.0 - 1.0

    def batch_sums(self, rng, ks, size=None):
        # S_k = 2 H - k, H ~ Binomial(k, 1/2)
        heads = rng.binomial(ks, 0.5, size)
        heads *= 2
        heads -= ks
        return heads


def half_binomial_pmf(k, h):
    """P(H = h) for H ~ Binomial(k, 1/2), elementwise over integers 0 <= h <= k.

    Loader's saddle-point form, as R's dbinom: log p is stirlerr(k) -
    stirlerr(h) - stirlerr(k - h) - k KL(h/k || 1/2) - log(2 pi h (k - h)
    / k) / 2, whose terms do not cancel.  Against exact integer ratios, p
    is within 4e-13 relative wherever that is a normal float (the worst
    seen over every cell of k < 400 and rows up to k = 2^17); the end
    cells h = 0 and h = k are 2^-k exactly.  No log of 0 is taken.
    """
    k = np.asarray(k, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    p = np.ldexp(1.0, -k)
    inner = (h > 0) & (h < k)
    n, x = k[inner].astype(float), h[inner].astype(float)
    log_p = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
    log_p -= 0.5 * (_LN_2PI + np.log(x) + np.log1p(-x / n))
    log_p -= 0.5 * n * _two_kl_half(x, n)  # the one large term, rounded once
    p[inner] = np.exp(log_p)
    return p


def _two_kl_half(x, n):
    """2 KL(x/n || 1/2) = (1 + d) log(1 + d) + (1 - d) log(1 - d), d = (2x - n) / n.

    For |d| <= 0.7 by its series, the sum of u^m / (m (2m - 1)) with
    u = d^2, whose terms are positive and fall by u each: _KL_TERMS of
    them, by Horner's rule from the smallest, leave out less than 2^-60 of
    the sum.  Beyond, the two logs cancel by at most 2.3x.  Loader's bd0
    form, x log(x / mu) + mu - x, loses ~1e-12 of the pmf near |d| = 0.2
    at k = 3e4.
    """
    a, b = 2.0 * x / n, 2.0 * (n - x) / n
    out = a * np.log(a) + b * np.log(b)
    near = np.abs(2.0 * x - n) <= 0.7 * n
    u = np.square(2.0 * x[near] - n[near]) / np.square(n[near])  # one rounding
    s = np.full_like(u, 1.0 / (_KL_TERMS * (2 * _KL_TERMS - 1)))
    for m in range(_KL_TERMS - 1, 0, -1):
        s *= u
        s += 1.0 / (m * (2 * m - 1))
    out[near] = s * u
    return out


def _uniform_antideriv(z):
    """integral of z * (F(z) - Phi(z)) dz on [0, sqrt(3)]."""
    z = np.asarray(z, dtype=float)
    pdf, cdf, _ = norm_pdf_cdf_sf(z)
    poly = 0.25 * z * z + z**3 / (6.0 * _SQRT3)
    return poly - _gauss_antideriv(z, pdf, cdf)


class UniformLaw(Law):
    """Uniform on [-sqrt(3), sqrt(3)] (unit variance)."""

    # The z in (0, sqrt(3)) where F - Phi changes sign: the float that brentq
    # returns over Cephes' ndtr (the tests check it and its bracket).
    sign_root = 1.5011307831938003
    _h_root = float(_uniform_antideriv(sign_root))
    _h_edge = float(_uniform_antideriv(_SQRT3))
    _upper_edge = float(upper_x_sf_integral(_SQRT3))

    def abs_moment(self, order):
        return 3.0 ** (0.5 * order) / (order + 1.0)

    def tail_second_moment(self, t):
        # exactly 0 from the support edge on, where central_prob reads 1
        t = np.asarray(t, dtype=float)
        inside = 1.0 - np.clip(t, 0.0, _SQRT3) ** 3 / (3.0 * _SQRT3)
        return np.where(t >= _SQRT3, 0.0, inside)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip(t / _SQRT3, 0.0, 1.0)

    def rotar_unit_tail(self, t):
        # F - Phi is negative on (0, z*), positive on (z*, sqrt(3)), and equals
        # 1 - Phi beyond the support edge; symmetric in z -> -z.
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return 2.0 * piecewise(
            t, (self.sign_root, _SQRT3),
            (self._below_root, self._inside, upper_x_sf_integral),
        )

    def _below_root(self, t):
        neg = -(self._h_root - _uniform_antideriv(t))
        return (neg + (self._h_edge - self._h_root)) + self._upper_edge

    def _inside(self, t):
        return (self._h_edge - _uniform_antideriv(t)) + self._upper_edge

    def sample(self, rng, size=None):
        # rng.uniform(-sqrt(3), sqrt(3), size) computes low + (high - low) U:
        # the same two roundings, in place
        u = rng.random(size)
        u *= 2.0 * _SQRT3
        u -= _SQRT3
        return u


class NormalLaw(Law):
    """Standard normal: F_j is its own matched normal law Phi_j."""

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


def _exp_antideriv(z, pdf, cdf):
    """integral of z * (F(z) - Phi(z)) dz for z >= -1, given phi(z) and Phi(z)."""
    expo = 0.5 * z * z + (z + 1.0) * np.exp(-(z + 1.0))
    return expo - _gauss_antideriv(z, pdf, cdf)


def _exp_antideriv_at(z):
    return float(_exp_antideriv(z, *norm_pdf_cdf_sf(z)[:2]))


def _exp_far_tail(t):
    """The expcentered unit tail for t >= r2: integral_t^inf z e^{-(z+1)} dz.

    Past t = 800 the value underflows to 0; the clamp keeps inf * 0 out.
    """
    u = np.minimum(t, 800.0) + 1.0
    return u * np.exp(-u)


class CenteredExponentialLaw(Law):
    """Exp(1) shifted by -1: support [-1, inf), zero mean, unit variance."""

    # The roots r1 in (-1, 0) and r2 in (1, 3) of F - Phi: the floats that
    # brentq returns over Cephes' ndtr (the tests check them and their brackets).
    sign_roots = (-0.7384974064988994, 1.2532517722799263)
    _g_edge = _exp_antideriv_at(-1.0)
    _g_root_lo = _exp_antideriv_at(sign_roots[0])
    _g_root_hi = _exp_antideriv_at(sign_roots[1])
    _upper_at_edge = float(upper_x_sf_integral(1.0))
    _right_neg_at_root = float(_exp_far_tail(sign_roots[1]) - upper_x_sf_integral(sign_roots[1]))

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
        tr = np.minimum(t, 800.0)  # the right tail underflows to 0 there; keeps inf * 0 out
        right = np.exp(-(tr + 1.0)) * (tr * tr + 2.0 * tr + 2.0)
        tl = np.minimum(t, 1.0)
        left = 1.0 - np.exp(tl - 1.0) * (tl * tl - 2.0 * tl + 2.0)
        return right + np.where(t < 1.0, left, 0.0)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.maximum(0.0, 1.0 - t)) - np.exp(-(1.0 + t))

    def rotar_unit_tail(self, t):
        # Left side, z < -t: F = 0 below -1, so |z||F - Phi| = -z Phi(z) there,
        # whose whole tail is integral_{max(t,1)}^{inf} u Phi(-u) du; on
        # (-1, 0), h = F - Phi is < 0 below r1 and > 0 above.  Right side,
        # z > t: h > 0 on (0, r2) and |h| = e^{-(z+1)} - Phi_c(z) beyond, so
        # past r2 the Gaussian parts of the two sides cancel.
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return piecewise(
            t, (1.0, self.sign_roots[1]), (self._inside, self._past_edge, _exp_far_tail)
        )

    def _inside(self, t):
        # t < 1: the left side reaches into (-1, -t), the right into (t, r2)
        pdf, cdf, sf = norm_pdf_cdf_sf(t)
        g_left = _exp_antideriv(-t, pdf, sf)
        left_mid = np.where(
            t < -self.sign_roots[0],
            self._g_root_lo - self._g_edge + (-(g_left - self._g_root_lo)),
            g_left - self._g_edge,
        )
        right_pos = self._g_root_hi - _exp_antideriv(t, pdf, cdf)
        return ((self._upper_at_edge + left_mid) + right_pos) + self._right_neg_at_root

    def _past_edge(self, t):
        # 1 <= t < r2: the left side lies below the support edge
        pdf, cdf, _ = norm_pdf_cdf_sf(t)
        right_pos = self._g_root_hi - _exp_antideriv(t, pdf, cdf)
        return (upper_x_sf_integral(t) + right_pos) + self._right_neg_at_root

    def sample(self, rng, size=None):
        return rng.standard_exponential(size) - 1.0

    def batch_sums(self, rng, ks, size=None):
        sums = rng.standard_gamma(ks, size)
        sums -= ks
        return sums


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

    def log_b_squared(self, n):
        return np.log(np.asarray(n, dtype=float)) + 2.0 * math.log(self.sigma)

    def log_sum_sigma_pow(self, n, power):
        return np.log(np.asarray(n, dtype=float)) + power * math.log(self.sigma)

    def b2_over_max_var(self, k):
        """B_k^2 / max_{j<=k} sigma_j^2 = k."""
        return np.asarray(k, dtype=float)

    def weight_keys(self, ks: np.ndarray) -> list:
        """ks as a list: each k has its own weights."""
        return ks.tolist()

    def weights(self, k: int) -> np.ndarray:
        """sigma_j / B_k for j = 1..k, from the weight key k."""
        return np.full(_checked_draws(k), 1.0 / math.sqrt(k))


def _checked_draws(count: int) -> int:
    """count, the summands of one trial, unless past _MAX_TRIAL_DRAWS."""
    if count > _MAX_TRIAL_DRAWS:
        raise ValueError(
            f"a trial needs {count} summand draws, past the cap of {_MAX_TRIAL_DRAWS}"
        )
    return count


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

    @property
    def log_step(self) -> float:
        """q = -|log ratio|: log sigma_j^2 one step below sigma_j'^2, the larger."""
        return -abs(math.log(self.ratio))

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
        q = self.log_step
        x = np.asarray(k, dtype=float) * q
        num = np.full_like(x, -1.0)  # expm1 is exactly -1.0 below -40
        live = x > -40.0
        num[live] = [math.expm1(v) for v in x[live].tolist()]
        return num / math.expm1(q)

    def weight_keys(self, ks: np.ndarray) -> list:
        """(log S_k, kept steps) for each k of ks: the key from which weights builds.

        Past ~45 / |q| steps S_k rounds to one float and the kept steps stop
        growing, so every larger k has the same weights.  Equal keys give
        equal weights; two keys can share weights when the last kept step
        falls below e^-42.  math.log, not numpy's SIMD log, keeps the bits.
        """
        q = self.log_step
        log_s = map(math.log, self.b2_over_max_var(ks).tolist())
        return [(s, min(k, math.ceil((84.0 - s) / -q) + 1)) for k, s in zip(ks.tolist(), log_s)]

    def weights(self, key: tuple) -> np.ndarray:
        """sigma_j / B_k, in the order of j, for the j <= k whose weight exceeds e^-42.

        key is k's weight key (log S_k, kept steps).  Smaller weights
        (~5e-19) cannot move a float64 sum.  The weight i steps below the
        largest sigma_j is exp((q i - log S_k) / 2) with S_k from
        b2_over_max_var: subtracting log B_k from log sigma_j would cost up
        to ~1e-9 of the unit sum of squares near ratio 1, and ~1e-12 once k
        is in the thousands.  Only the kept steps, up to (84 - log S_k) /
        |q| + 1 and at most ceil(84 / |q|) + 1 of them, are built.
        """
        log_s, kept = key
        steps = np.arange(_checked_draws(kept))
        if self.ratio > 1.0:  # the largest sigma_j is j = k
            steps = steps[::-1]
        logw = 0.5 * (self.log_step * steps - log_s)
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

    @property
    def index_free(self) -> bool:
        """S_k / B_k is N(0, 1) for every k, under either profile.

        True of the normal law: a weighted sum of independent normals is
        normal with variance B_k^2.  Its draws need no index.
        """
        return isinstance(self.law, NormalLaw)

    def batch_normalized_sums(
        self, rng: np.random.Generator, ks, size: Optional[int] = None
    ) -> np.ndarray:
        """Draws of S_k / B_k for an array of realized indices, all from rng.

        ks is an array of indices, one per trial, or one index shared by
        `size` trials (a det index), as in Law.batch_sums.  Laws with an
        exactly samplable k-fold sum (binomial, gamma) draw one value per
        trial on a constant profile.  Every other family sorts the trials by
        k (stably), groups each run of k with equal weights sigma_j / B_k
        (weight_keys), and packs the groups' rows into chunks (_chunks): one
        law.sample call per chunk of at most _MAX_DRAW_ENTRIES entries (one
        row when w is longer), cut into each group's contiguous (rows x
        len(w)) matrix and multiplied by its w.  The bits are those of one
        group per k: the trials keep their order; integers(0, 2) takes one
        32-bit half of a 64-bit word per value and the generator keeps the
        unused half between calls, and random takes one word per value, so
        a chunk draws what its groups' matrices would one by one; and einsum
        without optimize reduces each row alone in a fixed order, where a
        BLAS product's bits vary with its thread count.
        """
        size = len(ks) if size is None else size
        if self.profile.is_constant:
            sums = self.law.batch_sums(rng, ks, size)
            if sums is not None:  # a fresh float sum divides in place, integer heads cannot
                return np.divide(sums, np.sqrt(ks), out=sums if sums.dtype == float else None)
        ks = np.broadcast_to(ks, size)
        out = np.empty(len(ks))
        order = np.argsort(ks, kind="stable")
        uniq, starts = np.unique(ks[order], return_index=True)
        keys = self.profile.weight_keys(uniq)
        new = [a != b for a, b in zip([None] + keys, keys)]  # each run of equal weights
        starts = starts[new].tolist()
        groups = (
            (self.profile.weights(key), lo, hi)
            for key, lo, hi in zip(compress(keys, new), starts, starts[1:] + [len(ks)])
        )
        for chunk in _chunks(groups):
            m = self.law.sample(rng, size=sum((b - a) * len(w) for w, a, b in chunk))
            at = 0
            for w, a, b in chunk:
                rows = m[at:at + (b - a) * len(w)].reshape(b - a, len(w))
                out[order[a:b]] = np.einsum("ij,j->i", rows, w)
                at += rows.size
        return out


def _chunks(groups):
    """The rows of groups (w, lo, hi), in order, packed into lists of (w, a, b).

    A list takes rows while their len(w) entries fit in _MAX_DRAW_ENTRIES;
    a row longer than that is a list of its own.  The weights come from the
    groups one at a time, as the lists reach them.
    """
    chunk, room = [], _MAX_DRAW_ENTRIES
    for w, lo, hi in groups:
        while lo < hi:
            rows = min(hi - lo, max(room // len(w), int(not chunk)))
            if not rows:
                yield chunk
                chunk, room = [], _MAX_DRAW_ENTRIES
                continue
            chunk.append((w, lo, lo + rows))
            room -= rows * len(w)
            lo += rows
    if chunk:
        yield chunk


# ---------------------------------------------------------------------------
# Factory and CLI grammar
# ---------------------------------------------------------------------------

# kind -> (law, profile, the profile's settable parameter with its default:
# at most one), in the order of BUILTIN_FAMILY_KINDS
_KINDS = {
    "rademacher": (RademacherLaw, ConstantProfile, {}),
    "uniform": (UniformLaw, ConstantProfile, {}),
    "normal": (NormalLaw, ConstantProfile, {"sigma": 1.0}),
    "geomnormal": (NormalLaw, GeometricProfile, {"ratio": 2.0}),
    "twopoint": (RademacherLaw, GeometricProfile, {"growth": 2.0}),
    "expcentered": (CenteredExponentialLaw, ConstantProfile, {}),
}
BUILTIN_FAMILY_KINDS = tuple(_KINDS)


def make_family(kind: str, **params) -> SummandFamily:
    """Construct a built-in family.

    Kinds: rademacher | uniform | normal[, sigma=s] | expcentered
           | geomnormal[, ratio=r]   (normal summands, sigma_j^2 = r^(j-1))
           | twopoint[, growth=r]    (two-point +-sigma_j, sigma_j^2 = r^(j-1))
    """
    if kind not in _KINDS:
        raise FamilyConfigError(f"unknown family kind: {kind!r}")
    law, profile, defaults = _KINDS[kind]
    extra = set(params) - set(defaults)
    if extra:
        raise FamilyConfigError(f"family {kind!r} got unknown parameters: {sorted(extra)}")
    values = {key: float(params.get(key, default)) for key, default in defaults.items()}
    return SummandFamily(kind=kind, law=law(), profile=profile(*values.values()), params=values)


def parse_family(spec: str) -> SummandFamily:
    """Parse the flag grammar '<kind>[,<key>=<value>...]'."""
    spec = spec.strip()
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
    """Inverse of parse_family, written into the JSON outputs.

    Each parameter is its shortest round-trip repr, with a trailing '.0'
    dropped, so parse_family reads back the same floats.
    """
    if not family.params:
        return family.kind
    items = ",".join(
        f"{k}={v!r}".removesuffix(".0") for k, v in sorted(family.params.items())
    )
    return f"{family.kind},{items}"

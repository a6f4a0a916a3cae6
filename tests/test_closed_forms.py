"""Production closed forms against independent scipy quad or atom-sum oracles.

Every condition functional reads the standardized laws' closed forms through
the scale-family identity: the j-th summand is sigma_j * Z, so a tail
functional of X_j at threshold t is sigma_j^2 times the law's unit functional
at t / sigma_j.  The oracles here integrate in x against F_j(x) = F(x / sigma_j)
directly, so they share neither the closed forms nor the scaling step.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from oracles import cdf, density, sigma, variance
from randclt.conditions import random_rotar, rotar
from randclt.families import BUILTIN_FAMILY_KINDS, make_family
from randclt.indices import make_index
from randclt.rates import BUILTIN_TEST_FUNCTIONS

SQRT3 = math.sqrt(3.0)


def _tail_second(fam, j, t):
    """E[X_j^2; |X_j| > t] through Law.tail_second_moment, as lindeberg uses it."""
    s = sigma(fam, j)
    return s * s * float(fam.law.tail_second_moment(t / s))


def _rotar_tail(fam, j, t):
    """integral_{|x|>t} |x| |F_j - Phi_j| dx through Law.rotar_unit_tail."""
    s = sigma(fam, j)
    return s * s * float(fam.law.rotar_unit_tail(t / s))


def _tail_second_oracle(fam, j, t):
    """Independent route: strict atom sum, or scipy quad of x^2 dF_j(x)."""
    s = sigma(fam, j)
    law = fam.law
    if law.is_discrete:
        pts, masses = law.atoms
        x = s * pts
        keep = np.abs(x) > t  # strict: atoms at the threshold excluded
        return float(np.sum(masses[keep] * x[keep] ** 2))
    lo = s * max(law.support[0], -60.0)
    hi = s * min(law.support[1], 60.0)

    def integrand(x):
        return x * x * float(density(law, x / s)) / s

    total = 0.0
    if hi > t:
        total += quad(integrand, max(t, lo), hi, limit=400, epsabs=1e-14)[0]
    if lo < -t:
        total += quad(integrand, lo, min(-t, hi), limit=400, epsabs=1e-14)[0]
    return total


def _scipy_rotar_oracle(fam, j, threshold):
    """Independent route: scipy quad on |x| |F_j - Phi_j|.

    Kinks of the integrand (support edges and zero crossings of F - Phi) are
    located by dense scanning plus bisection and passed as quad breakpoints.
    """
    from scipy.optimize import brentq

    s = sigma(fam, j)

    def diff(x):
        return float(cdf(fam, j, x)) - ndtr(x / s)

    def integrand(x):
        return abs(x) * abs(diff(x))

    hi = 60.0 * s
    pts = [s, -s, s * SQRT3, -s * SQRT3]
    xs = np.linspace(-hi, hi, 20_001)
    vals = np.array([diff(x) for x in xs])
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        pts.append(brentq(diff, xs[i], xs[i + 1]))
    up, _ = quad(
        integrand, threshold, hi,
        points=[p for p in pts if threshold < p < hi], limit=800, epsabs=1e-13,
    )
    lo, _ = quad(
        integrand, -hi, -threshold,
        points=[p for p in pts if -hi < p < -threshold], limit=800, epsabs=1e-13,
    )
    return up + lo


class TestTailSecondMoment:
    def test_rademacher_outside_support(self):
        fam = make_family("rademacher")
        assert _tail_second(fam, 1, 1.5) == 0.0

    def test_rademacher_atoms_in_tail(self):
        # oracle: both atoms carry x^2 = 1 and lie beyond 0.5, not beyond 1
        fam = make_family("rademacher")
        assert _tail_second(fam, 1, 0.5) == 1.0
        assert _tail_second(fam, 1, 1.0) == 0.0

    def test_normal_small_threshold_gives_variance(self):
        fam = make_family("normal")
        assert _tail_second(fam, 1, 1e-12) == pytest.approx(1.0, abs=1e-8)

    def test_continuous_families_match_variance_at_zero_plus(self):
        for kind in ("uniform", "expcentered", "geomnormal"):
            fam = make_family(kind)
            value = _tail_second(fam, 3, 1e-12)
            assert value == pytest.approx(variance(fam, 3), rel=1e-8), kind

    def test_monotone_in_threshold(self):
        grid = [0.05, 0.2, 0.5, 0.9, 1.4, 2.2]
        for kind in ("rademacher", "uniform", "normal", "expcentered"):
            fam = make_family(kind)
            vals = [_tail_second(fam, 1, t) for t in grid]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-15, kind

    def test_every_law_matches_oracle(self):
        # vectorized evaluation, as the scale-mixture kernels call it
        grid = np.array([0.05, 0.4, 1.0, 1.3, 2.2, 5.0, 200.0])
        for kind in BUILTIN_FAMILY_KINDS:
            fam = make_family(kind)
            for j in (1, 3):
                s = sigma(fam, j)
                got = s * s * np.asarray(fam.law.tail_second_moment(grid / s))
                for t, value in zip(grid, got):
                    oracle = _tail_second_oracle(fam, j, float(t))
                    assert value == pytest.approx(oracle, rel=1e-9, abs=1e-13), (
                        kind, j, t,
                    )


class TestRotarTailIntegral:
    def test_all_normal_identically_zero(self):
        fam = make_family("geomnormal")
        for j, t in ((1, 0.3), (5, 2.0), (12, 17.0)):
            assert _rotar_tail(fam, j, t) == 0.0

    def test_rademacher_piecewise_closed_form(self):
        # oracle: symbolic piecewise integration, cross-checked with scipy quad
        fam = make_family("rademacher")
        value = _rotar_tail(fam, 1, 2.0)
        assert value == pytest.approx(0.03973153718183854, rel=1e-11)
        assert value == pytest.approx(_scipy_rotar_oracle(fam, 1, 2.0), rel=1e-9)

    def test_continuous_laws_match_scipy_oracle(self):
        for kind in ("uniform", "expcentered"):
            fam = make_family(kind)
            for t in (0.2, 0.8, 1.9):
                oracle = _scipy_rotar_oracle(fam, 1, t)
                assert _rotar_tail(fam, 1, t) == pytest.approx(oracle, abs=5e-10), (
                    kind, t,
                )

    def test_atomic_laws_match_scipy_oracle(self):
        # twopoint j=2 has atoms at +-sqrt(2): the unit tail scaled by sigma_2^2
        for kind, j in (("rademacher", 1), ("twopoint", 2), ("twopoint", 4)):
            fam = make_family(kind)
            for t in (0.2, 0.8, 1.9, 3.5):
                oracle = _scipy_rotar_oracle(fam, j, t)
                assert _rotar_tail(fam, j, t) == pytest.approx(
                    oracle, rel=1e-9, abs=1e-12
                ), (kind, j, t)

    def test_frozen_unit_values(self):
        # from the piecewise antiderivatives, verified against scipy quad
        cases = {
            "uniform": (0.5, 0.16411773318386416),
            "expcentered": (0.5, 0.31940293228759287),
            "rademacher": (0.5, 0.4515056316117354),
        }
        for kind, (t, expected) in cases.items():
            fam = make_family(kind)
            assert _rotar_tail(fam, 1, t) == pytest.approx(expected, rel=1e-9), kind

    def test_far_threshold_vanishes(self):
        fam = make_family("expcentered")
        assert 0.0 <= _rotar_tail(fam, 1, 120.0) <= 1e-13

    def test_monotone_in_threshold(self):
        for kind in ("rademacher", "uniform", "expcentered", "twopoint"):
            fam = make_family(kind)
            vals = [_rotar_tail(fam, 2, t) for t in (0.1, 0.4, 0.9, 1.6, 3.0)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-15, kind

    def test_symmetric_law_sides_balance(self):
        # the two half-line integrals agree for symmetric laws and sum to
        # the closed form
        for kind in ("rademacher", "uniform"):
            law = make_family(kind).law

            def integrand(z):
                return abs(z) * abs(float(law.cdf(z)) - ndtr(z))

            up = quad(integrand, 0.3, 12.0, points=[1.0, SQRT3], epsabs=1e-14)[0]
            dn = quad(integrand, -12.0, -0.3, points=[-SQRT3, -1.0], epsabs=1e-14)[0]
            assert up == pytest.approx(dn, abs=1e-10), kind
            assert float(law.rotar_unit_tail(0.3)) == pytest.approx(
                up + dn, abs=1e-10
            ), kind

    def test_threshold_must_be_positive(self):
        fam = make_family("uniform")
        with pytest.raises(ValueError):
            rotar(fam, 1, 0.0)
        with pytest.raises(ValueError):
            random_rotar(fam, make_index("det", 1), 0.0)


class TestNormalMean:
    def test_known_values(self):
        # sin and clamp are odd; E exp(-Z^2) = 1/sqrt(3)
        assert BUILTIN_TEST_FUNCTIONS["sin"].normal_mean == 0.0
        assert BUILTIN_TEST_FUNCTIONS["clamp"].normal_mean == 0.0
        assert BUILTIN_TEST_FUNCTIONS["bump"].normal_mean == pytest.approx(
            math.sqrt(math.e / 2.0) / math.sqrt(3.0), rel=1e-15
        )

    def test_every_builtin_matches_quad_oracle(self):
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            oracle = quad(
                lambda z: float(tf.evaluate(z)) * math.exp(-0.5 * z * z),
                -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13,
            )[0] / math.sqrt(2.0 * math.pi)
            assert tf.normal_mean == pytest.approx(oracle, abs=1e-12), tf.id

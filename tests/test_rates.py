"""Modulus of continuity, smooth metric, and rate audits."""

import math

import numpy as np
import pytest

from randclt.families import make_family
from randclt.indices import make_index
from randclt.rates import TestFunction as FnSpec
from randclt.rates import (
    BUILTIN_TEST_FUNCTIONS,
    empirical_rotar_constant,
    large_o_audit,
    make_test_function,
    modulus_of_continuity,
    small_o_audit,
    smooth_metric,
)

SEED = 20260808


class TestModulus:
    def test_cosine_closed_form(self):
        # oracle: sup |cos(x+h) - cos(x)| over h < eps is 2 sin(eps / 2)
        got = modulus_of_continuity(np.cos, 0.1)
        assert got == pytest.approx(2.0 * math.sin(0.05), abs=1e-8)
        assert got == pytest.approx(0.09995833854135666, abs=1e-8)

    def test_constant_function(self):
        assert modulus_of_continuity(lambda x: 0.0 * np.asarray(x) + 3.0, 0.5) == 0.0

    def test_monotone_in_eps(self):
        for f in (np.cos, BUILTIN_TEST_FUNCTIONS["clamp"].derivative):
            vals = [modulus_of_continuity(f, e) for e in (1e-3, 1e-2, 1e-1, 0.5)]
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-9

    def test_subadditive_scaling(self):
        # omega(lambda eps) <= (1 + lambda) omega(eps)
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            for eps in (1e-3, 1e-2, 1e-1):
                base = modulus_of_continuity(tf.derivative, eps)
                for lam in (0.5, 1.0, 2.0, 5.0):
                    scaled = modulus_of_continuity(tf.derivative, lam * eps)
                    assert scaled <= (1.0 + lam) * base + 1e-9, (tf.id, eps, lam)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(np.cos, 0.0)


class TestBuiltinFunctions:
    def test_norms_probe(self):
        xs = np.linspace(-30.0, 30.0, 2_000_001)
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            fmax = float(np.max(np.abs(tf.evaluate(xs))))
            dmax = float(np.max(np.abs(tf.derivative(xs))))
            assert fmax <= tf.sup_norm + 1e-12, tf.id
            assert fmax >= tf.sup_norm - 1e-6, tf.id
            assert dmax <= tf.derivative_sup_norm + 1e-12, tf.id
            assert dmax >= tf.derivative_sup_norm - 1e-6, tf.id

    def test_derivative_matches_finite_differences(self):
        xs = np.linspace(-5, 5, 1001)
        h = 1e-6
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            fd = (np.asarray(tf.evaluate(xs + h)) - np.asarray(tf.evaluate(xs - h))) / (2 * h)
            assert np.max(np.abs(fd - np.asarray(tf.derivative(xs)))) < 1e-5, tf.id

    def test_lipschitz_probe(self):
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            alpha, K = tf.lipschitz
            for eps in (1e-3, 1e-2, 1e-1):
                om = modulus_of_continuity(tf.derivative, eps)
                assert om <= K * eps**alpha + 1e-9, tf.id

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_test_function("tanh")


class TestSmoothMetric:
    def test_quadrature_matches_monte_carlo(self):
        # 1e6 standard normal draws vs the exact E f(Z) of each function
        fam = make_family("normal")
        model = make_index("det", 1)
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            sm = smooth_metric(fam, model, tf, 1_000_000, seed=SEED)
            assert sm.metric <= 4.0 * sm.mc_stderr, tf.id

    def test_constant_function_metric_zero(self):
        const = FnSpec(
            id="const", evaluate=lambda x: np.full_like(np.asarray(x, float), 0.75),
            derivative=lambda x: np.zeros_like(np.asarray(x, float)),
            sup_norm=0.75, derivative_sup_norm=0.0, normal_mean=0.75,
        )
        sm = smooth_metric(make_family("rademacher"), make_index("det", 4), const, 100, seed=1)
        assert sm.metric <= 1e-13  # machine-precision zero
        assert sm.mc_stderr == 0.0

    def test_odd_symmetry_both_sides_zero(self):
        # single Rademacher summand and sin: both expectations vanish
        sm = smooth_metric(
            make_family("rademacher"), make_index("det", 1),
            make_test_function("sin"), 200_000, seed=SEED,
        )
        assert abs(sm.normal_expectation) < 1e-10
        assert sm.metric <= 4.0 * sm.mc_stderr


class TestLargeOAudit:
    def test_bound_order_iid_deterministic(self):
        # closed form B_n = sqrt(n): the bound column scales as n^-(1+alpha)/2
        fam = make_family("rademacher")
        curve = large_o_audit(
            fam, "det", make_test_function("sin"), (4, 16, 64, 256), 50_000, seed=SEED
        )
        assert curve.bound_order == pytest.approx(-1.0, abs=0.01)
        assert curve.all_within_bound

    def test_all_normal_metric_statistically_zero(self):
        fam = make_family("normal")
        curve = large_o_audit(
            fam, "poisson", make_test_function("sin"), (10, 100), 100_000, seed=SEED
        )
        for p in curve.points:
            assert p.metric <= 4.0 * p.mc_stderr
            assert not p.flagged

    def test_m1_prefix_reported(self):
        fam = make_family("rademacher")
        curve = large_o_audit(
            fam, "det", make_test_function("sin"), (4, 16), 1000, seed=SEED
        )
        # sum over j <= n of E|X_j| + E|X*_j| + 2 sigma_j^2
        expected = 4 * (1.0 + math.sqrt(2.0 / math.pi) + 2.0)
        assert curve.points[0].m1_prefix == pytest.approx(expected, rel=1e-12)

    def test_non_lipschitz_function_rejected(self):
        plain = FnSpec(
            id="plain", evaluate=np.sin, derivative=np.cos,
            sup_norm=1.0, derivative_sup_norm=1.0, normal_mean=0.0,
            lipschitz=None,
        )
        with pytest.raises(ValueError):
            large_o_audit(make_family("rademacher"), "det", plain, (4,), 10, seed=1)


class TestSmallOAudit:
    def test_requires_unit_derivative_norm(self):
        weak = FnSpec(
            id="weak", evaluate=lambda x: 0.1 * np.sin(x),
            derivative=lambda x: 0.1 * np.cos(x),
            sup_norm=0.1, derivative_sup_norm=0.1, normal_mean=0.0,
            lipschitz=(1.0, 0.1),
        )
        fam = make_family("rademacher")
        with pytest.raises(ValueError):
            small_o_audit(fam, "det", weak, (4,), (0.5,), 10, seed=1)

    def test_majorant_dominates_epsilon(self):
        fam = make_family("rademacher")
        curve = small_o_audit(
            fam, "geometric", make_test_function("bump"),
            (10, 100), (0.5, 1.0), 20_000, seed=SEED,
        )
        for p in curve.points:
            assert p.majorants[0.5] >= 0.5
            assert p.majorants[1.0] >= 1.0

    def test_all_normal_statistically_zero(self):
        fam = make_family("normal")
        curve = small_o_audit(
            fam, "geometric", make_test_function("bump"),
            (10, 100, 1000), (0.5,), 100_000, seed=SEED,
        )
        assert curve.statistically_zero(4.0)

    def test_m2_prefix_reported(self):
        fam = make_family("rademacher")
        curve = small_o_audit(
            fam, "det", make_test_function("bump"),
            (4,), (0.5,), 100, seed=SEED,
        )
        expected = 4 * (1.0 + math.sqrt(2.0 / math.pi))
        assert curve.points[0].m2_prefix == pytest.approx(expected, rel=1e-12)


class TestEmpiricalConstant:
    def test_finite_and_positive(self):
        fam = make_family("rademacher")
        c = empirical_rotar_constant(
            fam, make_index("geometric", 50), 0.5, 20_000, SEED
        )
        assert math.isfinite(c)
        assert c >= 0.0

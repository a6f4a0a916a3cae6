"""Test functions against a modulus-of-continuity oracle, smooth metric, rate audits."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randclt.conditions
import randclt.rates
from randclt import montecarlo
from randclt.families import make_family, parse_family
from randclt.indices import make_index
from randclt.rates import TestFunction as FnSpec
from randclt.rates import (
    BUILTIN_TEST_FUNCTIONS,
    empirical_rotar_constant,
    make_test_function,
    rate_audit,
    smooth_metric,
)

SEED = 20260808
BLOCK = 1 << 17  # trials per stream block


def modulus_of_continuity(f, eps, halfwidth=8.0, refine_rounds=4):
    """sup over |x - y| < eps of |f(x) - f(y)| on [-halfwidth, halfwidth].

    Grid search over offsets h < eps and base points x, refined around the
    maximizing pair; the reported value is a certified lower bound that is
    accurate to ~1e-9 for smooth f.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    h_top = eps * (1.0 - 1e-12)
    hs = np.linspace(h_top / 8.0, h_top, 16)
    lo, hi = -halfwidth, halfwidth
    best = (0.0, 0.0, h_top)  # (value, x, h)
    xs = np.linspace(lo, hi, 4096)
    for h in hs:
        grid = xs[xs + h <= hi]
        vals = np.abs(np.asarray(f(grid + h)) - np.asarray(f(grid)))
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), float(grid[i]), float(h))
    span_x = (hi - lo) / 4096.0
    span_h = hs[1] - hs[0]
    for _ in range(refine_rounds):
        _, x0, h0 = best
        xs_l = np.clip(np.linspace(x0 - span_x, x0 + span_x, 33), lo, hi)
        hs_l = np.clip(np.linspace(h0 - span_h, h0 + span_h, 17), 1e-300, h_top)
        for h in hs_l:
            grid = xs_l[xs_l + h <= hi]
            if not len(grid):
                continue
            vals = np.abs(np.asarray(f(grid + h)) - np.asarray(f(grid)))
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), float(grid[i]), float(h))
        span_x /= 12.0
        span_h /= 6.0
    return best[0]


def _at(kind):
    return lambda n: make_index(kind, n)


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
        assert abs(make_test_function("sin").normal_mean) < 1e-10
        assert sm.metric <= 4.0 * sm.mc_stderr


class TestBlockMoments:
    """smooth_metric merges per-block (count, mean, squared deviations)."""

    @settings(max_examples=12, deadline=None)
    @given(
        spec=st.sampled_from(["rademacher", "uniform", "normal", "expcentered",
                              "geomnormal", "twopoint", "twopoint,growth=0.5"]),
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 80),
        fn=st.sampled_from(sorted(BUILTIN_TEST_FUNCTIONS)),
        trials=st.integers(1, 3 * BLOCK),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(spec="rademacher", kind="geometric", n=80, fn="bump",
             trials=3 * BLOCK, seed=2**64 - 1)
    @example(spec="rademacher", kind="det", n=1, fn="bump", trials=BLOCK + 1, seed=0)
    def test_worker_count_free_and_matches_full_array(
        self, spec, kind, n, fn, trials, seed
    ):
        fam, model, f = parse_family(spec), make_index(kind, n), make_test_function(fn)
        runs = []
        for workers in (1, 2):
            with mock.patch.object(montecarlo, "_usable_cpus", lambda: workers):
                runs.append(smooth_metric(fam, model, f, trials, seed))
        assert runs[0] == runs[1]  # same floats, bit for bit
        # oracle: numpy's mean and population std over every f value at once
        fv = f.evaluate(montecarlo.simulate(fam, model, trials, seed).values)
        scale = float(np.mean(np.abs(fv)))
        metric = abs(float(np.mean(fv)) - f.normal_mean)
        stderr = float(np.std(fv)) / math.sqrt(trials)
        assert abs(runs[0].metric - metric) <= 1e-13 * max(metric, scale)
        assert abs(runs[0].mc_stderr - stderr) <= 1e-13 * max(stderr, scale / math.sqrt(trials))


class TestLargeOAudit:
    def test_bound_order_iid_deterministic(self):
        # closed form B_n = sqrt(n): the bound column scales as n^-(1+alpha)/2
        fam = make_family("rademacher")
        curve = rate_audit(
            fam, _at("det"), make_test_function("sin"), (4, 16, 64, 256), 50_000, seed=SEED,
            mode="large-o",
        )
        assert curve.bound_order == pytest.approx(-1.0, abs=0.01)
        assert curve.all_within_bound

    def test_all_normal_metric_statistically_zero(self):
        fam = make_family("normal")
        curve = rate_audit(
            fam, _at("poisson"), make_test_function("sin"), (10, 100), 100_000, seed=SEED,
            mode="large-o",
        )
        for p in curve.points:
            assert p.metric <= 4.0 * p.mc_stderr
            assert not p.flagged

    def test_non_lipschitz_function_rejected(self):
        plain = FnSpec(
            id="plain", evaluate=np.sin, derivative=np.cos,
            sup_norm=1.0, derivative_sup_norm=1.0, normal_mean=0.0,
            lipschitz=None,
        )
        with pytest.raises(ValueError):
            rate_audit(make_family("rademacher"), _at("det"), plain, (4,), 10, seed=1,
                       mode="large-o")


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
            rate_audit(fam, _at("det"), weak, (4,), 10, seed=1, mode="small-o")

    def test_evaluates_no_randomized_functional(self, monkeypatch):
        # the CSV holds the metric and E[B^-1] only; near ratio 1 one
        # random_rotar kernel costs seconds per n
        def refuse(*args, **kwargs):
            raise AssertionError("small-o audit evaluated random_rotar")

        monkeypatch.setattr(randclt.conditions, "_index_average", refuse)
        monkeypatch.setattr(randclt.conditions, "random_rotar", refuse)
        curve = rate_audit(
            make_family("twopoint", growth=1.001), _at("geometric"),
            make_test_function("bump"), (10, 100), 1000, seed=SEED, mode="small-o",
        )
        assert [p.n for p in curve.points] == [10, 100]

    def test_all_normal_statistically_zero(self):
        fam = make_family("normal")
        curve = rate_audit(
            fam, _at("geometric"), make_test_function("bump"),
            (10, 100, 1000), 100_000, seed=SEED, mode="small-o",
        )
        assert curve.statistically_zero(4.0)


class TestRateAudit:
    def test_modes_share_the_metric_and_differ_in_the_bound(self):
        fam, f = make_family("rademacher"), make_test_function("bump")
        large, small = (
            rate_audit(fam, _at("geometric"), f, (5, 50, 500), 20_000, SEED, mode=m)
            for m in ("large-o", "small-o")
        )
        for p, q in zip(large.points, small.points):
            assert (p.n, p.metric, p.mc_stderr) == (q.n, q.metric, q.mc_stderr)
            model = make_index("geometric", p.n)
            # small-o's constant is exactly 1: the bound is E[B^-1] to the bit
            b1 = np.exp(-0.5 * fam.profile.log_b_squared(model.support.astype(float)))
            assert q.bound == model.expect_values(b1, abs_bound=1.0).value
            assert q.ratio == q.metric / q.bound
        # large-o's constant multiplies E[B^-2] = E[1/index] here (B_k^2 = k)
        shapes = [make_index("geometric", p.n) for p in large.points]
        shapes = [m.expect_values(1.0 / m.support, abs_bound=1.0).value for m in shapes]
        consts = [p.bound / s for p, s in zip(large.points, shapes)]
        assert consts == pytest.approx([consts[0]] * 3, rel=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rate mode"):
            rate_audit(make_family("rademacher"), _at("det"), make_test_function("sin"),
                       (4,), 10, seed=1, mode="medium-o")

    def test_zero_bound_reads_infinite_ratio(self):
        p = randclt.rates.RatePoint(n=1, metric=0.5, mc_stderr=0.1, bound=0.0)
        assert p.ratio == math.inf
        assert p.flagged


class TestEmpiricalConstant:
    def test_finite_and_positive(self):
        fam, model = make_family("rademacher"), make_index("geometric", 50)
        audit = randclt.conditions.implication_audit(fam, model, 50, 0.5, 1.0)
        d_hat = montecarlo.kolmogorov_distance(
            montecarlo.simulate(fam, model, 20_000, SEED)
        ).d_hat
        c = empirical_rotar_constant(audit, d_hat)
        assert math.isfinite(c)
        assert c >= 0.0
        # the audit's lhs values are the randomized functionals, to the bit
        rr = randclt.conditions.random_rotar(fam, model, 0.5).value
        rf = randclt.conditions.random_feller(fam, model).value
        assert c == rr / (d_hat + rf)

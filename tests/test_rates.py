"""Test functions against a modulus-of-continuity oracle, smooth metric, rate audits."""

import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import Generator, Philox

from oracles import (
    all_within_bound,
    binomial_chisquare_pvalue,
    bound_order,
    derivative,
    exact_sin_metric,
    flagged,
    statistically_zero,
)
import randclt.conditions
import randclt.rates
from randclt import montecarlo
from randclt.conditions import empirical_rotar_constant
from randclt.families import make_family, parse_family
from randclt.indices import make_index
from randclt.rates import TestFunction as FnSpec
from randclt.rates import (
    BUILTIN_TEST_FUNCTIONS,
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


def _grid(kind, ns):
    return ((n, make_index(kind, n)) for n in ns)


class TestModulus:
    def test_cosine_closed_form(self):
        # oracle: sup |cos(x+h) - cos(x)| over h < eps is 2 sin(eps / 2)
        got = modulus_of_continuity(np.cos, 0.1)
        assert got == pytest.approx(2.0 * math.sin(0.05), abs=1e-8)
        assert got == pytest.approx(0.09995833854135666, abs=1e-8)

    def test_constant_function(self):
        assert modulus_of_continuity(lambda x: 0.0 * np.asarray(x) + 3.0, 0.5) == 0.0

    def test_monotone_in_eps(self):
        for f in (np.cos, derivative(BUILTIN_TEST_FUNCTIONS["clamp"])):
            vals = [modulus_of_continuity(f, e) for e in (1e-3, 1e-2, 1e-1, 0.5)]
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-9

    def test_subadditive_scaling(self):
        # omega(lambda eps) <= (1 + lambda) omega(eps)
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            for eps in (1e-3, 1e-2, 1e-1):
                base = modulus_of_continuity(derivative(tf), eps)
                for lam in (0.5, 1.0, 2.0, 5.0):
                    scaled = modulus_of_continuity(derivative(tf), lam * eps)
                    assert scaled <= (1.0 + lam) * base + 1e-9, (tf.id, eps, lam)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(np.cos, 0.0)


class TestBuiltinFunctions:
    def test_norms_probe(self):
        xs = np.linspace(-30.0, 30.0, 2_000_001)
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            fmax = float(np.max(np.abs(tf.evaluate(xs))))
            dmax = float(np.max(np.abs(derivative(tf)(xs))))
            assert fmax <= tf.sup_norm + 1e-12, tf.id
            assert fmax >= tf.sup_norm - 1e-6, tf.id
            assert dmax <= tf.derivative_sup_norm + 1e-12, tf.id
            assert dmax >= tf.derivative_sup_norm - 1e-6, tf.id

    def test_derivative_matches_finite_differences(self):
        xs = np.linspace(-5, 5, 1001)
        h = 1e-6
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            fd = (np.asarray(tf.evaluate(xs + h)) - np.asarray(tf.evaluate(xs - h))) / (2 * h)
            assert np.max(np.abs(fd - np.asarray(derivative(tf)(xs)))) < 1e-5, tf.id

    def test_lipschitz_probe(self):
        for tf in BUILTIN_TEST_FUNCTIONS.values():
            alpha, K = tf.lipschitz
            for eps in (1e-3, 1e-2, 1e-1):
                om = modulus_of_continuity(derivative(tf), eps)
                assert om <= K * eps**alpha + 1e-9, tf.id

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_test_function("tanh")


# the float64 edges: signed zeros, infinities, nan, subnormals, huge values
_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2e-308, 1e300, -1e300, 1e154, 1.0, -1.0, 0.5])


class TestInPlaceFunctions:
    """_clamp and _bump build one temporary: the bits of the plain expressions."""

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                        elements=st.floats(allow_subnormal=True)
                        | st.sampled_from(_EDGES.tolist())))
    @example(x=_EDGES)
    @example(x=np.float64(-0.0))
    def test_bits_equal_the_plain_expressions(self, x):
        x = np.asarray(x, dtype=float)
        before = x.copy()
        with np.errstate(all="ignore"):
            pairs = [
                (randclt.rates._clamp(x), x / (1.0 + x * x)),
                (randclt.rates._bump(x), randclt.rates._BUMP_AMP * np.exp(-x * x)),
            ]
        for got, want in pairs:
            assert got.shape == x.shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert x.tobytes() == before.tobytes()  # the argument is never written


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
        # oracle: numpy's mean and population std over every f value of the
        # same blocks' draws, which simulate lays out with lattice cells repeated
        fv = f.evaluate(montecarlo.simulate(fam, model, trials, seed).values)
        scale = float(np.mean(np.abs(fv)))
        metric = abs(float(np.mean(fv)) - f.normal_mean)
        stderr = float(np.std(fv)) / math.sqrt(trials)
        assert abs(runs[0].metric - metric) <= 1e-13 * max(metric, scale)
        assert abs(runs[0].mc_stderr - stderr) <= 1e-13 * max(stderr, scale / math.sqrt(trials))


class _FixedIndex:
    """An index model whose block draws are the given ks."""

    def __init__(self, ks):
        self.ks = np.asarray(ks, dtype=np.int64)

    def sample(self, rng, size):
        assert size == len(self.ks)
        return self.ks


class _Recorder:
    """A Generator that records the cells of every multinomial it draws."""

    def __init__(self, rng):
        self._rng, self.cells = rng, []

    def multinomial(self, n, pvals):
        self.cells.append(np.size(pvals))
        return self._rng.multinomial(n, pvals)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _lattice_block(fam, model, count, seed, monkeypatch=None):
    """One draw_block of Rademacher draws; the pmf cells built and the rng."""
    built = []
    if monkeypatch is not None:
        real = montecarlo.half_binomial_pmf

        def spy(k, h):
            built.append(len(k))
            return real(k, h)

        monkeypatch.setattr(montecarlo, "half_binomial_pmf", spy)
    rng = _Recorder(Generator(Philox(key=[seed, 1])))
    draws = montecarlo.draw_block(
        fam, model, count, Generator(Philox(key=[seed, 2])), rng, {}
    )
    return draws, built, rng


def _metric_on(workers, *args):
    with mock.patch.object(montecarlo, "_usable_cpus", lambda: workers):
        return smooth_metric(*args)


class TestLatticeDraws:
    """draw_block draws constant-profile Rademacher trials as lattice histograms."""

    def test_cells_per_block_bounded(self, monkeypatch):
        # k = 1..400 with k + 2 trials each, the rest of the block at k = 20000:
        # every group has more trials than cells, but one rectangle over them
        # all would hold 401 x 20001 cells
        ks = np.repeat(np.arange(1, 401), np.arange(3, 403))
        ks = np.append(ks, np.full(BLOCK - len(ks), 20_000))
        fam = make_family("rademacher")
        (values, counts, rest), built, rng = _lattice_block(
            fam, _FixedIndex(ks), BLOCK, 3, monkeypatch
        )
        assert len(rng.cells) == 1 and rng.cells[0] <= BLOCK
        assert sum(built) <= BLOCK
        # k = 1..361 fill 361 x 362 <= 2^17 cells; k = 362 would pass 2^17
        assert int(counts.sum()) == int(np.sum(np.arange(1, 362) + 2))
        assert int(counts.sum()) + len(rest) == BLOCK

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 3_000),
        count=st.integers(1, BLOCK),
        seed=st.integers(0, 2**32),
    )
    def test_block_keeps_its_trials_on_the_lattice(self, kind, n, count, seed):
        fam = make_family("rademacher")
        (values, counts, rest), _, rng = _lattice_block(fam, make_index(kind, n), count, seed)
        assert len(rng.cells) <= 1 and all(c <= count for c in rng.cells)
        assert int(counts.sum()) + len(rest) == count
        assert np.all(counts > 0)
        # every lattice value is (2h - k) / sqrt(k) for a k the block drew
        ks = make_index(kind, n).sample(Generator(Philox(key=[seed, 2])), count)
        ks = np.atleast_1d(ks)  # a det index samples one scalar k
        ok = np.zeros(len(values), dtype=bool)
        for k in np.unique(ks[ks < count]).tolist():
            h = (values * math.sqrt(k) + k) / 2.0
            ok |= (np.abs(h - np.round(h)) < 1e-9) & (h > -0.5) & (h < k + 0.5)
        assert ok.all()

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 256, 1000])
    def test_histogram_fits_binomial(self, k):
        fam = make_family("rademacher")
        (values, counts, rest), _, _ = _lattice_block(fam, make_index("det", k), BLOCK, k)
        assert len(rest) == 0 and int(counts.sum()) == BLOCK
        heads = np.round((values * math.sqrt(k) + k) / 2.0).astype(np.int64)
        observed = np.bincount(heads, weights=counts, minlength=k + 1)
        assert binomial_chisquare_pvalue(observed, k) > 1e-3

    def test_shared_pmf_rows_under_thread_switches(self):
        # the blocks' workers share one call's pmf rows; with more workers
        # than cores and a thread switch every microsecond, a row lost or
        # read half-built would move the metric's bits
        fam, model = make_family("rademacher"), make_index("geometric", 40)
        f = make_test_function("bump")
        serial = _metric_on(1, fam, model, f, 8 * BLOCK, SEED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert _metric_on(8, fam, model, f, 8 * BLOCK, SEED) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", ["det", "poisson", "geometric", "uniform"])
    @pytest.mark.parametrize("fn", ["bump", "clamp"])
    def test_metric_agrees_with_simulate(self, kind, fn):
        fam, model, f = make_family("rademacher"), make_index(kind, 12), make_test_function(fn)
        trials = 2 * BLOCK + 1_000
        got = smooth_metric(fam, model, f, trials, SEED)
        fv = f.evaluate(montecarlo.simulate(fam, model, trials, SEED + 1).values)
        metric = abs(float(np.mean(fv)) - f.normal_mean)
        stderr = float(np.std(fv)) / math.sqrt(trials)
        assert abs(got.metric - metric) <= 4.0 * math.hypot(got.mc_stderr, stderr)


class TestLargeOAudit:
    def test_bound_order_iid_deterministic(self):
        # closed form B_n = sqrt(n): the bound column scales as n^-(1+alpha)/2
        fam = make_family("rademacher")
        curve = rate_audit(
            fam, _grid("det", (4, 16, 64, 256)), make_test_function("sin"), 50_000, seed=SEED,
            mode="large-o",
        )
        assert bound_order(curve) == pytest.approx(-1.0, abs=0.01)
        assert all_within_bound(curve)

    def test_all_normal_metric_statistically_zero(self):
        fam = make_family("normal")
        curve = rate_audit(
            fam, _grid("poisson", (10, 100)), make_test_function("sin"), 100_000, seed=SEED,
            mode="large-o",
        )
        for p in curve:
            assert p.metric <= 4.0 * p.mc_stderr
            assert not flagged(p)

    def test_non_lipschitz_function_rejected(self):
        plain = FnSpec(
            id="plain", evaluate=np.sin,
            sup_norm=1.0, derivative_sup_norm=1.0, normal_mean=0.0,
            lipschitz=None,
        )
        with pytest.raises(ValueError):
            rate_audit(make_family("rademacher"), _grid("det", (4,)), plain, 10, seed=1,
                       mode="large-o")


class TestSmallOAudit:
    def test_requires_unit_derivative_norm(self):
        weak = FnSpec(
            id="weak", evaluate=lambda x: 0.1 * np.sin(x),
            sup_norm=0.1, derivative_sup_norm=0.1, normal_mean=0.0,
            lipschitz=(1.0, 0.1),
        )
        fam = make_family("rademacher")
        with pytest.raises(ValueError):
            rate_audit(fam, _grid("det", (4,)), weak, 10, seed=1, mode="small-o")

    def test_evaluates_no_randomized_functional(self, monkeypatch):
        # the CSV holds the metric and E[B^-1] only; near ratio 1 one
        # random_rotar kernel costs seconds per n
        def refuse(*args, **kwargs):
            raise AssertionError("small-o audit evaluated random_rotar")

        monkeypatch.setattr(randclt.conditions, "_index_average", refuse)
        monkeypatch.setattr(randclt.conditions, "random_rotar", refuse)
        curve = rate_audit(
            make_family("twopoint", growth=1.001), _grid("geometric", (10, 100)),
            make_test_function("bump"), 1000, seed=SEED, mode="small-o",
        )
        assert [p.n for p in curve] == [10, 100]

    def test_all_normal_statistically_zero(self):
        fam = make_family("normal")
        curve = rate_audit(
            fam, _grid("geometric", (10, 100, 1000)), make_test_function("bump"),
            100_000, seed=SEED, mode="small-o",
        )
        assert statistically_zero(curve, 4.0)


class TestRateAudit:
    def test_modes_share_the_metric_and_differ_in_the_bound(self):
        fam, f = make_family("rademacher"), make_test_function("bump")
        large, small = (
            rate_audit(fam, _grid("geometric", (5, 50, 500)), f, 20_000, SEED, mode=m)
            for m in ("large-o", "small-o")
        )
        for p, q in zip(large, small):
            assert (p.n, p.metric, p.mc_stderr) == (q.n, q.metric, q.mc_stderr)
            model = make_index("geometric", p.n)
            # small-o's constant is exactly 1: the bound is E[B^-1] to the bit
            b1 = np.exp(-0.5 * fam.profile.log_b_squared(model.support.astype(float)))
            assert q.bound == model.expect_values(b1, abs_bound=1.0).value
            assert q.ratio == q.metric / q.bound
        # large-o's constant multiplies E[B^-2] = E[1/index] here (B_k^2 = k)
        shapes = [make_index("geometric", p.n) for p in large]
        shapes = [m.expect_values(1.0 / m.support, abs_bound=1.0).value for m in shapes]
        consts = [p.bound / s for p, s in zip(large, shapes)]
        assert consts == pytest.approx([consts[0]] * 3, rel=1e-12)

    @pytest.mark.parametrize("spec, kind", [("expcentered", "det"), ("geomnormal", "geometric")])
    def test_worker_count_free_and_matches_full_array(self, spec, kind):
        fam, f, trials = parse_family(spec), make_test_function("clamp"), 2 * BLOCK + 7
        curves = []
        for workers in (1, 2):
            with mock.patch.object(montecarlo, "_usable_cpus", lambda: workers):
                curves.append(rate_audit(fam, _grid(kind, (4, 16, 64)), f, trials, SEED,
                                         mode="large-o"))
        assert curves[0] == curves[1]  # same floats, bit for bit
        # oracle: numpy's mean and population std over every f value at once
        for p in curves[0]:
            fv = f.evaluate(montecarlo.simulate(fam, make_index(kind, p.n), trials, SEED).values)
            scale = float(np.mean(np.abs(fv)))
            metric = abs(float(np.mean(fv)) - f.normal_mean)
            stderr = float(np.std(fv)) / math.sqrt(trials)
            assert abs(p.metric - metric) <= 1e-13 * max(metric, scale)
            assert abs(p.mc_stderr - stderr) <= 1e-13 * max(stderr, scale / math.sqrt(trials))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rate mode"):
            rate_audit(make_family("rademacher"), _grid("det", (4,)), make_test_function("sin"),
                       10, seed=1, mode="medium-o")

    def test_zero_bound_reads_infinite_ratio(self):
        p = randclt.rates.RatePoint(n=1, metric=0.5, mc_stderr=0.1, bound=0.0)
        assert p.ratio == math.inf
        assert flagged(p)


class TestExactSinMetric:
    """E sin(S_nu / B_nu) on constant profiles, exactly, against quadrature and MC."""

    TRIALS = 300_000  # three stream blocks, the last one partial
    SKEWED = [("det", 4), ("det", 16), ("det", 64), ("det", 256), ("det", 1024),
              ("poisson", 1000), ("geometric", 10), ("geometric", 100),
              ("geometric", 1000), ("uniform", 100)]
    SYMMETRIC = [("det", 16), ("poisson", 100), ("geometric", 100), ("uniform", 100)]

    @pytest.mark.parametrize("k", [4, 16])
    def test_matches_gamma_quadrature(self, k):
        # S_k = G - k with G ~ Gamma(k, 1)
        with mpmath.workdps(30):
            want = mpmath.quad(
                lambda x: mpmath.sin((x - k) / mpmath.sqrt(k)) * x ** (k - 1)
                * mpmath.exp(-x) / mpmath.gamma(k),
                [0, k, 2 * k, 4 * k, mpmath.inf],
            )
        got = exact_sin_metric(make_family("expcentered"), make_index("det", k))
        assert abs(got.value - float(want)) <= 1e-15
        assert got.truncation_error_bound == 0.0

    @pytest.mark.parametrize("kind, n", SKEWED)
    def test_gamma_draws_match_the_exact_metric(self, kind, n):
        # the gamma sampler of the centred exponential, where |exact| > 0
        fam, model = make_family("expcentered"), make_index(kind, n)
        exact = exact_sin_metric(fam, model)
        sm = smooth_metric(fam, model, make_test_function("sin"), self.TRIALS, SEED)
        assert exact.value < 0.0
        assert abs(sm.metric - abs(exact.value)) <= (
            4.0 * sm.mc_stderr + exact.truncation_error_bound
        )

    @pytest.mark.parametrize("kind, n", SYMMETRIC)
    @pytest.mark.parametrize("spec", ["rademacher", "uniform", "normal"])
    def test_symmetric_draws_read_zero(self, spec, kind, n):
        # lattice and binomial (rademacher), summand matrix (uniform) and
        # index-free (normal) draws, where the exact metric is 0
        fam, model = make_family(spec), make_index(kind, n)
        assert exact_sin_metric(fam, model).value == 0.0
        sm = smooth_metric(fam, model, make_test_function("sin"), self.TRIALS, SEED)
        assert sm.metric <= 4.0 * sm.mc_stderr

    def test_first_edgeworth_term(self):
        # (kappa_3 / 6) |E f'''(Z)| / sqrt(k): kappa_3 = 2, E sin'''(Z) = -e^(-1/2)
        exact = exact_sin_metric(make_family("expcentered"), make_index("det", 1024))
        assert abs(math.sqrt(1024) * abs(exact.value) - math.exp(-0.5) / 3.0) <= 1e-3


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

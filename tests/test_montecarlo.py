"""Simulation contracts: determinism, stream separation, distances, cf mixing."""

import math

import numpy as np
import pytest

from randclt.families import make_family, parse_family
from randclt.indices import Deterministic, make_index
from randclt.montecarlo import (
    EmpiricalSample,
    cf_identity_check,
    clt_sweep,
    kolmogorov_distance,
    simulate,
)

SEED = 20260808


class TestSimulate:
    def test_single_trial_rademacher(self):
        s = simulate(make_family("rademacher"), Deterministic(1), 1, seed=SEED)
        assert s.values[0] in (-1.0, 1.0)
        assert s.index_histogram == {1: 1}

    def test_same_seed_bit_identical(self):
        fam = make_family("expcentered")
        model = make_index("poisson", 25)
        a = simulate(fam, model, 4000, seed=3)
        b = simulate(fam, model, 4000, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.index_histogram == b.index_histogram

    def test_different_seed_differs(self):
        fam = make_family("normal")
        model = Deterministic(5)
        a = simulate(fam, model, 100, seed=1)
        b = simulate(fam, model, 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_values_sorted(self):
        s = simulate(make_family("uniform"), Deterministic(3), 500, seed=SEED)
        assert np.all(np.diff(s.values) >= 0)

    def test_index_stream_disjoint_from_summands(self):
        # the realized index sequence may not depend on the summand family
        model = make_index("geometric", 40)
        hist_a = simulate(make_family("rademacher"), model, 3000, seed=11).index_histogram
        hist_b = simulate(make_family("normal"), model, 3000, seed=11).index_histogram
        hist_c = simulate(make_family("uniform"), model, 3000, seed=11).index_histogram
        assert hist_a == hist_b == hist_c

    def test_same_seed_identical_across_row_chunks(self):
        # k = 70000 exceeds the per-draw matrix bound: one row per draw
        fam = make_family("uniform")
        model = Deterministic(70_000)
        a = simulate(fam, model, 6, seed=9)
        b = simulate(fam, model, 6, seed=9)
        c = simulate(fam, model, 6, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_heterogeneous_normal_matches_identity(self):
        # weighted normal sums are standard normal for any realized index
        fam = make_family("geomnormal")
        s = simulate(fam, make_index("poisson", 15), 50_000, seed=SEED)
        est = kolmogorov_distance(s)
        assert est.d_hat <= est.dkw_band

    def test_slow_and_fast_paths_agree_in_distribution(self):
        # twopoint with ratio ~1 is numerically the rademacher family
        slow = make_family("twopoint", growth=1.0 + 1e-12)
        fast = make_family("rademacher")
        model = Deterministic(20)
        d_slow = kolmogorov_distance(simulate(slow, model, 20_000, seed=5)).d_hat
        d_fast = kolmogorov_distance(simulate(fast, model, 20_000, seed=5)).d_hat
        assert abs(d_slow - d_fast) < 0.02

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(make_family("normal"), Deterministic(2), 0, seed=1)

    def test_seed_outside_key_range_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                simulate(make_family("normal"), Deterministic(2), 5, seed=seed)


class TestNormalization:
    def test_mean_and_variance_bands(self):
        # normalized sums have mean 0 and variance 1; allow 5/sqrt(T) and
        # 10/sqrt(T) standard-error style bands
        trials = 10_000
        for spec in ("rademacher", "uniform", "normal", "geomnormal", "twopoint",
                     "expcentered", "twopoint,growth=0.5", "twopoint,growth=1.01"):
            fam = parse_family(spec)
            model = make_index("geometric", 50)
            s = simulate(fam, model, trials, seed=SEED)
            assert abs(s.mean()) < 5.0 / math.sqrt(trials), spec
            assert abs(s.variance() - 1.0) < 10.0 / math.sqrt(trials), spec


class TestKolmogorovDistance:
    def test_degenerate_sample_at_zero(self):
        s = EmpiricalSample(
            values=np.zeros(100), trials=100, seed=0, index_histogram={1: 100}
        )
        assert kolmogorov_distance(s).d_hat == pytest.approx(0.5, abs=1e-12)

    def test_two_point_sample_frozen(self):
        s = EmpiricalSample(
            values=np.array([-1.0, 1.0]), trials=2, seed=0, index_histogram={1: 2}
        )
        # max gap against Phi at the sorted points: Phi(1) - 1/2
        assert kolmogorov_distance(s).d_hat == pytest.approx(
            0.3413447460685429, rel=1e-12
        )

    def test_dkw_band_value(self):
        s = EmpiricalSample(
            values=np.zeros(100_000), trials=100_000, seed=0,
            index_histogram={1: 100_000},
        )
        est = kolmogorov_distance(s)
        assert est.dkw_band == pytest.approx(
            math.sqrt(math.log(2.0 / 0.001) / (2.0 * 100_000)), rel=1e-12
        )
        assert est.dkw_band == pytest.approx(0.0061648, abs=1e-6)

    def test_all_normal_within_band(self):
        fam = make_family("normal")
        s = simulate(fam, make_index("uniform", 50), 100_000, seed=SEED)
        est = kolmogorov_distance(s)
        assert est.d_hat <= est.dkw_band

    def test_all_normal_meta_band_coverage(self):
        # repeated-seed coverage at desk scale: every one of 100 seeded runs
        # stays below the 0.999 DKW band
        fam = make_family("normal")
        model = make_index("poisson", 40)
        hits = 0
        for s in range(7000, 7100):
            est = kolmogorov_distance(simulate(fam, model, 2000, seed=s))
            hits += est.d_hat <= est.dkw_band
        assert hits == 100


class TestCfIdentity:
    def test_deterministic_exact(self):
        fam = make_family("normal")
        res = cf_identity_check(fam, Deterministic(5), [0.0, 0.5, 1.0, 2.0, 4.0])
        assert res.max_deviation < 1e-15

    def test_t_zero_both_sides_one(self):
        fam = make_family("normal")
        res = cf_identity_check(fam, make_index("poisson", 5), [0.0])
        assert res.deviations[0] <= res.truncation_tail_mass + 1e-15

    def test_mixture_bounded_by_tail_mass(self):
        # the n sweep puts tails within float round-off of tau, where the
        # deviation would read past 1e-12 (a quarter of these n do without
        # the windows' reserve)
        fam = make_family("normal")
        for kind, n, param in (
            ("poisson", 5, 5.0),
            ("geometric", 5, 0.2),
            ("uniform", 20, 20.0),
            *((kind, n, None) for kind in ("poisson", "geometric")
              for n in range(500, 1200, 3)),
        ):
            model = make_index(kind, n, param)
            res = cf_identity_check(fam, model, [0.0, 0.5, 1.0, 2.0, 4.0])
            assert res.max_deviation <= model.truncation_tail_mass + 1e-15, (kind, n)
            assert res.max_deviation <= 1e-12, (kind, n)

    def test_heterogeneous_profile_cancels_too(self):
        fam = make_family("geomnormal")
        res = cf_identity_check(fam, make_index("geometric", 5, 0.2), [0.5, 2.0])
        assert res.max_deviation <= 1e-12


class TestCltSweep:
    def test_deterministic_reduces_to_classical(self):
        fam = make_family("rademacher")
        points = clt_sweep(fam, "det", (25,), 5000, seed=SEED)
        direct = kolmogorov_distance(simulate(fam, Deterministic(25), 5000, seed=SEED))
        assert points[0][0] == 25
        assert points[0][1].d_hat == direct.d_hat

    def test_decreasing_distance(self):
        fam = make_family("rademacher")
        points = clt_sweep(fam, "geometric", (10, 100, 1000), 100_000, seed=SEED)
        d = [p[1].d_hat for p in points]
        band = points[0][1].dkw_band
        assert d[0] - d[1] > 2 * band
        assert d[1] - d[2] > 2 * band

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            clt_sweep(make_family("normal"), "det", (), 10, seed=1)

"""Simulation contracts: determinism, stream separation, distances, cf mixing."""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64DXSM, SeedSequence

from oracles import rademacher_kolmogorov
from randclt import montecarlo
from randclt.cli import UsageError, parse_args
from randclt.families import half_binomial_pmf, make_family, parse_family
from randclt.indices import Deterministic, make_index
from randclt.montecarlo import (
    EmpiricalSample,
    cf_identity_check,
    kolmogorov_distance,
    simulate,
)

SEED = 20260808

# trials per stream block, and the stream tags, as the single-stream layout
# that every run of at most one block keeps
BLOCK = 1 << 17
TAG_INDEX = 2**64 - 1
TAG_BATCH = 2**64 - 2


def _simulate_on(workers, *args):
    with mock.patch.object(montecarlo, "_usable_cpus", lambda: workers):
        return simulate(*args)


def _block_values(fam, model, count, index_rng, rng):
    """One draw_block as simulate lays it out: lattice values repeated, then the sums."""
    values, counts, sums = montecarlo.draw_block(fam, model, count, index_rng, rng, {})
    return np.append(np.repeat(values, counts), sums)


class _Full:
    """A random index model whose every trial draws k: the per-trial array of a det index."""

    def __init__(self, k):
        self.k = k

    def sample(self, rng, size):
        return np.full(size, self.k)


class TestSimulate:
    def test_single_trial_rademacher(self):
        s = simulate(make_family("rademacher"), Deterministic(1), 1, seed=SEED)
        assert s.values[0] in (-1.0, 1.0)
        assert s.trials == 1

    def test_same_seed_bit_identical(self):
        fam = make_family("expcentered")
        model = make_index("poisson", 25)
        a = simulate(fam, model, 4000, seed=3)
        b = simulate(fam, model, 4000, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        fam = make_family("normal")
        model = Deterministic(5)
        a = simulate(fam, model, 100, seed=1)
        b = simulate(fam, model, 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_index_stream_disjoint_from_summands(self, monkeypatch):
        # the realized index sequence may not depend on the summand family
        model = make_index("geometric", 40)
        native = type(model).sample
        draws = []

        def recording(self, rng, size):
            ks = native(self, rng, size)
            draws.append(ks.copy())
            return ks

        monkeypatch.setattr(type(model), "sample", recording)
        for kind in ("rademacher", "expcentered", "uniform"):
            simulate(make_family(kind), model, 3000, seed=11)
        assert len(draws) == 3
        assert np.array_equal(draws[0], draws[1])
        assert np.array_equal(draws[0], draws[2])

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


class TestBlockLayout:
    """Trials are cut into fixed blocks, each with its own pair of streams."""

    @settings(max_examples=12, deadline=None)
    @given(
        spec=st.sampled_from(["rademacher", "uniform", "normal", "expcentered",
                              "geomnormal", "twopoint", "twopoint,growth=0.5"]),
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 20),
        trials=st.integers(1, 3 * BLOCK),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(spec="uniform", kind="geometric", n=20, trials=3 * BLOCK, seed=2**64 - 1)
    @example(spec="twopoint", kind="poisson", n=7, trials=BLOCK + 1, seed=0)
    def test_bytes_independent_of_worker_count(self, spec, kind, n, trials, seed):
        args = (parse_family(spec), make_index(kind, n), trials, seed)
        one = _simulate_on(1, *args).values
        two = _simulate_on(2, *args).values
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("spec,kind,n", [
        ("rademacher", "det", 16), ("expcentered", "poisson", 9),
        ("uniform", "geometric", 12), ("twopoint", "uniform", 30),
        ("geomnormal", "geometric", 40),
    ])
    @pytest.mark.parametrize("trials", [1, 1000, BLOCK])
    def test_one_block_keeps_single_stream_values(self, spec, kind, n, trials):
        fam, model = parse_family(spec), make_index(kind, n)
        ref = _block_values(fam, model, trials, montecarlo._stream(SEED, TAG_INDEX),
                            montecarlo._stream(SEED, TAG_BATCH))
        got = _simulate_on(2, fam, model, trials, SEED).values
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec,kind,n", [
        ("rademacher", "geometric", 40), ("rademacher", "det", 300), ("twopoint", "poisson", 9),
    ])
    def test_each_block_lays_out_its_draw(self, spec, kind, n):
        # block b fills its slice with its lattice values by ascending k, each
        # repeated by its count, then its per-trial draws; the call's shared
        # pmf rows read the bits of a fresh cache per block
        fam, model = parse_family(spec), make_index(kind, n)
        trials = 2 * BLOCK + 200  # the last block's 200 trials are off a k = 300 lattice
        got = _simulate_on(2, fam, model, trials, SEED).values
        ref = [_block_values(fam, model, count, montecarlo._stream(SEED, TAG_INDEX, b),
                             montecarlo._stream(SEED, TAG_BATCH, b))
               for b, count in enumerate((BLOCK, BLOCK, 200))]
        assert got.tobytes() == np.concatenate(ref).tobytes()

    def test_blocks_draw_different_indices_and_summands(self, monkeypatch):
        model = make_index("geometric", 40)
        native = type(model).sample
        index_draws = []

        def recording(self, rng, size):
            ks = native(self, rng, size)
            index_draws.append(ks.copy())
            return ks

        monkeypatch.setattr(type(model), "sample", recording)
        _simulate_on(2, make_family("rademacher"), model, 2 * BLOCK, SEED)
        assert [len(ks) for ks in index_draws] == [BLOCK, BLOCK]
        assert not np.array_equal(index_draws[0], index_draws[1])
        # one standard normal per trial: equal halves would mean one summand stream
        values = _simulate_on(2, make_family("normal"), Deterministic(5), 2 * BLOCK, SEED)
        assert not np.array_equal(values.values[:BLOCK], values.values[BLOCK:])

    def test_pool_threads_end_with_the_call(self):
        before = threading.active_count()
        _simulate_on(2, make_family("rademacher"), Deterministic(4), 3 * BLOCK, SEED)
        assert threading.active_count() == before

    @pytest.mark.parametrize("spec,kind,n", [("uniform", "poisson", 3), ("rademacher", "geometric", 40)])
    def test_workers_beyond_cores_match_serial(self, spec, kind, n):
        # blocks fill disjoint slices of one array: five workers (one per block,
        # more than the cores) switching every microsecond write the same bytes
        # as the calling thread alone; rademacher's share one call's pmf rows
        args = (make_family(spec), make_index(kind, n), 5 * BLOCK, SEED)
        serial = _simulate_on(1, *args).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            crowded = _simulate_on(8, *args).values
        finally:
            sys.setswitchinterval(interval)
        assert crowded.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("spec", ["normal", "geomnormal"])
    def test_normal_families_draw_no_index(self, spec, monkeypatch):
        # S_k / B_k is N(0, 1) whatever k is: no block asks the model for one
        model = make_index("geometric", 40)

        def refuse(self, rng, size):
            raise AssertionError("a normal family drew an index")

        monkeypatch.setattr(type(model), "sample", refuse)
        s = _simulate_on(2, parse_family(spec), model, 2 * BLOCK + 3, SEED)
        direct = [montecarlo._stream(SEED, TAG_BATCH, b).standard_normal(n)
                  for b, n in enumerate((BLOCK, BLOCK, 3))]
        assert s.values.tobytes() == np.concatenate(direct).tobytes()

    @pytest.mark.parametrize("spec", ["rademacher", "expcentered", "uniform", "twopoint"])
    def test_det_index_draws_no_index(self, spec, monkeypatch):
        # a det index hands its n to the sampler as one scalar shape, or as
        # one lattice row of all the block's trials, with the bytes of one
        # per-trial array of n
        model = Deterministic(70)
        fam = parse_family(spec)
        ref = [_block_values(fam, _Full(70), n, None, montecarlo._stream(SEED, TAG_BATCH, b))
               for b, n in enumerate((BLOCK, 5))]
        shapes = []  # of the ks reaching the per-trial sampler, one call per block
        real = type(fam).batch_normalized_sums

        def spy(family, rng, ks, size=None):
            shapes.append(np.shape(ks))
            return real(family, rng, ks, size)

        monkeypatch.setattr(type(fam), "batch_normalized_sums", spy)
        s = _simulate_on(2, fam, model, BLOCK + 5, SEED)
        assert s.values.tobytes() == np.concatenate(ref).tobytes()
        # rademacher's full block is one lattice row and draws no trial here
        assert sorted(shapes) == [(), (0,) if spec == "rademacher" else ()]


class TestLatticeRows:
    def test_rows_keep_the_bytes_of_one_pmf_call_per_position(self):
        # each (k, h <= k / 2) is built once and repeated; the rows equal
        # those that evaluate half_binomial_pmf(k, j // 2) at every position j
        ks = np.arange(1, 400)
        rows = {}
        montecarlo._lattice_pvals(ks, rows)
        for k in ks.tolist():
            want = half_binomial_pmf(np.full(k + 1, k), np.arange(k + 1) // 2)
            assert rows[k].tobytes() == want.tobytes(), k


class TestStreams:
    """_stream(seed, tag, block): a PCG64DXSM stream per key, blocks 2^96 words apart."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("tag", [TAG_INDEX, TAG_BATCH])
    @pytest.mark.parametrize("block", [0, 1, 2**31])
    def test_block_starts_its_window_of_the_keyed_stream(self, seed, tag, block):
        bits = PCG64DXSM(SeedSequence(seed, spawn_key=(tag,)))
        bits.advance(block << 96)
        want = bits.random_raw(4)
        got = montecarlo._stream(seed, tag, block).bit_generator.random_raw(4)
        assert got.tolist() == want.tolist()

    def test_first_words_distinct_across_keys_and_blocks(self):
        seeds = (0, 1, 2**32 + 1, 2**64 - 1)
        firsts = {
            (seed, tag, block): montecarlo._stream(seed, tag, block).bit_generator.random_raw()
            for seed in seeds for tag in (TAG_INDEX, TAG_BATCH) for block in (0, 1, 2**31)
        }
        assert len(set(firsts.values())) == len(firsts) == 24

    def test_seed_and_tag_do_not_collide_as_a_word_list(self):
        # the list form concatenates 32-bit words: these two keys share a state
        list_a = SeedSequence([2**32 + 1, 1]).generate_state(4)
        list_b = SeedSequence([1, 2**32 + 1]).generate_state(4)
        assert list_a.tolist() == list_b.tolist()
        a = montecarlo._stream(2**32 + 1, 1).bit_generator.random_raw(2)
        b = montecarlo._stream(1, 2**32 + 1).bit_generator.random_raw(2)
        assert a.tolist() != b.tolist()

    def test_trials_past_the_block_range_rejected(self):
        # map_blocks refuses before any stream or array is made
        with pytest.raises(ValueError, match="trials"):
            montecarlo.map_blocks(montecarlo.MAX_TRIALS + 1, 1, None)
        assert montecarlo.MAX_TRIALS == BLOCK << 32 == 2**49


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
            assert abs(np.mean(s.values)) < 5.0 / math.sqrt(trials), spec
            assert abs(np.var(s.values) - 1.0) < 10.0 / math.sqrt(trials), spec


class TestExactKolmogorov:
    """simulate's d_hat for Rademacher sums against the exact distance from math.comb."""

    @pytest.mark.parametrize("k, quoted", [(16, 9.82e-2), (64, 4.97e-2), (256, 2.49e-2)])
    def test_oracle_matches_quoted_values(self, k, quoted):
        assert rademacher_kolmogorov([(k, 1.0)]) == pytest.approx(quoted, abs=5e-5)

    @pytest.mark.parametrize("kind, n", [
        ("det", 4), ("det", 16), ("det", 64), ("det", 256), ("geometric", 10),
    ])
    def test_d_hat_within_dkw_band_of_exact(self, kind, n):
        # three blocks: the det ks draw their last 200 trials per trial from
        # k = 256 on, and the geometric blocks draw both ways
        if kind == "det":
            index_pmf, outside = [(n, 1.0)], 0.0
        else:  # the window mixture over k <= 400, and the mass beyond it
            p, top = 1.0 / n, 400
            index_pmf = [(k, p * (1.0 - p) ** (k - 1)) for k in range(1, top + 1)]
            outside = (1.0 - p) ** top
        exact = rademacher_kolmogorov(index_pmf)
        sample = simulate(make_family("rademacher"), make_index(kind, n), 2 * BLOCK + 200, SEED)
        est = kolmogorov_distance(sample)
        assert abs(est.d_hat - exact) <= est.dkw_band + outside


class TestKolmogorovDistance:
    def test_degenerate_sample_at_zero(self):
        s = EmpiricalSample(values=np.zeros(100), trials=100)
        assert kolmogorov_distance(s).d_hat == pytest.approx(0.5, abs=1e-12)

    def test_two_point_sample_frozen(self):
        s = EmpiricalSample(values=np.array([-1.0, 1.0]), trials=2)
        # max gap against Phi at the sorted points: Phi(1) - 1/2
        assert kolmogorov_distance(s).d_hat == pytest.approx(
            0.3413447460685429, rel=1e-12
        )

    def test_dkw_band_value(self):
        s = EmpiricalSample(values=np.zeros(100_000), trials=100_000)
        est = kolmogorov_distance(s)
        assert est.dkw_band == pytest.approx(
            math.sqrt(math.log(2.0 / 0.001) / (2.0 * 100_000)), rel=1e-12
        )
        assert est.dkw_band == pytest.approx(0.0061648, abs=1e-6)

    @given(st.data())
    def test_distance_ignores_sample_order(self, data):
        values = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=200))
        shuffled = data.draw(st.permutations(values))
        a = kolmogorov_distance(EmpiricalSample(values=np.array(values), trials=len(values)))
        b = kolmogorov_distance(
            EmpiricalSample(values=np.array(shuffled), trials=len(values))
        )
        assert a.d_hat == b.d_hat

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
        model = make_index("poisson", 5)
        res = cf_identity_check(fam, model, [0.0])
        assert res.deviations[0] <= model.truncation_tail_mass + 1e-15

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

    def test_nan_t_gives_nan_max_deviation(self):
        # a NaN deviation after a finite one must not read as a pass
        res = cf_identity_check(make_family("normal"), Deterministic(5), [0.0, math.nan])
        assert math.isnan(res.max_deviation)

    def test_heterogeneous_profile_cancels_too(self):
        fam = make_family("geomnormal")
        res = cf_identity_check(fam, make_index("geometric", 5, 0.2), [0.5, 2.0])
        assert res.max_deviation <= 1e-12


class TestCltSweep:
    """One simulate and distance per n, as `randclt simulate` runs them."""

    def test_deterministic_reduces_to_classical(self):
        fam = make_family("rademacher")
        swept = kolmogorov_distance(simulate(fam, make_index("det", 25), 5000, seed=SEED))
        direct = kolmogorov_distance(simulate(fam, Deterministic(25), 5000, seed=SEED))
        assert swept.d_hat == direct.d_hat

    def test_decreasing_distance(self):
        fam = make_family("rademacher")
        ests = [
            kolmogorov_distance(simulate(fam, make_index("geometric", n), 100_000, seed=SEED))
            for n in (10, 100, 1000)
        ]
        d = [e.d_hat for e in ests]
        band = ests[0].dkw_band
        assert d[0] - d[1] > 2 * band
        assert d[1] - d[2] > 2 * band

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--n-grid", ",", "--trials", "10"])

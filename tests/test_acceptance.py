"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria are evaluated at their stated tolerances with fixed seeds; every
Monte Carlo band below is a standard-error or DKW band at the stated level.
"""

import math
import time

import numpy as np

from oracles import all_within_bound, bound_order, ratios_decreasing, statistically_zero
from randclt.conditions import (
    feller,
    implication_audit,
    infinitesimality,
    lindeberg,
    random_feller,
    random_lindeberg,
    random_rotar,
    rotar,
)
from randclt.families import BUILTIN_FAMILY_KINDS, make_family
from randclt.indices import (
    Deterministic,
    ShiftedGeometric,
    ShiftedPoisson,
    UniformIndex,
    make_index,
)
from randclt.montecarlo import cf_identity_check, kolmogorov_distance, simulate
from randclt.rates import make_test_function, rate_audit

SEED = 20260808
DKW_BAND_1E5 = 0.00617

# (label, mean, variance, trials) for every simulation the suite performs
_NORMALIZATION_LOG = []


def _record(label, sample):
    _NORMALIZATION_LOG.append(
        (label, float(np.mean(sample.values)), float(np.var(sample.values)), sample.trials)
    )
    return sample


def _report(num, description, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}", flush=True)
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_cf_identity():
    t0 = time.perf_counter()
    fam = make_family("normal")
    models = [
        Deterministic(5),
        ShiftedPoisson(5, lam=5.0),
        ShiftedGeometric(5, p=0.2),
        UniformIndex(20, m=20),
    ]
    t_grid = (0.0, 0.5, 1.0, 2.0, 4.0)
    worst = max(cf_identity_check(fam, m, t_grid).max_deviation for m in models)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"cf mixing identity max deviation {worst:.3e} <= 1e-12 in {elapsed:.3f}s",
        worst <= 1e-12 and elapsed < 1.0,
    )


def test_criterion_2_inequality_chain():
    t0 = time.perf_counter()
    failures = []
    models = {
        (kind, n): make_index(kind, n)
        for kind in ("det", "poisson", "geometric", "uniform")
        for n in (1, 10, 100, 1000)
    }
    for family_kind in BUILTIN_FAMILY_KINDS:
        fam = make_family(family_kind)
        for index_kind in ("det", "poisson", "geometric", "uniform"):
            for n in (1, 10, 100, 1000):
                for eps in (0.05, 0.1, 0.5, 1.0):
                    audit = implication_audit(
                        fam, models[(index_kind, n)], n, eps, 1.0
                    )
                    if not audit.passed:
                        failures.append((family_kind, index_kind, n, eps))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"implication audit over 384 configurations, {len(failures)} failures, "
        f"{elapsed:.1f}s",
        not failures and elapsed < 300.0,
    )


def test_criterion_3_deterministic_reduction():
    ok = True
    for family_kind in BUILTIN_FAMILY_KINDS:
        fam = make_family(family_kind)
        for n in (1, 10, 100):
            model = Deterministic(n)
            ok &= model.truncation_tail_mass == 0.0
            ok &= random_lindeberg(fam, model, 0.3).value == lindeberg(fam, n, 0.3).value
            ok &= random_feller(fam, model).value == feller(fam, n).value
            ok &= random_rotar(fam, model, 0.3).value == rotar(fam, n, 0.3).value
    _report(3, "point-mass index reproduces non-random functionals exactly", ok)


def test_criterion_4_non_classical_configuration():
    fam = make_family("geomnormal")
    rot = rotar(fam, 30, 0.5).value
    fel = feller(fam, 30).value
    oracle = 2.0**29 / (2.0**30 - 1.0)
    inf_val = infinitesimality(fam, 30, 0.5).value
    sample = _record(
        "criterion4", simulate(fam, Deterministic(30), 100_000, seed=SEED)
    )
    d_hat = kolmogorov_distance(sample).d_hat
    ok = (
        rot == 0.0
        and 0.499 <= fel <= 0.501
        and abs(fel - oracle) < 1e-12
        and inf_val > 0.5
        and d_hat <= DKW_BAND_1E5
    )
    _report(
        4,
        "exploding-variance normal summands: comparison functional 0, "
        f"max share {fel:.6f}, exceedance {inf_val:.3f}, distance {d_hat:.5f}",
        ok,
    )


def test_criterion_5_random_rotar_clt_forward():
    t0 = time.perf_counter()
    fam = make_family("rademacher")
    rr = [
        random_rotar(fam, make_index("geometric", n), 0.1).value
        for n in (10, 100, 1000)
    ]
    monotone = rr[0] > rr[1] > rr[2]

    ests = [
        kolmogorov_distance(_record(
            f"criterion5_n{n}",
            simulate(fam, make_index("geometric", n), 100_000, seed=SEED),
        ))
        for n in (10, 100, 1000)
    ]
    d = [e.d_hat for e in ests]
    band = ests[0].dkw_band
    shrinking = (d[0] - d[1] > 2 * band) and (d[1] - d[2] > 2 * band)
    elapsed = time.perf_counter() - t0
    _report(
        5,
        f"random comparison values {rr[0]:.4f} > {rr[1]:.4f} > {rr[2]:.4f} and "
        f"distances {d[0]:.4f} > {d[1]:.4f} > {d[2]:.4f} beyond DKW, {elapsed:.0f}s",
        monotone and shrinking and elapsed < 600.0,
    )


def test_criterion_6_large_o_rate_shape():
    fam = make_family("rademacher")
    curve = rate_audit(
        fam, ((n, make_index("det", n)) for n in (4, 16, 64, 256, 1024)),
        make_test_function("sin"),
        1_000_000, seed=SEED, mode="large-o",
    )
    within = all_within_bound(curve)
    order_ok = abs(bound_order(curve) - (-1.0)) <= 0.02
    for p in curve:
        _record(
            f"criterion6_n{p.n}",
            simulate(fam, Deterministic(p.n), 1_000_000, seed=SEED),
        )
    _report(
        6,
        f"metric within fitted bound at every n, bound order "
        f"{bound_order(curve):.4f} within -1.00 +- 0.02",
        within and order_ok,
    )


def test_criterion_7_small_o_ratio():
    fam = make_family("rademacher")
    bump = make_test_function("bump")
    curve = rate_audit(
        fam, ((n, make_index("geometric", n)) for n in (10, 100, 1000)), bump,
        8_000_000, seed=SEED, mode="small-o",
    )
    for n in (10, 100, 1000):
        _record(
            f"criterion7_n{n}",
            simulate(fam, make_index("geometric", n), 200_000, seed=SEED),
        )
    decreasing = ratios_decreasing(curve, 4.0)

    nrm = make_family("normal")
    curve_normal = rate_audit(
        nrm, ((n, make_index("geometric", n)) for n in (10, 100, 1000)), bump,
        100_000, seed=SEED, mode="small-o",
    )
    ratios = [p.ratio for p in curve]
    _report(
        7,
        f"ratio metric/E[1/B] decreasing {ratios[0]:.4f} > {ratios[1]:.4f} > "
        f"{ratios[2]:.4f} beyond 4 stderr; all-normal statistically zero",
        decreasing and statistically_zero(curve_normal, 4.0),
    )


def test_criterion_8_normalization_identities():
    # spanning set: every family x every index kind, plus everything the
    # earlier criteria simulated (registered in the log)
    for family_kind in BUILTIN_FAMILY_KINDS:
        fam = make_family(family_kind)
        for index_kind in ("det", "poisson", "geometric", "uniform"):
            model = make_index(index_kind, 50)
            _record(
                f"span_{family_kind}_{index_kind}",
                simulate(fam, model, 20_000, seed=SEED),
            )
    bad = [
        (label, mean, var, trials)
        for label, mean, var, trials in _NORMALIZATION_LOG
        if abs(mean) > 5.0 / math.sqrt(trials)
        or abs(var - 1.0) > 10.0 / math.sqrt(trials)
    ]
    _report(
        8,
        f"mean within 5/sqrt(T) and variance within 10/sqrt(T) across "
        f"{len(_NORMALIZATION_LOG)} simulations",
        not bad,
    )


def test_criterion_9_reproducibility(tmp_path):
    from randclt.cli import main

    argv = [
        "simulate", "--family", "twopoint", "--index", "geometric",
        "--n-grid", "10,40", "--trials", "2000", "--seed", str(SEED), "--out",
    ]
    outs = []
    for name in ("a.csv", "b.csv", "again.csv"):
        path = tmp_path / name
        assert main(argv + [str(path)]) == 0
        outs.append(path.read_bytes())
    fast_argv = [
        "conditions", "--family", "rademacher", "--index", "poisson",
        "--n-grid", "5,25", "--epsilon", "0.1,0.5", "--out",
    ]
    fast = []
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        assert main(fast_argv + [str(path)]) == 0
        fast.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2] and fast[0] == fast[1]
    _report(9, "byte-identical CSV output across repeated runs", ok)

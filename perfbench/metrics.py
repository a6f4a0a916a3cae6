"""Metric table of the benchmark: names, units, and what each one should move.

BENCHMARK.json lists the same names and units; selftest.py checks that the two
agree.  For every per-layer metric, `moves` names the end-to-end metric a
change to that layer should move and `on` the workloads where it shows, so a
performance claim can be stated as (metric, workload) before any code changes.

Every per-layer value is per rep, one pass of the workload's command sequence.
A `_s` layer metric is self time: time inside the wrapped public functions of
that layer minus time inside wrapped functions they call.  The self times of
all layers, `cli.self_s` included, therefore add up to the traced wall time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),  # at the reference machine speed, see reference.py
    Metric("peak_rss_mb", "MiB", "lower"),
)

# The pass time unscaled.  Printed and kept in the run record, but not in the
# result line: it drifts with the shared host's speed, wall_s does not.
RAW_TIMES = (Metric("wall_raw_s", "s", "lower"),)

# Printed with the end-to-end metrics but carried in the result line as
# `attempted`/`failed`: it reads 0 on healthy workloads, so it has no bound.
OPS_FAILED_FRAC = Metric("ops_failed_frac", "ratio", "lower")

PER_LAYER = (
    Metric("cli.self_s", "s", "lower", "wall_s", "all; small everywhere"),
    Metric("cli.ops", "count", "higher", "wall_s", "all"),
    Metric("setup.import_numpy_s", "s", "lower", "setup_s", "all"),
    Metric("setup.import_scipy_s", "s", "lower", "setup_s", "all"),
    Metric("setup.import_randclt_self_s", "s", "lower", "setup_s", "all"),
    Metric("indices.make_index_s", "s", "lower",
           "wall_s, peak_rss_mb", "functionals; ~0 on rates-smooth"),
    Metric("indices.support_terms", "count", "lower",
           "wall_s, peak_rss_mb", "functionals"),
    Metric("indices.cap_hits", "count", "lower", "ops_failed_frac", "functionals"),
    Metric("indices.sample_s", "s", "lower", "wall_s",
           "mc-sweep; ~0 for det in rates-smooth"),
    Metric("families.per_trial_s", "s", "lower", "wall_s",
           "mc-sweep; absent elsewhere"),
    Metric("families.per_trial_calls", "count", "lower", "wall_s",
           "mc-sweep; absent elsewhere"),
    Metric("families.vectorized_share", "ratio", "higher", "wall_s",
           "mc-sweep; 1 on rates-smooth"),
    Metric("families.batch_s", "s", "lower", "wall_s, peak_rss_mb", "rates-smooth"),
    Metric("conditions.classical_s", "s", "lower", "wall_s", "functionals"),
    Metric("conditions.randomized_s", "s", "lower", "wall_s",
           "functionals; small in mc-sweep and rates-smooth"),
    Metric("conditions.audit_self_s", "s", "lower", "wall_s", "functionals, mc-sweep"),
    Metric("conditions.calls", "count", "lower", "wall_s", "functionals"),
    Metric("montecarlo.simulate_self_s", "s", "lower",
           "wall_s, peak_rss_mb", "rates-smooth, mc-sweep"),
    Metric("montecarlo.trials", "count", "higher", "wall_s", "rates-smooth, mc-sweep"),
    Metric("montecarlo.trials_per_s", "1/s", "higher", "wall_s",
           "rates-smooth, mc-sweep"),
    Metric("montecarlo.kolmogorov_s", "s", "lower", "wall_s", "mc-sweep"),
    Metric("montecarlo.cf_check_s", "s", "lower", "wall_s", "functionals"),
    Metric("quadrature.adaptive_integral_s", "s", "lower",
           "wall_s (negligible; item 4 moves setup_s)", "rates-smooth"),
    Metric("quadrature.adaptive_integral_calls", "count", "lower", "wall_s",
           "rates-smooth"),
    Metric("rates.smooth_metric_self_s", "s", "lower", "wall_s", "rates-smooth"),
    Metric("rates.expect_under_normal_s", "s", "lower", "wall_s", "rates-smooth"),
    Metric("rates.empirical_constant_s", "s", "lower", "wall_s", "mc-sweep (audit)"),
    Metric("trace.overhead_s", "s", "lower", "n/a", "all"),
)

"""Span tracing of randclt's public functions, from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper that
records a span (name, start, end, parent) in memory.  A function is wrapped
wherever it is looked up: in its defining module and in every randclt module
that binds it by name (`cli`, `montecarlo` and `rates` import `simulate`,
`make_index`, `random_rotar` and `adaptive_integral` directly).  Methods are
wrapped on their class.  A traced name that no longer exists is skipped, so
its layer reads as zero work.  `uninstall()` restores the originals.

Spans nest through a single stack: the harness runs randclt on one thread
(it never sets --workers or RANDCLT_WORKERS).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _after_make_index(tracer, model):
    terms = len(model.support)
    tracer.counts["indices.support_terms"] += terms
    cap = getattr(sys.modules["randclt.indices"], "TRUNCATION_CAP", None)
    if cap is not None and terms >= cap:
        tracer.counts["indices.cap_hits"] += 1


def _after_batch(tracer, values):
    if values is not None:
        tracer.counts["families.batch_trials"] += len(values)


def _after_simulate(tracer, sample):
    tracer.counts["montecarlo.trials"] += sample.trials


_CLASSICAL = ("lyapunov", "lindeberg", "feller", "infinitesimality", "rotar")
_RANDOMIZED = ("random_lindeberg", "random_feller", "random_rotar")
_CONDITIONS = _CLASSICAL + _RANDOMIZED + ("implication_audit",)

# (span name, module, attribute path, hook run on the result)
TARGETS = (
    ("cli.main", "randclt.cli", "main", None),
    ("indices.make_index", "randclt.indices", "make_index", _after_make_index),
    ("indices.sample", "randclt.indices", "RandomIndexModel.sample", None),
    ("families.normalized_sum_draw", "randclt.families",
     "SummandFamily.normalized_sum_draw", None),
    ("families.batch_normalized_sums", "randclt.families",
     "SummandFamily.batch_normalized_sums", _after_batch),
    *((f"conditions.{n}", "randclt.conditions", n, None) for n in _CONDITIONS),
    ("montecarlo.simulate", "randclt.montecarlo", "simulate", _after_simulate),
    ("montecarlo.kolmogorov_distance", "randclt.montecarlo", "kolmogorov_distance", None),
    ("montecarlo.cf_identity_check", "randclt.montecarlo", "cf_identity_check", None),
    ("quadrature.adaptive_integral", "randclt.quadrature", "adaptive_integral", None),
    ("rates.smooth_metric", "randclt.rates", "smooth_metric", None),
    ("rates.expect_under_normal", "randclt.rates", "expect_under_normal", None),
    ("rates.empirical_rotar_constant", "randclt.rates", "empirical_rotar_constant", None),
)

# per-layer self-time metric -> span names it sums
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "indices.make_index_s": ("indices.make_index",),
    "indices.sample_s": ("indices.sample",),
    "families.per_trial_s": ("families.normalized_sum_draw",),
    "families.batch_s": ("families.batch_normalized_sums",),
    "conditions.classical_s": tuple(f"conditions.{n}" for n in _CLASSICAL),
    "conditions.randomized_s": tuple(f"conditions.{n}" for n in _RANDOMIZED),
    "conditions.audit_self_s": ("conditions.implication_audit",),
    "montecarlo.simulate_self_s": ("montecarlo.simulate",),
    "montecarlo.kolmogorov_s": ("montecarlo.kolmogorov_distance",),
    "montecarlo.cf_check_s": ("montecarlo.cf_identity_check",),
    "quadrature.adaptive_integral_s": ("quadrature.adaptive_integral",),
    "rates.smooth_metric_self_s": ("rates.smooth_metric",),
    "rates.expect_under_normal_s": ("rates.expect_under_normal",),
    "rates.empirical_constant_s": ("rates.empirical_rotar_constant",),
}

# per-layer call-count metric -> span names it counts
CALL_COUNTS = {
    "cli.ops": ("cli.main",),
    "families.per_trial_calls": ("families.normalized_sum_draw",),
    "conditions.calls": tuple(f"conditions.{n}" for n in _CONDITIONS),
    "quadrature.adaptive_integral_calls": ("quadrature.adaptive_integral",),
}


class Tracer:
    """Wraps the traced functions and keeps their spans and counters."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.counts = Counter()
        self._stack = [-1]
        self._restore = []

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "randclt" or k.startswith("randclt."))]
        for name, module_name, path, after in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn, after)
            for target in [owner] if outer else modules:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, key, wrapped)
                        self._restore.append((target, key, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._restore):
            setattr(target, key, fn)
        self._restore.clear()

    def totals(self):
        """Self time, inclusive time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_t, incl, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_t[name] += end - start - child[i]
            incl[name] += end - start
            calls[name] += 1
        return self_t, incl, calls

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and metrics.py agree, that every metric prints
with its unit for every workload, that the traced layer self times account
for the traced wall time, and that a traced public name which no longer
exists reads as zero work instead of breaking the harness.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest

import run
from metrics import END_TO_END, PER_LAYER
from tracing import SELF_TIMES
from workloads import WORKLOADS

TOY_SECONDS = "0.2"


def _toy_run(workload: str, trace: int):
    """Run the harness at toy size; returns (exit code, stdout lines, record)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", TOY_SECONDS, "--trace", str(trace)], toy=True)
    record = json.loads((run.OUT / f"result-{workload}-trace{trace}.json").read_text())
    return code, buf.getvalue().splitlines(), record


@contextlib.contextmanager
def _deleted(*names):
    """Remove public names from every randclt namespace, as a refactor might."""
    run.import_cli()
    import randclt
    import randclt.families
    import randclt.quadrature
    import randclt.rates

    owners = {
        "normalized_sum_draw": [randclt.families.SummandFamily],
        "adaptive_integral": [randclt, randclt.quadrature, randclt.rates],
    }
    saved = [(o, n, getattr(o, n)) for n in names for o in owners[n]]
    for owner, name, _ in saved:
        delattr(owner, name)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


class HarnessSelfTest(unittest.TestCase):
    def test_benchmark_json_matches_metric_table(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                [(m.name, m.unit, m.better) for m in table],
            )

    def test_every_metric_prints_with_unit(self):
        for workload in WORKLOADS:
            for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, _ = _toy_run(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        result["metrics"],
                        {m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
                         for m in table},
                    )
                    printed = {ln.split()[1]: ln.split()[3] for ln in lines
                               if ln.startswith("metric ")}
                    for m in table:
                        self.assertEqual(printed[m.name], m.unit)
                    self.assertIn("ops_failed_frac", printed)

    def test_self_times_account_for_traced_wall(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, lines, record = _toy_run(workload, 1)
                metrics = json.loads(lines[-1])["metrics"]
                layers = sum(metrics[name]["value"] for name in SELF_TIMES)
                traced = record["passes"]["traced_s"]
                wall = sum(traced) / len(traced)
                self.assertAlmostEqual(layers, wall, delta=0.02 * wall + 0.002)

    def test_deleted_public_name_reads_as_zero_work(self):
        with _deleted("normalized_sum_draw", "adaptive_integral"):
            code, lines, _ = _toy_run("functionals", 1)
        self.assertEqual(code, 0)
        metrics = json.loads(lines[-1])["metrics"]
        for name in ("families.per_trial_s", "families.per_trial_calls",
                     "quadrature.adaptive_integral_s", "quadrature.adaptive_integral_calls"):
            self.assertEqual(metrics[name]["value"], 0)
        self.assertGreater(metrics["conditions.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

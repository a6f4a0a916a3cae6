"""Output checks that hold for any correct run, whatever its random stream.

No golden bytes: every check follows from the README's output contract or
from a bound the program certifies, so a change of stream layout, which
changes the seeded draws, passes unchanged.  `check_output` returns the
names of the checks that failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

HEADERS = {
    "conditions": ["condition", "n", "epsilon", "delta", "value", "error_bound"],
    "simulate": ["n", "trials", "seed", "d_hat", "dkw_band"],
    "rates": ["n", "metric", "mc_stderr", "bound", "ratio"],
}
SCHEMAS = {"cf-check": "cfcheck.schema.json", "audit": "audit.schema.json"}

DKW_GAMMA = 0.999  # confidence of the reported Kolmogorov band
TRUNCATION_TARGET = 1e-12  # default --trunc-mass
KERNEL_RTOL = 1e-12  # round-off the program grants each closed-form kernel
SUM_ROUNDOFF = 64 * 2.0**-52  # round-off of 1 - sum(pmf) over the support
# integrand bound that certifies the truncation of each randomized functional
INTEGRAND_BOUND = {"random_lindeberg": 1.0, "random_feller": 1.0, "random_rotar": 2.0}


def _finite_nonneg(x: float) -> bool:
    return math.isfinite(x) and x >= 0.0


def _grid(cmd) -> list:
    return [int(n) for n in cmd.flag("--n-grid", "10,100,1000").split(",")]


def _check_conditions(cmd, rows, failed):
    if sorted({int(r["n"]) for r in rows}) != sorted(set(_grid(cmd))):
        failed.append("rows")
    if not all(_finite_nonneg(float(r["value"])) and _finite_nonneg(float(r["error_bound"]))
               for r in rows):
        failed.append("finite_nonneg")
    trunc = float(cmd.flag("--trunc-mass", TRUNCATION_TARGET))
    for r in rows:
        bound = INTEGRAND_BOUND.get(r["condition"])
        if bound is None:
            continue
        value, err = float(r["value"]), float(r["error_bound"])
        if not err <= trunc * bound + KERNEL_RTOL * (1.0 + value) + SUM_ROUNDOFF:
            failed.append("trunc_bound")
            break


def _check_simulate(cmd, rows, failed):
    trials = int(cmd.flag("--trials"))
    if [int(r["n"]) for r in rows] != _grid(cmd) or any(
        int(r["trials"]) != trials or r["seed"] != cmd.flag("--seed", "0") for r in rows
    ):
        failed.append("rows")
    if not all(0.0 <= float(r["d_hat"]) <= 1.0 for r in rows):
        failed.append("d_hat_range")
    band = math.sqrt(math.log(2.0 / (1.0 - DKW_GAMMA)) / (2.0 * trials))
    if not all(math.isclose(float(r["dkw_band"]), band, rel_tol=1e-12) for r in rows):
        failed.append("dkw_band")


def _check_rates(cmd, rows, failed):
    if [int(r["n"]) for r in rows] != _grid(cmd):
        failed.append("rows")
    if not all(_finite_nonneg(float(r[k])) for r in rows
               for k in ("metric", "mc_stderr", "bound")):
        failed.append("finite_nonneg")


def _check_json(cmd, payload, failed):
    from randclt import schema

    try:
        schema.validate(payload, schema.load_schema(SCHEMAS[cmd.sub]))
    except schema.SchemaError:
        failed.append("schema")
        return
    if payload.get("passed") is not True:
        failed.append("passed")
    if cmd.sub == "audit":
        bounds = [c["error_bound"] for cfg in payload["configs"] for c in cfg["checks"]]
        if not all(_finite_nonneg(b) for b in bounds):
            failed.append("finite_nonneg")


_CSV_CHECKS = {
    "conditions": _check_conditions,
    "simulate": _check_simulate,
    "rates": _check_rates,
}


def check_output(cmd, exit_code: int, text: str | None) -> list:
    """Names of the checks `cmd`'s output fails; exit status counts as one."""
    failed = [] if exit_code == 0 else [f"exit_{exit_code}"]
    if text is None:
        return failed + ["no_output"]
    try:
        if cmd.sub in SCHEMAS:
            _check_json(cmd, json.loads(text), failed)
            return failed
        reader = csv.reader(io.StringIO(text))
        header = next(reader, [])
        if header != HEADERS[cmd.sub]:
            return failed + ["header"]
        rows = [dict(zip(header, row)) for row in reader]
        _CSV_CHECKS[cmd.sub](cmd, rows, failed)
    except (ValueError, KeyError, TypeError):
        failed.append("parse")
    return failed

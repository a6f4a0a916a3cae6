"""Benchmark harness for randclt.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One process, one closed-loop client:
the harness calls `randclt.cli.main(argv)` in-process, one command after the
other, and repeats the workload's command sequence (a pass) while another
pass of average length still fits in `--seconds`.  It never passes --workers
and clears RANDCLT_WORKERS, so randclt runs at its default thread count.
Every output is checked (see checks.py).

--trace 0 prints the end-to-end metrics: set-up time from fresh interpreters,
the time of one pass at the reference machine speed (see reference.py), and
peak RSS.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics (metrics.py), with the set-up split taken from
`python -X importtime`.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  Spans and a per-command record go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import SCHEMAS, check_output
from metrics import END_TO_END, OPS_FAILED_FRAC, PER_LAYER, RAW_TIMES
from reference import REF_NOMINAL_S, reference_time
from tracing import CALL_COUNTS, SELF_TIMES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE = "import randclt.cli as cli; cli.build_parser()"


class BenchError(RuntimeError):
    """The harness cannot run here (for example, no randclt sources)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RANDCLT_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters
# ---------------------------------------------------------------------------


def setup_times(probes: int) -> list:
    """Wall time of fresh interpreters that import randclt.cli and build its parser."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_child_env(), check=True)
        times.append(perf_counter() - start)
    return times


def parse_importtime(stderr: str) -> dict:
    """Split a `-X importtime` log into numpy, scipy and randclt's own time.

    numpy and scipy count the cumulative time of their outermost imports, so
    what they pull in is theirs; randclt counts the self time of its modules.
    """
    entries = []  # (depth, root package, self us, cumulative us), post-order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cum, name = line.split("|", 2)
        try:
            self_us, cum_us = int(head.split(":")[1]), int(cum)
        except ValueError:
            continue  # the column header
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0], self_us, cum_us))
    out = {"numpy": 0, "scipy": 0, "randclt": 0}
    stack = []  # (depth, inside numpy or scipy) of the current ancestors
    for depth, root, self_us, cum_us in reversed(entries):  # pre-order
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        if root in ("numpy", "scipy") and not inside:
            out[root] += cum_us
        if root == "randclt":
            out["randclt"] += self_us
        stack.append((depth, inside or root in ("numpy", "scipy")))
    return {
        "setup.import_numpy_s": out["numpy"] * 1e-6,
        "setup.import_scipy_s": out["scipy"] * 1e-6,
        "setup.import_randclt_self_s": out["randclt"] * 1e-6,
    }


def setup_breakdown(probes: int) -> dict:
    """Median of the import-time split over fresh interpreters."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", PROBE], cwd=ROOT,
            env=_child_env(), check=True, capture_output=True, text=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "load": "one process, closed loop, one client, default thread count",
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs command sequences in-process and checks every output."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}  # command -> (checks it failed, known seed defect)

    def _call(self, argv) -> int:
        # randclt writes nothing to stdout with --out; keep the result line clean
        with contextlib.redirect_stdout(sys.stderr):
            try:
                return self.cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a dead run
                print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
                return -1

    def sequence(self, commands=None, count: bool = True) -> tuple:
        """One pass over the commands.

        Returns the wall time of each call and, for each, the mean time of
        the reference task run just before and just after it.
        """
        times, refs = [], [reference_time()]
        for i, cmd in enumerate(commands or self.commands):
            out = OUT / f"out{i}.{'json' if cmd.sub in SCHEMAS else 'csv'}"
            if out.exists():
                out.unlink()
            start = perf_counter()
            code = self._call(cmd.argv(str(out)))
            times.append(perf_counter() - start)
            text = out.read_text() if out.exists() else None
            bad = check_output(cmd, code, text)
            refs.append(reference_time())
            if not count:
                continue
            self.attempted += 1
            if bad:
                self.failed += 1
                self.unexpected += not cmd.known_defect
                self.failures.setdefault(str(cmd), (bad, cmd.known_defect))
        return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def import_cli():
    if not (SRC / "randclt" / "cli.py").is_file():
        raise BenchError(f"no randclt sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import randclt.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "randclt":
        raise BenchError(f"imported randclt from {cli.__file__}, not {SRC}")
    return cli


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False):
    """One measurement; returns (metrics, loop, pass times in seconds)."""
    os.environ.pop("RANDCLT_WORKERS", None)
    cli = import_cli()
    probes = 1 if toy else SETUP_PROBES
    metrics = {}
    if trace:
        metrics.update(setup_breakdown(probes))
    else:
        metrics["setup_s"] = statistics.median(setup_times(probes))
    OUT.mkdir(exist_ok=True)
    build = WORKLOADS[workload]
    loop = Loop(cli, build(seed, toy=toy))
    loop.sequence(build(seed, toy=True), count=False)  # lazy imports, first calls

    plain, traced = [], []  # per pass: the time of each command
    plain_refs = []  # per plain pass: the reference time around each command
    tracer = Tracer()

    def plain_pass():
        times, refs = loop.sequence()
        plain.append(times)
        plain_refs.append(refs)

    def traced_pass():
        tracer.install()
        try:
            traced.append(loop.sequence()[0])
        finally:
            tracer.uninstall()

    # Start another round only while the mean round so far still fits.  Traced
    # rounds alternate which pass goes first, so neither gets the colder start.
    start = perf_counter()
    deadline = start + seconds
    while True:
        if trace and len(plain) % 2:
            traced_pass()
        plain_pass()
        if trace and len(plain) % 2:
            traced_pass()
        now = perf_counter()
        if now + (now - start) / len(plain) > deadline:
            break

    if trace:
        metrics.update(_layer_metrics(tracer, plain, traced))
        tracer.write(OUT / f"spans-{workload}.csv")
    else:
        # each command's median over the passes, so one slow pass moves little
        metrics["wall_raw_s"] = sum(statistics.median(col) for col in zip(*plain))
        # each command at the reference machine speed (see reference.py)
        scaled = [[t * REF_NOMINAL_S / r for t, r in zip(times, refs)]
                  for times, refs in zip(plain, plain_refs)]
        metrics["wall_s"] = sum(statistics.median(col) for col in zip(*scaled))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, loop, {"plain_s": [sum(p) for p in plain],
                           "traced_s": [sum(p) for p in traced],
                           "reference_s": [statistics.median(r) for r in plain_refs]}


def _layer_metrics(tracer, plain, traced) -> dict:
    n = len(traced)
    self_t, incl, calls = tracer.totals()
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_t[name] for name in names) / n
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(calls[name] for name in names) / n
    trials = tracer.counts["montecarlo.trials"]
    out["indices.support_terms"] = tracer.counts["indices.support_terms"] / n
    out["indices.cap_hits"] = tracer.counts["indices.cap_hits"] / n
    out["montecarlo.trials"] = trials / n
    out["families.vectorized_share"] = (
        tracer.counts["families.batch_trials"] / trials if trials else 0.0
    )
    sim_time = incl["montecarlo.simulate"]
    out["montecarlo.trials_per_s"] = trials / sim_time if sim_time else 0.0
    out["trace.overhead_s"] = (sum(map(sum, traced)) - sum(map(sum, plain))) / n
    return out


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report(workload, seed, trace, metrics, loop, passes, env) -> dict:
    """Print the human-readable report and return the result object."""
    table = PER_LAYER if trace else END_TO_END
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes['plain_s'])} traced_passes={len(passes['traced_s'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for cmd, (bad, defect) in loop.failures.items():
        note = f" (known seed defect: {defect})" if defect else ""
        print(f"FAILED {cmd}: {','.join(bad)}{note}")
    frac = loop.failed / loop.attempted if loop.attempted else 0.0
    for m in table + (() if trace else RAW_TIMES):
        print(f"metric {m.name} {metrics[m.name]!r} {m.unit}")
    print(f"metric {OPS_FAILED_FRAC.name} {frac!r} {OPS_FAILED_FRAC.unit}")
    result = {
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in table},
    }
    record = dict(result, workload=workload, seed=seed, trace=int(trace), env=env,
                  passes=passes, ops_failed_frac=frac,
                  **{m.name: metrics.get(m.name) for m in RAW_TIMES},
                  failures={c: {"checks": b, "known_defect": d}
                            for c, (b, d) in loop.failures.items()})
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


def main(argv=None, toy: bool = False) -> int:
    """Command-line entry; `toy` shrinks every size (used by selftest.py)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, loop, passes = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), toy=toy)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, bool(args.trace), metrics, loop, passes,
                    environment())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

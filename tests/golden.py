"""Golden output bytes: a corpus of randclt commands and the SHA-256 of what they write.

Each entry holds a command's argv (without --out), its exit code, and the
SHA-256 of its stdout, its stderr and the file it writes through --out.
test_golden.py replays every entry in process through cli.main and compares.
A change that moves bytes then shows as a diff of golden.json.

Sampled bytes are a function of the flags, the seed and numpy's version
(numpy's Generator makes no stream promise across versions, NEP 19).  Every
float byte also follows the rounding of numpy's float64 exp, log, expm1,
log1p and sin, whose SIMD loops are picked per host (AVX512F, AVX2, or
none) and round differently from one another and from libm.  So each entry
is keyed to the numpy version that wrote it and to float_fingerprint(), a
hash of those functions' bits over fixed inputs; on any other numpy or
host it is skipped, and the skip names both.  The help and usage-error
entries (TEXT_COMMANDS) hold argparse's text and the parser's messages,
which read no float but vary across Python versions, so they are keyed to
Python's minor version alone.  The refusals of numeric limits (REFUSALS)
print floats as well, so they carry all three keys.  Each
replay runs with COLUMNS=80, the width argparse wraps help to, and records
the code of a SystemExit (argparse's --help exits 0 that way) as the exit
code.  Regenerate the corpus with

    PYTHONPATH=src python tests/golden.py

from the root of a checkout, and say in the change log why its bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

CORPUS = Path(__file__).with_name("golden.json")

COMMANDS = [
    # the mc-sweep workload's four commands at workload seed 1
    "simulate --family rademacher --index geometric --n-grid 10,100,1000"
    " --trials 100000 --seed 577090037",
    "simulate --family twopoint --index geometric --n-grid 10,100,1000"
    " --trials 5000 --seed 271041745",
    "simulate --family uniform --index poisson --n-grid 10,100,1000"
    " --trials 5000 --seed 1095513148",
    "audit --family uniform --index poisson --n-grid 10,100 --epsilon 0.1,0.5"
    " --trials 5000 --seed 506456969",
    # the rates-smooth workload's four commands at workload seed 1; the
    # small-o command's --epsilon is accepted and unread
    "rates --family rademacher --index det --fn sin --n-grid 4,16,64,256"
    " --trials 1000000 --seed 577090037",
    "rates --mode small-o --family rademacher --index geometric --fn bump"
    " --n-grid 10,100,1000 --epsilon 0.5 --trials 1000000 --seed 271041745",
    "rates --family expcentered --index det --fn clamp --n-grid 4,16,64,256"
    " --trials 2000000 --seed 1095513148",
    "rates --family geomnormal --index geometric --fn sin --n-grid 10,100,1000"
    " --trials 2000000 --seed 506456969",
    # the README simulate and small-o rates
    "simulate --family rademacher --index geometric --n-grid 10,100,1000"
    " --trials 100000 --seed 7",
    "rates --mode small-o --family rademacher --index geometric --fn bump"
    " --n-grid 10,100,1000 --trials 1000000",
    # more than 2^17 trials: several blocks of weight-group draws
    "simulate --family uniform --index poisson --n-grid 10,100 --trials 300000 --seed 3",
    "simulate --family twopoint --index geometric --n-grid 10,100,1000"
    " --trials 200000 --seed 3",
    # the functionals workload's seven commands, among them the README
    # conditions and cf-check, and the geometric n = 1e6 refusal (exit 1)
    "conditions --family rademacher --index geometric --n-grid 10,100,1000"
    " --epsilon 0.05,0.5 --delta 1",
    "cf-check --index det:5 --t-grid 0,0.5,1,2,4",
    "conditions --family rademacher --index poisson --n-grid 1000,1000000 --epsilon 0.5",
    "conditions --family rademacher --index geometric --n-grid 1000,1000000 --epsilon 0.5",
    "conditions --family twopoint,growth=1.01 --index geometric --n-grid 1000 --epsilon 0.5",
    "audit --family uniform --index poisson --n-grid 10,100 --epsilon 0.1,0.5 --trials 0",
    "cf-check --index poisson --n-grid 1000000",
    # the geometric walk's 10^8 kept-pair cap: exit 1, the count on stderr
    "conditions --family twopoint,growth=1.000001 --index geometric --n-grid 1000"
    " --epsilon 0.05",
    # geometric-profile walks whose rows repeat, whole or split by a pass
    # (twopoint growth 1.01 at geometric n = 1000), at every index kind
    *(
        f"conditions --family {family} --index {index} --n-grid 10,100,1000"
        " --epsilon 0.05,0.5,2"
        for family in ("twopoint,growth=0.5", "twopoint,growth=1.01",
                       "twopoint,growth=2", "geomnormal,ratio=1.05")
        for index in ("det", "geometric", "poisson", "uniform")
    ),
    # the mixing identity's verdict at an unsorted t-grid and several n, and
    # audit --t-grid, a usage error: cf-check alone reads a t-grid
    "cf-check --index poisson --n-grid 10,1000 --t-grid 0.25,3,0",
    "audit --family twopoint,growth=1.01 --index geometric --n-grid 10,100"
    " --epsilon 0.5 --t-grid 0.25,3 --trials 0",
    # atom ties: eps sqrt(k) on or near the Rademacher atom
    "conditions --family rademacher --index det --n-grid 9 --epsilon 0.3333333333333333",
    "conditions --family rademacher --index poisson --n-grid 9 --epsilon 0.3333333333333333",
    "conditions --family rademacher --index uniform --n-grid 16 --epsilon 0.5",
    "conditions --family twopoint --index det --n-grid 50 --epsilon 0.5",
    # index windows past the term cap (geometric n = 1e6): the commands that
    # read a window refuse before any draw, and simulate reads none
    "rates --family uniform --index geometric --n-grid 1000000 --trials 1000000 --seed 1",
    "audit --family uniform --index geometric --n-grid 10,1000000 --epsilon 0.5"
    " --trials 1000 --seed 1",
    "cf-check --index geometric --n-grid 1000000",
    "simulate --family rademacher --index geometric --n-grid 10,1000000"
    " --trials 1000 --seed 1",
    # a --trunc-mass past the mixing identity's tolerance: cf-check exits 2,
    # and the audit, whose configs pass, exits 0
    "cf-check --index poisson --n-grid 100 --trunc-mass 0.001",
    "audit --family uniform --index poisson --n-grid 10,100 --epsilon 0.5"
    " --trunc-mass 0.001 --trials 0",
    # closed forms of the expcentered and uniform laws and of the geometric
    # and Poisson indices (the normal law's, under a uniform index, follow)
    "conditions --family expcentered --index geometric --n-grid 10,100,1000"
    " --epsilon 0.05,0.5,2",
    "conditions --family uniform --index poisson --n-grid 10,100,1000"
    " --epsilon 0.05,0.5,2",
    "audit --family expcentered --index geometric --n-grid 10,100"
    " --epsilon 0.1,0.5 --trials 0",
    # the exact integer comparison of an atom tie on a constant profile
    "conditions --family twopoint --index det --n-grid 51 --epsilon 0.5000000000000001",
    # index edges: geometric windows at p = 1 and p >= 1/3, the uniform
    # index's sampler and numpy's geometric sampler at p >= 1/3
    "conditions --family uniform --index geometric --n-grid 1,2,3 --epsilon 0.5",
    "simulate --family expcentered --index uniform --n-grid 1,3,10 --trials 5000 --seed 2",
    "simulate --family twopoint --index geometric --n-grid 1,2,3 --trials 5000 --seed 2",
    # an explicit det point between the sweep's n
    "conditions --index det:5 --n-grid 10,100 --epsilon 0.5",
    # each audit's cf-check twin, the mixing identity at its family, index,
    # n-grid and --trunc-mass, at every n: the uniform Poisson audits of the
    # mc-sweep and functionals workloads, the --trunc-mass 0.001 audit, the
    # twopoint audit (at the t-grid of the audit --t-grid entry above) and
    # the expcentered audit
    "cf-check --family uniform --index poisson --n-grid 10,100",
    "cf-check --family uniform --index poisson --n-grid 10,100 --trunc-mass 0.001",
    "cf-check --family twopoint,growth=1.01 --index geometric --n-grid 10,100"
    " --t-grid 0.25,3",
    "cf-check --family expcentered --index geometric --n-grid 10,100",
    # the twopoint audit's configs, run without --t-grid
    "audit --family twopoint,growth=1.01 --index geometric --n-grid 10,100"
    " --epsilon 0.5 --trials 0",
    # d_hat whose sup lies where Phi takes Cephes' P/Q tail branch (|x| >=
    # sqrt(2)): at x = 1.6442, -1.4879 and 1.6684
    "simulate --family expcentered --index det --n-grid 10 --trials 20 --seed 3",
    "simulate --family uniform --index det --n-grid 2 --trials 200 --seed 4",
    "simulate --family twopoint --index det --n-grid 3 --trials 50 --seed 1",
    # geometric windows: past float's exact integers (exit 1, the count on
    # stderr), at a large --trunc-mass (cf-check exits 2), and at p = 1/3
    "conditions --index geometric:1e-20 --n-grid 5",
    "cf-check --index geometric:0.9 --n-grid 1 --trunc-mass 0.5",
    "conditions --family uniform --index geometric:0.3333333333333333 --n-grid 5"
    " --epsilon 0.5",
    # the normal family at sigma_1 = 1: its conditions, its mixing identity
    # and audit (the JSON names the family), its small-o bound shape at
    # B_1 = 1, and a B_k^2 past 1e300 on an exploding profile, whose factor
    # the mixing identity takes as e^(-t^2/2)
    "conditions --family normal --index uniform --n-grid 10,100,1000"
    " --epsilon 0.05,0.5,2",
    "cf-check --family normal --index geometric --n-grid 50,500 --t-grid 0,1,100000",
    "audit --family normal --index poisson --n-grid 10,100 --epsilon 0.5 --trials 0",
    "cf-check --family twopoint --index geometric --n-grid 1000 --t-grid 0,1,100000",
    "rates --mode small-o --family normal --index poisson --fn bump --n-grid 10,100"
    " --trials 3000 --seed 4",
    # infinitesimality: tails exact on constant profiles (uniform clips, the
    # Rademacher atom at t = 1, on and near it), and tails near 0, where a
    # central probability rounded near 1 loses the value (expcentered and
    # normal at n up to 1e8, and the near-constant geomnormal ratio 1 - 1e-5)
    "conditions --family uniform --index det --n-grid 10,100,1000,1000000"
    " --epsilon 0.05,0.5,2",
    "conditions --family rademacher --index det --n-grid 4,9,16,1000000"
    " --epsilon 0.5,0.3333333333333333,0.001",
    "conditions --family expcentered --index det --n-grid 100000000 --epsilon 0.00174",
    "conditions --family normal --index det --n-grid 1000000,100000000"
    " --epsilon 0.005,0.0006",
    "conditions --family geomnormal,ratio=0.99999 --index det --n-grid 1000000"
    " --epsilon 0.012",
]

# help and usage errors: the text on stdout and stderr is the output
TEXT_COMMANDS = [
    "--help",
    *(f"{name} --help" for name in ("conditions", "simulate", "rates", "cf-check", "audit")),
    "conditions --n-grid 10 --trials 5",
    "conditions --n 50",
    "conditions --family Rademacher",
    # index parameters outside their kind's domain
    *(f"conditions --index {spec}" for spec in
      ("det:0", "det:-3", "uniform:0", "poisson:0", "geometric:0", "geometric:1.5")),
    # a test function that is not built in
    "rates --fn tanh",
    # a family parameter the kind does not take: every family has sigma_1 = 1
    "conditions --family normal,sigma=3 --index uniform --n-grid 10,100,1000"
    " --epsilon 0.05,0.5,2",
    "conditions --family normal,sigma=2 --index det --n-grid 5",
    "rates --family normal,sigma=1e-160 --index det --n-grid 5 --trials 10",
]

# refusals of numeric limits: their text is the output, and it prints floats
REFUSALS = [
    "audit --family rademacher --index det --n-grid 5 --epsilon 1e155 --trials 0",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def float_fingerprint() -> str:
    """The first 16 hex digits of the SHA-256 of numpy's float64 exp, log,
    expm1, log1p and sin over fixed inputs, whose own bits are exact."""
    x = np.arange(-745_000, 709_000, 7) / 1000.0
    y = np.ldexp(1.0 + np.arange(40_009) / 40_009.0, np.arange(40_009) % 2_001 - 1_000)
    bits = b"".join(
        f(v).tobytes()
        for f, v in ((np.exp, x), (np.log, y), (np.expm1, x), (np.log1p, y), (np.sin, x))
    )
    return _sha(bits)[:16]


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def replay(argv: list) -> dict:
    """Run argv + --out <file> through cli.main in process; its exit code and hashes."""
    from randclt.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        written = _sha(out.read_bytes()) if out.exists() else None
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "out": written,
    }


def build() -> list:
    entries, host = [], float_fingerprint()
    for line in COMMANDS + TEXT_COMMANDS + REFUSALS:
        argv = line.split()
        entry = {"argv": argv}
        if line not in TEXT_COMMANDS:
            entry.update(numpy=np.__version__, float=host)
        if line not in COMMANDS:
            entry["python"] = python_version()
        entry.update(replay(argv))
        entries.append(entry)
        print(entry["exit"], line, file=sys.stderr)
    return entries


if __name__ == "__main__":
    lines = [json.dumps(entry) for entry in build()]  # one line per entry
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")

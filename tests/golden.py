"""Golden output bytes: a corpus of randclt commands and the SHA-256 of what they write.

Each entry holds a command's argv (without --out), its exit code, and the
SHA-256 of its stdout, its stderr and the file it writes through --out.
test_golden.py replays every entry in process through cli.main and compares.
A change that moves bytes then shows as a diff of golden.json.

Sampled bytes are a function of the flags, the seed and numpy's version
(numpy's Generator makes no stream promise across versions, NEP 19), so a
sampled entry is keyed to the numpy version that wrote it; deterministic
entries carry no version.  Regenerate the corpus with

    PYTHONPATH=src python tests/golden.py

from the root of a checkout, and say in the change log why its bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("golden.json")

# (argv, sampled): sampled entries are keyed to numpy's version
COMMANDS = [
    # the mc-sweep workload's four commands at workload seed 1
    ("simulate --family rademacher --index geometric --n-grid 10,100,1000"
     " --trials 100000 --seed 577090037", True),
    ("simulate --family twopoint --index geometric --n-grid 10,100,1000"
     " --trials 5000 --seed 271041745", True),
    ("simulate --family uniform --index poisson --n-grid 10,100,1000"
     " --trials 5000 --seed 1095513148", True),
    ("audit --family uniform --index poisson --n-grid 10,100 --epsilon 0.1,0.5"
     " --trials 5000 --seed 506456969", True),
    # the README simulate and small-o rates
    ("simulate --family rademacher --index geometric --n-grid 10,100,1000"
     " --trials 100000 --seed 7", True),
    ("rates --mode small-o --family rademacher --index geometric --fn bump"
     " --n-grid 10,100,1000 --trials 1000000", True),
    # more than 2^17 trials: several blocks of weight-group draws
    ("simulate --family uniform --index poisson --n-grid 10,100"
     " --trials 300000 --seed 3", True),
    ("simulate --family twopoint --index geometric --n-grid 10,100,1000"
     " --trials 200000 --seed 3", True),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(argv: list) -> dict:
    """Run argv + --out <file> through cli.main in process; its exit code and hashes."""
    from randclt.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        written = _sha(out.read_bytes()) if out.exists() else None
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "out": written,
    }


def build() -> list:
    entries = []
    for line, sampled in COMMANDS:
        argv = line.split()
        entry = {"argv": argv, "numpy": np.__version__ if sampled else None}
        entry.update(replay(argv))
        entries.append(entry)
        print(entry["exit"], line, file=sys.stderr)
    return entries


if __name__ == "__main__":
    lines = [json.dumps(entry) for entry in build()]  # one line per entry
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")

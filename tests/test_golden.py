"""Every command of the golden corpus keeps its exit code and output bytes."""

import json

import numpy as np
import pytest

from golden import CORPUS, float_fingerprint, python_version, replay

ENTRIES = json.loads(CORPUS.read_text())
HOST = float_fingerprint()
PYTHON = python_version()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replay_keeps_its_bytes(entry):
    if entry.get("numpy", np.__version__) != np.__version__:
        pytest.skip(f"bytes written by numpy {entry['numpy']}, not {np.__version__}")
    if entry.get("float", HOST) != HOST:
        pytest.skip(f"bytes written where float64 exp/log/expm1/log1p/sin hash to "
                    f"{entry['float']}, not {HOST}")
    if entry.get("python", PYTHON) != PYTHON:
        pytest.skip(f"text written by Python {entry['python']}, not {PYTHON}")
    got = replay(entry["argv"])
    assert got == {key: entry[key] for key in got}

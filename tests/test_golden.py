"""Every command of the golden corpus keeps its exit code and output bytes."""

import json

import numpy as np
import pytest

from golden import CORPUS, float_fingerprint, replay

ENTRIES = json.loads(CORPUS.read_text())
HOST = float_fingerprint()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replay_keeps_its_bytes(entry):
    if entry["numpy"] != np.__version__:
        pytest.skip(f"bytes written by numpy {entry['numpy']}, not {np.__version__}")
    if entry["float"] != HOST:
        pytest.skip(f"bytes written where float64 exp/log/expm1/log1p/sin hash to "
                    f"{entry['float']}, not {HOST}")
    got = replay(entry["argv"])
    assert got == {key: entry[key] for key in got}

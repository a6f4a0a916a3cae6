"""Every command of the golden corpus keeps its exit code and output bytes."""

import json

import numpy as np
import pytest

from golden import CORPUS, replay

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replay_keeps_its_bytes(entry):
    if entry["numpy"] not in (None, np.__version__):
        pytest.skip(f"sampled bytes written by numpy {entry['numpy']}, not {np.__version__}")
    got = replay(entry["argv"])
    assert got == {key: entry[key] for key in got}

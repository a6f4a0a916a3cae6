"""The reference task that tracks the machine's speed.

On a shared host the speed of a core drifts with what other tenants run: by
up to 1.5x, within seconds to minutes, with little steal time, so a process's
CPU time drifts as much as its wall time.  Longer runs do not average such
drift out.  The harness therefore times this fixed task just before and just
after each randclt command.  `wall_s` scales each command's wall time by
REF_NOMINAL_S / (mean of those two reference times): the time it would take
while the reference reads its nominal time.

The task mixes an interpreted loop, many numpy calls on small arrays, and
numpy sorting and streaming over larger arrays, as randclt does.  It uses
nothing from randclt, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of reference_time() on a 2-core KVM guest of an Intel Xeon
# (family 6, model 143), where the benchmark was tuned.  It only sets the scale
# of wall_s; it is a fixed constant so that runs compare with each other.
REF_NOMINAL_S = 0.025

_RNG = np.random.default_rng(0)
_SORT_INPUT = _RNG.standard_normal(300_000)
_STREAM_INPUT = _RNG.standard_normal(1_000_000)


def reference_time() -> float:
    """Wall time of one run of the fixed reference task, in seconds."""
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    rng = np.random.default_rng(1)
    for k in range(200, 1400, 4):  # many small-array calls, as per-trial sampling makes
        j = np.arange(1, k + 1)
        acc += float(np.dot(np.exp(-0.25 * np.log(j)), rng.standard_normal(k)))
    values = _SORT_INPUT.copy()
    values.sort()
    np.cumsum(values, out=values)
    float((_STREAM_INPUT * 1.5).sum())
    return perf_counter() - start

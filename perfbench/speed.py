"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the same code can run up to 1.8x slower for
seconds to minutes at a time, on the wall and the CPU clock alike, so
raw timings of two runs of the same code can differ by more than any
useful regression bound.  The benchmark therefore times a fixed
pure-Python kernel (dict, frozenset and integer work, like the
library's inner loops) between ops and reports each timing at the speed
of a nominal machine on which that kernel takes ``REF_NOMINAL_S``: a
duration is multiplied by ``REF_NOMINAL_S`` over the median kernel time
measured around it.  The raw wall-clock figures are kept beside them.
"""
from __future__ import annotations

import statistics
import time

REF_NOMINAL_S = 0.002
_REF_ITERATIONS = 4000
WINDOW = 5  # kernel samples taken into account on each side of an op


def reference_kernel() -> int:
    d = {}
    acc = 0
    for i in range(_REF_ITERATIONS):
        k = (i * 7919) % 10007
        d[k] = d.get(k, 0) + i
        acc ^= hash(frozenset((k, i & 63)))
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor from wall seconds to nominal-machine seconds."""
    return REF_NOMINAL_S / statistics.median(samples)


def local_scales(refs) -> list:
    """One factor per op, where op ``i`` ran between kernel samples
    ``refs[i]`` and ``refs[i + 1]``: the median of the ``WINDOW``
    samples on each side of it."""
    return [scale(refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i in range(len(refs) - 1)]

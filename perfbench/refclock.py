"""Host-speed correction for wall-clock timings.

On a shared machine the same Python code can run at very different
speeds from one minute to the next. Every timed section is therefore
bracketed by a fixed pure-Python reference kernel, and its wall time is
rescaled to the speed at which the kernel takes ``REF_NOMINAL_MS``::

    corrected = raw * REF_NOMINAL_MS / mean(kernel_before, kernel_after)

The result is labelled ``ref-ms`` / ``ref-s``: milliseconds on a host
running the kernel in exactly ``REF_NOMINAL_MS``. The kernel runs with
the garbage collector off and allocates no GC-tracked objects (only ints
and lookups in a preallocated int-to-int dict), so nothing the engine
does to the heap can change how long it takes.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

#: Iterations of one kernel sample (about 2 ms on a 2020s x86 core).
REF_ITERATIONS = 5000
#: The kernel time that defines one reference millisecond.
REF_NOMINAL_MS = 2.0

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1024)}
assert not gc.is_tracked(_TABLE), "reference table must stay untracked"


def _kernel(iterations: int) -> int:
    table = _TABLE
    x = 1
    acc = 0
    for __ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & 1023]
        acc ^= x >> 7
    return acc


def kernel_ms() -> float:
    """Run one reference kernel sample; returns its wall time in ms."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel(REF_ITERATIONS)
        return (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Times sections of work and corrects them for host speed.

    ``measure(fn)`` runs kernel, ``fn``, kernel and returns
    ``(result, raw_ms, corrected_ms)``. Every kernel sample is kept so
    the run can report the kernel's median and quartiles.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> float:
        value = kernel_ms()
        self.samples.append(value)
        return value

    def measure(self, fn):
        before = self.sample()
        start = time.perf_counter()
        result = fn()
        raw = (time.perf_counter() - start) * 1000.0
        after = self.sample()
        factor = REF_NOMINAL_MS / ((before + after) / 2.0)
        self.factors.append(factor)
        return result, raw, raw * factor

    def kernel_summary(self) -> dict:
        q1, median, q3 = quartiles(self.samples)
        return {"n": len(self.samples), "median_ms": median,
                "q1_ms": q1, "q3_ms": q3}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1) of ``values``."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[max(rank, 1) - 1]

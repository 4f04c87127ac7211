"""Host-speed calibration: end-to-end times in seconds at a fixed host speed.

On a shared host the same single-threaded code runs up to ~30% slower for
tens of seconds at a time while neighbours load the physical cores.  The
benchmark therefore times a fixed reference kernel (numpy and Python work of
the kinds the program does, no ``lsnpc`` code) at points spread over a run:
before and after every set-up and operation, and on entry to frequent calls
at most once per ``INTERVAL_S`` seconds.  Each stretch of time between
two calibrations is scaled by ``NOMINAL_REF_S`` over the median kernel time
of the four calibrations nearest to it, two on each side (one calibration
samples the speed of an instant; the median follows the slower drift), and
the time spent in the kernel itself is left out.  A program change does not
move the kernel, so it shows in the scaled times in full; a slower host
moves both and largely cancels.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

# A round figure near the kernel's median time on an uncontended 2-vCPU
# x86_64 VM with one BLAS thread: scaled times then read close to seconds
# on such a host.
NOMINAL_REF_S = 0.020
# About 2% of a run goes to the kernel at this rate.
INTERVAL_S = 1.0

_rng = np.random.default_rng(20250219)
_SMALL_A = _rng.standard_normal((32, 16))
_SMALL_B = _rng.standard_normal((32, 16))
_MID_X = _rng.standard_normal((128, 64))
_MID_W = 0.1 * _rng.standard_normal((64, 64))
_WIDE_Q = _rng.standard_normal((400, 32))
_WIDE_T = _rng.standard_normal((32, 4000))


def kernel() -> float:
    """The reference work: many tiny-array numpy calls (the tape's per-node
    overhead), 128-row dense layers (its matmuls) and a wide distance-like
    product with a partial sort (the KNN's memory traffic)."""
    a, b = _SMALL_A, _SMALL_B
    for _ in range(150):
        a = np.maximum(0.5 * a + b, -1.0)
        b = b - a.sum(axis=0) / 32.0
    x = _MID_X
    for _ in range(20):
        h = np.tanh(x @ _MID_W)
        x = h - h.mean(axis=0)
    near = np.argpartition(_WIDE_Q @ _WIDE_T, 4, axis=1)
    return float(a[0, 0] + x[0, 0] + near[0, 0])


class Clock:
    """Calibration marks on the ``time.perf_counter`` timeline."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # (start, end, kernel s)

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, t1 - t0))

    def tick(self) -> None:
        """Calibrate if ``INTERVAL_S`` seconds have passed since the last one."""
        if not self.marks or time.perf_counter() - self.marks[-1][1] >= INTERVAL_S:
            self.calibrate()

    def ticking(self, fn):
        """``fn`` with a ``tick`` on entry."""
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)
        return run

    def seconds(self, start: float, end: float) -> float:
        """Scaled seconds between two ``perf_counter`` readings, calibrations
        left out.  Raw seconds when no calibration has been made.  Read it
        after the run: calibrations made later still count for the last
        stretches."""
        marks = self.marks
        if not marks:
            return end - start
        total = 0.0
        for i in range(len(marks) + 1):
            lo = marks[i - 1][1] if i > 0 else -math.inf
            hi = marks[i][0] if i < len(marks) else math.inf
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                near = statistics.median(m[2] for m in marks[max(i - 2, 0):i + 2])
                total += overlap * NOMINAL_REF_S / near
        return total

    def scale_before(self, raw_s: float) -> float:
        """Scale seconds spent before the first calibrations by the median
        speed of the first three."""
        if not self.marks:
            return raw_s
        return raw_s * NOMINAL_REF_S / statistics.median(m[2] for m in self.marks[:3])

    def median_ref_ms(self) -> float:
        return 1e3 * statistics.median(m[2] for m in self.marks) if self.marks else 0.0

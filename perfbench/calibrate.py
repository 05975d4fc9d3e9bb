"""Machine-speed calibration for the benchmark's timings.

The shared host this benchmark runs on changes speed by a quarter or more
over tens of seconds while the process keeps its core (CPU time stays at
the wall time), so two 30-second runs of the same code can differ by that
much.  Each core drifts on its own: at one moment one can run the same
code 1.5 times as fast as the other.  A fixed reference kernel, run in
short slices between the steps of every op, slows down and speeds up with
the core it runs on: for a single-threaded op its slice times correlate
about 0.9 with the op times.  Every timing the benchmark reports is
therefore scaled to a nominal machine speed:

    calibrated = measured * NOMINAL_SLICE_S / (mean slice time around it)

An op that runs threads on several cores is calibrated by slices pinned
to each usable core in turn, so the mean covers every core it may use.

The kernel depends only on numpy, never on tmdsim, so no change to the
library can move it; only the machine's speed does.  NOMINAL_SLICE_S is
the kernel's median slice time on the 2-core Xeon (2.1 GHz) machine the
bounds were set on, so calibrated seconds read as seconds on that machine.
"""
from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

NOMINAL_SLICE_S = 0.032

# Small-vector work, like the forward tracer's per-segment math ...
_VECTORS = [np.array([0.1 * i, 0.2, 1.0]) for i in range(16)]
_SCALAR_TURNS = 1000
# ... and whole-array work, like the renderer's batch kernel.
_ARRAY = np.random.default_rng(0).random((4, 128 * 128))
_BATCH_TURNS = 4


def _kernel_s() -> float:
    start = perf_counter()
    acc = 0.0
    for i in range(_SCALAR_TURNS):
        a = _VECTORS[i & 15]
        b = _VECTORS[(i * 7) & 15]
        acc += float(a @ b) / (float(np.linalg.norm(np.cross(a, b))) + 1.0)
    for _ in range(_BATCH_TURNS):
        big = np.sqrt(_ARRAY * _ARRAY + 1.0)
        acc += float((np.where(big > 1.2, big, _ARRAY) * 0.5).sum())
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel gave a non-finite sum")
    return perf_counter() - start


def slice_s(cpus=None) -> float:
    """Wall time of one fixed slice of the reference kernel where the
    calling thread runs; with `cpus`, the mean over one slice pinned to
    each of them, after which the thread's affinity is restored."""
    if not cpus:
        return _kernel_s()
    saved = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel_s())
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.fmean(times)


class Calibrator:
    """Slices taken around and inside one timed interval.

    ``begin()`` takes a slice and opens the interval; the workload calls
    ``pause()`` between its steps, which takes a slice whose time is left
    out of the interval; ``end(elapsed)`` takes the closing slice and
    returns the interval's own time, calibrated.  With `cpus`, each slice
    covers every one of them (see `slice_s`).
    """

    def __init__(self, cpus=None):
        self.cpus = cpus
        self.factors = []        # NOMINAL_SLICE_S / mean slice, per interval
        self._slices = []
        self._paused = 0.0

    def begin(self) -> None:
        self._slices = [slice_s(self.cpus)]
        self._paused = 0.0

    def pause(self) -> None:
        start = perf_counter()
        self._slices.append(slice_s(self.cpus))
        self._paused += perf_counter() - start

    def end(self, elapsed: float) -> tuple:
        """(calibrated, raw) seconds of the interval that began last;
        `elapsed` is its wall time, pauses included."""
        self._slices.append(slice_s(self.cpus))
        raw = elapsed - self._paused
        factor = NOMINAL_SLICE_S / statistics.fmean(self._slices)
        self.factors.append(factor)
        return raw * factor, raw

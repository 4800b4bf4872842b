"""Host-speed calibration of the end-to-end times.

The benchmark runs on a shared host whose speed drifts by up to about 1.5x
over tens of seconds, as neighbours come and go; a fixed amount of program
work then takes up to 1.5x longer in one run than in the next. A small fixed
kernel, shaped like the program's hot path (a Python loop over tiny numpy
arrays and float math), is timed from a SIGALRM handler every ``TICK_S``
seconds while the program works. Its time is left out of the timed spans,
and each time is scaled by

    REFERENCE_S / (mean kernel time while that time was measured)

so they read as seconds at the reference speed of the machine the benchmark
was tuned on. The kernel does not touch rockrelax: a change to the program
moves the scaled times exactly as much as it moves the raw ones. Raw wall
times are printed next to the scaled ones in every run's log.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: iterations of the calibration kernel (about 6 ms on the reference machine)
KERNEL_ITERS = 2000
#: mean kernel time on the reference machine, a 2-vCPU Intel Xeon VM
REFERENCE_S = 0.006
#: seconds between kernel timings while the program works
TICK_S = 0.1
#: fewest readings inside a group's spans that scale it on their own
MIN_READINGS = 50


def kernel() -> float:
    x = np.zeros(2)
    total = 0.0
    for i in range(KERNEL_ITERS):
        x[0] = i * 1e-3
        v = np.atleast_1d(np.asarray(x, dtype=float))
        total += float(v @ v) + math.exp(-abs(float(v[0])))
    return total


def reading() -> float:
    """Seconds the kernel takes on the host right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Ticker:
    """Times the kernel every TICK_S seconds while started, from a signal
    handler. ``stolen`` is the wall time the handler has taken so far; the
    timed spans leave it out. A reading is also filed under every group
    whose span is open (``depth[group] > 0``) when it is taken."""

    def __init__(self, depth=None):
        self.depth = depth if depth is not None else {}
        self.readings = []
        self.by_group = {g: [] for g in self.depth}
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        value = reading()
        self.readings.append(value)
        for group, open_spans in self.depth.items():
            if open_spans:
                self.by_group[group].append(value)
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, group=None) -> float:
        """Raw seconds to seconds at the reference speed: from the readings
        taken inside ``group``'s spans, or the whole run's if it has fewer
        than MIN_READINGS of them."""
        readings = self.by_group.get(group, [])
        if len(readings) < MIN_READINGS:
            readings = self.readings
        return REFERENCE_S / statistics.mean(readings)

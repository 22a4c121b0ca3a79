"""Machine-speed reference for the benchmark's timings.

On a 2-vCPU Xeon virtual machine shared with other tenants the same code
ran up to 1.5x slower for tens of seconds at a time (five executions of
``prepare_b`` took 0.45 s to 0.73 s within one minute, and a fixed
reference kernel slowed by the same factor; steal time stayed near zero).
Raw wall times there scatter by 20-40 % between runs.  To report numbers that move with the
program and not with the machine, a SIGALRM timer runs a small fixed
kernel every ``INTERVAL_S`` in the main thread and records how long it
took.  An op's time is its wall time minus the kernel time spent inside
it, scaled by ``KERNEL_NOMINAL_S`` over the kernel's mean duration while
the op ran (the slowest tenth of samples left out): seconds on a machine
where the kernel takes ``KERNEL_NOMINAL_S``, about its uncontended
duration on that virtual machine.  Scaled this way the spread between
runs fell from 19-24 % to 4-9 % per execution in a 150 s trial of mixed
ops; a longer kernel and the trimmed mean tracked the ops better than a
0.1 ms kernel or the median.
The kernel does what dfsim's RK45 right-hand sides do: 8x8 complex
matrix-vector products and tone phases, driven from a Python loop.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
KERNEL_STEPS = 600
KERNEL_NOMINAL_S = 1.5e-3
MIN_WINDOW_S = 2.0
TRIM = 0.1

_H = np.exp(1j * np.arange(64.0)).reshape(8, 8) / 8.0
_Y = np.ones(8, dtype=complex) / np.sqrt(8.0)


def kernel() -> np.ndarray:
    y = _Y
    for k in range(KERNEL_STEPS):
        y = _H @ y + np.exp(-0.01j * k) * y
    return y


def kernel_time(repeats: int) -> float:
    """Mean duration of ``repeats`` back-to-back kernel runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) / repeats


class SpeedSampler:
    """Runs the kernel on a timer and keeps (end time, duration) samples."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self.busy_s += end - start

    def __enter__(self) -> "SpeedSampler":
        kernel_time(20)  # first calls run cold; keep them out of the samples
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """KERNEL_NOMINAL_S over the trimmed mean kernel duration in a
        window of at least MIN_WINDOW_S centred on [start, end]."""
        half = max(end - start, MIN_WINDOW_S) / 2.0
        mid = (start + end) / 2.0
        lo = bisect.bisect_left(self.ends, mid - half)
        hi = bisect.bisect_right(self.ends, mid + half)
        window = sorted(self.durations[lo:hi] or self.durations)
        kept = window[:len(window) - int(TRIM * len(window))]
        return KERNEL_NOMINAL_S / statistics.fmean(kept)

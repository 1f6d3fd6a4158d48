"""Fixed reference kernels that measure the machine's speed of the moment.

On a shared machine the time a fixed piece of work takes drifts by tens of
percent, in phases that last from under a second to minutes, as neighbours
load the host. While a workload runs, `Sampler` interrupts it at a fixed
wall-clock interval and times a few milliseconds of fixed work. A pass's
normalized time is its own time (without the samples) multiplied by the
machine's mean speed over the samples taken during it, relative to nominal:
the drift cancels, while a change in the program's own speed does not.

Each kernel does a fixed amount of one kind of work the workloads do:
interpreter loops, numpy calls on small arrays and small eigensolves. They
import nothing from mfgibbs, so no change to the program can change them.
Element-wise numpy on large arrays is left out on purpose: how fast it runs
depends on what the program left in the cache, so it measures the program
as much as the machine.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_SYMMETRIC = np.cos(np.arange(100.0)[:, None] * np.arange(100.0)[None, :] * 0.01)


def interpreter():
    """Bytecode-bound: dict and int arithmetic in a Python loop."""
    table: dict[int, int] = {}
    total = 0
    for i in range(6_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i % 7
    return total


def small_arrays():
    """Call-overhead-bound: numpy calls on 64-element arrays."""
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    return x


def dense_linalg():
    """LAPACK: symmetric eigensolves of a 100 x 100 matrix."""
    for _ in range(4):
        w = np.linalg.eigvalsh(_SYMMETRIC)
    return w


KERNELS = {k.__name__: k for k in (interpreter, small_arrays, dense_linalg)}

# Median seconds of each kernel over the baseline runs (BASELINE.md): a
# normalized time is the time the work would take on a machine that runs
# each kernel in exactly this long.
NOMINAL_S = {
    "interpreter": 0.00135,
    "small_arrays": 0.0017,
    "dense_linalg": 0.00223,
}

INTERVAL_S = 0.1  # wall-clock seconds between samples while a workload runs


def run() -> dict[str, float]:
    """Seconds each kernel took, one run of each."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - t0
    return times


def speed(samples: list[dict[str, float]]) -> float:
    """The machine's mean speed over `samples`, relative to nominal: the
    mean over samples and kernels of nominal time / measured time."""
    return statistics.fmean(NOMINAL_S[k] / t for sample in samples for k, t in sample.items())


class Sampler:
    """Runs the kernels from a SIGALRM handler every `interval` s of wall time.

    The handler runs between two bytecodes of the main thread, so it never
    runs inside a call into numpy or LAPACK. `samples` holds each sample's
    kernel times; `spent` is the total wall time taken by the handler, which
    the caller subtracts from the time it measured around the work.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[dict[str, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(run())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

"""Rescaling round times to a nominal host speed.

On a shared host the speed of this process swings by up to 1.6x over
periods of seconds to minutes (a 150k-step pure-Python loop read 21 to
37 ms across one hour), and the swings outlast a benchmark run, so no
median over rounds removes them.  The round clock therefore splits the timed region
into intervals at the workload's checkpoints, reads a short reference
kernel between intervals (the kernel's own time is excluded), and rescales
each interval by nominal / (mean of the two readings around it).  The
result is the time the round would take on a host where the kernel runs in
its nominal time; the raw times are kept beside it.

Two kernels: pure-Python interpreter work, which tracks the exact and
theory layers and package import, and a small in-cache LAPACK eigensolve,
which tracks the dense-spectrum workloads (their swings are far smaller).
"""

from __future__ import annotations

import functools
import resource
import time

perf_counter = time.perf_counter

# kernel times on an undisturbed 2-vCPU Xeon host; they only fix the unit
NOMINAL_S = {"python": 0.011, "blas": 0.0095}
CHECKPOINT_EVERY_S = 0.5


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _python_kernel() -> None:
    acc, table = 0, {}
    for i in range(75_000):
        acc += i * i % 7
        table[i & 1023] = acc


@functools.cache
def _symmetric_matrix():
    import numpy as np

    m = np.random.default_rng(0).random((400, 400))
    return m + m.T


def _blas_kernel() -> None:
    import numpy as np

    np.linalg.eigvalsh(_symmetric_matrix())


KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


def read(kind: str, repeats: int = 2) -> float:
    """Best of `repeats` timings of the reference kernel, in seconds."""
    kernel, best = KERNELS[kind], float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def factor(kind: str, reading: float) -> float:
    return NOMINAL_S[kind] / reading


class RoundClock:
    """Wall and CPU time of a round, raw and rescaled, minus the kernel reads."""

    def __init__(self, kind: str, reader=read, every: float = CHECKPOINT_EVERY_S):
        self.kind, self.reader, self.every = kind, reader, every
        self.intervals: list[tuple[float, float, float, float]] = []  # wall, cpu, before, after
        self.reading_s = 0.0  # wall time spent in kernel reads inside the round

    def start(self) -> None:
        self._reading = self._read()
        self._wall0, self._cpu0 = perf_counter(), cpu_s()

    def checkpoint(self) -> None:
        """Close the current interval if it is long enough; call between operations."""
        if perf_counter() - self._wall0 >= self.every:
            self._close()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        wall, cpu = perf_counter() - self._wall0, cpu_s() - self._cpu0
        reading = self._read()
        self.intervals.append((wall, cpu, self._reading, reading))
        self._reading = reading
        self._wall0, self._cpu0 = perf_counter(), cpu_s()

    def _read(self) -> float:
        t0 = perf_counter()
        reading = self.reader(self.kind)
        self.reading_s += perf_counter() - t0
        return reading

    def totals(self) -> dict:
        out = {"wall_raw_s": 0.0, "cpu_raw_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0}
        for wall, cpu, before, after in self.intervals:
            f = factor(self.kind, 0.5 * (before + after))
            out["wall_raw_s"] += wall
            out["cpu_raw_s"] += cpu
            out["wall_s"] += wall * f
            out["cpu_s"] += cpu * f
        return out

"""Host-speed clock: rescales op latencies to a nominal host speed.

On a shared host the same op runs 25-40 % faster or slower in phases lasting
from seconds to minutes, and CPU time follows wall time, so neither clock
alone gives steady numbers, and a probe timed only between ops misses the
phases inside a 10 s op.  While an op (or a set-up step) runs, ``HostClock``
therefore times a small fixed kernel every ``INTERVAL_S`` from a ``SIGALRM``
handler, and once right before.  The op's latency, less the time spent in
the kernel, is rescaled by how fast the kernel ran meanwhile::

    normalised_s = (wall_s - kernel_s) * NOMINAL_S / mean(kernel samples)

The kernel builds a dict keyed by tuples and formats names, the interpreted
work that dominates ``d2dlb``'s LP assembly.  It never calls into ``d2dlb``,
so a change to the program moves the op time and leaves the kernel alone.
Python runs signal handlers between bytecodes, so no sample lands inside a
call into compiled code (a HiGHS solve); the next one runs when it returns.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: median kernel time on the 2-vCPU Xeon host the baseline was measured on;
#: normalised latencies are seconds at that host's median speed
NOMINAL_S = 0.0018
#: seconds between samples while an op runs (about 4 % of the op's time)
INTERVAL_S = 0.05

_NODES = [f"u{i}" for i in range(40)]


def kernel() -> float:
    """Seconds one fixed piece of interpreted work takes now, collector off."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would scan the program's heap, not time the host
    try:
        t0 = time.perf_counter()
        index: dict[tuple[int, str, int], str] = {}
        for j in range(20):
            for node in _NODES:
                for t in range(j % 7, j % 7 + 3):
                    key = (j, node, t)
                    if key not in index:
                        index[key] = f"x_j{j}_{node}_t{t}"
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Samples the kernel while an op runs (``with clock:``).

    Call ``reset()`` right before timing the op: it takes the sample before
    the op, so even an op shorter than ``INTERVAL_S`` has one.  ``spent_s``
    is the time the in-op samples took, to be taken off the op's latency.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.all_samples: list[float] = []  # every sample of the run, for the record

    def reset(self) -> None:
        self.samples = [kernel()]
        self.all_samples.append(self.samples[0])
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        sample = kernel()
        self.samples.append(sample)
        self.all_samples.append(sample)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Calls ``fn()`` under the clock; returns its result and normalised seconds."""
        self.reset()
        t0 = time.perf_counter()
        with self:
            out = fn()
        return out, self.normalise(time.perf_counter() - t0 - self.spent_s)

    def normalise(self, latency_s: float) -> float:
        """``latency_s`` at the nominal host speed."""
        return latency_s * NOMINAL_S / statistics.fmean(self.samples)

"""Host-speed probe: corrects a wall time for how fast the CPU ran meanwhile.

On a shared host the CPU a process runs on changes speed under it. On a
shared virtual machine with 2 Intel Xeon vCPUs at 2.1 GHz, the probe
below took about 0.22 ms in some stretches and 0.42 ms in others, in one
process, switching within seconds, and independently on the two vCPUs; the
same benchmark pass took from 7.7 to 13.5 s. A wall time alone then measures
the host as much as the program.

While a timed region runs, the probe interrupts it every INTERVAL_S with
SIGALRM and, in the same thread and so on the same CPU at that moment,
times a fixed piece of interpreter work like the program's hot loops (a
small list-based DP). The samples fall at even steps of wall time, so the
mean of REFERENCE_S / duration is the mean speed over the region. The
corrected time is the region's wall time, less the probe's own time, times
that speed: seconds at the reference speed. The probe code is the
benchmark's own, so a change to itemsim cannot change it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025

# duration of one probe in the fast stretches of the machine above
# (Python 3.11.7): corrected times read as wall times there
REFERENCE_S = 0.00022

# a region shorter than this many intervals is probed again after it ends
MIN_SAMPLES = 20

_A = tuple(str(i % 5) for i in range(28))
_B = tuple(str(i % 7) for i in range(28))


def _work() -> int:
    prev = list(range(len(_B) + 1))
    for i, x in enumerate(_A, start=1):
        cur = [i]
        for j, y in enumerate(_B, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


class Probe:
    """Context manager around one timed region of the main thread.

    `own_s` is the probe time spent inside the region so far; subtract its
    change from any time taken inside the region."""

    def __init__(self):
        self.samples: list[float] = []
        self.own_s = 0.0
        self._previous = None

    def _tick(self) -> None:
        t = perf_counter()
        _work()
        self.samples.append(perf_counter() - t)

    def _interrupt(self, signum, frame) -> None:
        t = perf_counter()
        self._tick()
        self.own_s += perf_counter() - t

    def __enter__(self) -> Probe:
        self._tick()  # so that speed() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self._tick()

    def speed(self, first: int = 0) -> float:
        """Mean host speed relative to the reference, below 1 when the CPU
        ran slower: over the samples from index `first` on, or over all if
        there are none."""
        samples = self.samples[first:] or self.samples
        return statistics.fmean(REFERENCE_S / d for d in samples)

"""A fixed reference kernel that measures how fast the host is right now.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every piece of work in the process by up to about 1.8x, in spells that
last from seconds to minutes, so two sets of runs of the same code can
differ by more than any useful bound.  :class:`Calibrator` runs
:class:`Kernel`, which never changes, every ``INTERVAL_S`` through a run.
The ratio of a measured time to the kernel's median time in the same run
follows the program and cancels most of the host's state.

Multiplying that ratio by ``REFERENCE_S`` gives *reference seconds*: the
time the work takes on a host where the kernel takes ``REFERENCE_S``.  The
constant only sets the scale: changing it changes every reported time by
the same factor.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import numpy as np

# A round figure for the kernel's median time on the host the baseline was
# measured on, which varied from about 0.027 s in quiet spells to 0.048 s in busy ones.
REFERENCE_S = 0.035
# Time between the end of one kernel run and the start of the next.
INTERVAL_S = 0.3


class Kernel:
    """Dict lookups, a large numpy gather and sort, and numpy calls on small arrays.

    These are the kinds of work chevbasis does.  The working set (about
    50 MB) is made once, from a fixed seed, so that the gather misses the
    caches as the program's large tables do.
    """

    def __init__(self):
        rng = random.Random(20240411)
        self.keys = [rng.randrange(1 << 30) for _ in range(100_000)]
        self.table = {k: (k, k + 1) for k in self.keys}
        self.values = np.arange(1_000_000, dtype=np.int64)
        self.index = np.random.default_rng(20240411).integers(0, self.values.size, self.values.size)
        self.small = np.arange(64, dtype=np.int64)

    def __call__(self) -> int:
        total = 0
        for k in self.keys[::4]:
            total += self.table[k][1]
        gathered = np.take(self.values, self.index)
        gathered.sort()
        total += int(gathered[::1000].sum())
        for k in range(2_000):
            total += int((self.small * k + 1).max())
        return total


class Calibrator:
    """Runs the kernel from a timer signal, once started, and keeps its times.

    The signal handler runs in the main thread between bytecodes, so the
    kernel samples the host evenly in time, in the middle of long commands
    too.  :meth:`clock` leaves out the time spent in the kernel.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.kernel: Kernel | None = None
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        """Make the kernel's working set and start the timer."""
        self.kernel = Kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        # One-shot and re-armed here, so the kernel never interrupts itself.
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def clock(self) -> float:
        """``perf_counter`` less the seconds spent in the kernel so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no kernel run between the two reads
                return now - spent

    def scale(self) -> float:
        """Factor from seconds measured in this run to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

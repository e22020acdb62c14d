"""A reference loop, timed all through a run, that tells how fast the CPU is.

On a shared host the CPU a run gets slows and recovers over seconds to
minutes, by up to a factor of two, and no clock of the process can tell
that time from its own work: steal time stays near zero and process CPU time
equals wall time.  So ``Sampler`` runs a fixed loop that does not depend on
msgflow every ``interval`` seconds, from a ``SIGALRM`` handler in the run's
only thread, and keeps each run's start and duration.  A span of the
workload divided by the loop's mean time around it is the span's length in
loop runs, which the host's speed changes far less; times ``REF_S`` it is in
seconds at the loop's speed on an idle core.

The mean, not the median, of the loop's times is used: a span is slowed by
the host's average slowdown over it, short stalls included, and the loop
runs catch those stalls in proportion to how often they happen.

The handler's own time is kept out of every span: ``now`` is the clock minus
all the time the handler has taken.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The loop's typical time on an idle core of the machine the benchmark was
# written on (2-vCPU Intel Xeon VM, Python 3.11).  It only sets the unit.
REF_S = 0.6e-3

_TABLE = dict.fromkeys(range(256), 0)


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict updates.  It
    allocates no container, so it never triggers the cyclic garbage
    collector, whose cost would depend on the workload's heap."""
    table = _TABLE
    x = 1
    for i in range(2500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 255] += i
    return x


class Sampler:
    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.skew = 0.0
        self.starts: list[float] = []  # on the ``now`` clock
        self.durations: list[float] = []
        self._saved = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0 - self.skew)
        self.durations.append(t1 - t0)
        self.skew += t1 - t0

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def now(self) -> float:
        """The clock without the time spent in the reference loop."""
        return time.perf_counter() - self.skew

    def loop_time(self, t0: float, t1: float) -> float:
        """Mean duration of the loop runs that started in [t0, t1] on the
        ``now`` clock, or of the runs just before and after a span too short
        to hold one."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        if j - i < 1:
            i, j = max(i - 1, 0), min(j + 1, len(self.starts))
        if i >= j:
            raise RuntimeError("the reference loop never ran")
        return statistics.fmean(self.durations[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """The span's length in reference loop runs, in seconds at ``REF_S``."""
        return (t1 - t0) / self.loop_time(t0, t1) * REF_S


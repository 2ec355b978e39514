"""CPU-speed probe that the benchmark's timings are normalized by.

On shared virtual machines the speed one core delivers swings by up to
1.6x, in episodes that last from a second to minutes (measured on the 2-vCPU
VM the benchmark was written on: a fixed pure-Python loop alternated
between two levels 1.65x apart, and library operations, numpy-heavy or
scalar, slowed by the same factor).  No choice of run length or repetition
inside a 20-second run averages that out.  So while a timed span runs, a
``Sampler`` runs the probe every ``INTERVAL_S`` from a timer signal, the span
is also probed just before and after, and its time is rescaled to the speed
at which the probe takes ``REFERENCE_MS``:

    normalized = (measured - time spent probing) * REFERENCE_MS / mean probe

On a machine of steady speed this is a constant factor.  The module needs
nothing beyond ``signal`` and ``time``, so it can run before the timed
library import.
"""

import signal
import time

REFERENCE_MS = 1.0
INTERVAL_S = 0.1
_LOOP = 10_000


def probe_ms() -> float:
    """Fastest of three runs of a fixed arithmetic loop, in milliseconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(_LOOP):
            s += (i * 0.5) ** 0.5
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


class Sampler:
    """Probes every INTERVAL_S of wall time while active (a SIGALRM timer;
    the handler runs between bytecodes of the main thread)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_ms())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter minus the time spent probing so far."""
        return time.perf_counter() - self.spent_s

    def timed(self, fn):
        """Run fn(); return (its result, seconds excluding probing, probes).

        The probes are one before, those taken during, and one after.
        """
        before = probe_ms()
        n0, t0 = len(self.samples), self.clock()
        result = fn()
        elapsed = self.clock() - t0
        return result, elapsed, [before, *self.samples[n0:], probe_ms()]

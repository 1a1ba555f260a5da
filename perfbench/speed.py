"""A clock that runs at the interpreter's measured speed.

On a virtual machine that shares its physical cores, the speed of
pure-Python work can change by up to 2x within seconds as neighbours
come and go (measured on a 2-vCPU Intel Xeon guest).  Raw wall times
then spread by 15-25% between identical runs, which hides any change
smaller than that.

:class:`SpeedClock` samples the current speed every ``INTERVAL`` seconds
of wall time: a SIGALRM handler times a fixed piece of ``Fraction``
arithmetic (the solver's own kind of work).  Between two samples the
clock advances at ``REFERENCE / probe duration`` reference seconds per
wall second (the duration averaged over neighbouring probes), and it
stands still while a probe runs, so probes cost the
measured code nothing.  A reference second is therefore the work one
wall second does on a machine where the probe takes ``REFERENCE``
seconds; intervals keep adding up exactly (a span's duration is the sum
of its children's plus its self time).
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL = 0.02                # wall seconds between probes
REFERENCE = 0.00045            # probe duration that defines reference speed
PROBE_TERMS = 120
WINDOW = 4                     # probes on each side averaged into one rate


def _probe_work():
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._rates: list[float] = []
        self._cum: list[float] = []       # clock reading at each probe
        self._running = False
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:                     # a late tick during a slow probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    @contextmanager
    def running(self):
        """Sample the speed while the block runs; read the clock after."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._running = True
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._running = False
            self._freeze()

    def _freeze(self):
        """Rates and readings from all probes.  Each gap's rate comes from
        the mean duration of the probes within ``WINDOW`` of it, which
        smooths single-probe noise over about 0.2 s."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        prefix = [0.0]
        for d in durations:
            prefix.append(prefix[-1] + d)
        n = len(durations)
        self._rates = []
        for k in range(n):
            lo, hi = max(0, k - WINDOW), min(n, k + WINDOW + 1)
            self._rates.append(REFERENCE * (hi - lo) / (prefix[hi] - prefix[lo]))
        self._cum = [0.0] * n
        for k in range(1, n):
            gap = self.starts[k] - self.ends[k - 1]
            self._cum[k] = self._cum[k - 1] + gap * self._rates[k - 1]

    def _reading(self, t: float) -> float:
        if not self.starts:
            return t
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self._rates[0]
        if t <= self.ends[k]:
            return self._cum[k]
        return self._cum[k] + (t - self.ends[k]) * self._rates[k]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two ``time.perf_counter()`` readings
        taken while the clock ran."""
        if self._running:
            raise RuntimeError("read the clock after it stops")
        return self._reading(t1) - self._reading(t0)

    def slowdown(self) -> float:
        """Median probe duration over ``REFERENCE`` (1.0: reference speed)."""
        if not self.starts:
            return 1.0
        durations = sorted(e - s for s, e in zip(self.starts, self.ends))
        return durations[len(durations) // 2] / REFERENCE

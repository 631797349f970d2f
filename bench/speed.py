"""Machine-speed meter: a fixed reference kernel, sampled on a timer.

On a small shared machine the speed a process gets changes by up to ~1.6x
within seconds and stays changed for minutes (other tenants come and go), so
raw wall times of the same code differ more between runs than a regression
worth catching.  The meter runs a fixed pure-Python kernel from a SIGALRM
handler every ``PERIOD_S`` seconds (about 0.4% of the time) and keeps the
number of samples and their total duration.  A timed interval is then
converted to nominal seconds: its wall time, minus the meter's own time in
it, scaled by ``REF_NOMINAL_S`` over the kernel's mean duration inside the
interval, topped up with samples taken right after it when it held fewer
than ``MIN_SAMPLES``.  The kernel does not touch the package, so a change to the package
moves nominal times exactly as it moves wall times at a fixed machine speed.

The handler runs between bytecodes of the main thread; during one long call
into C code (a gzip compress, say) no sample is taken.  No thread or process
is started.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

PERIOD_S = 0.05
# an interval with fewer samples than this is topped up right after it ends
MIN_SAMPLES = 5
# a typical kernel duration on a 2-core x86-64 Xeon VM under Python 3.11,
# where it ranged from about 170 to 250 us with the load; it only sets the
# scale of nominal seconds
REF_NOMINAL_S = 200e-6


def reference_kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i) * 0.5
    return s


class SpeedMeter:
    """Samples the reference kernel every PERIOD_S seconds while entered.

    ``totals`` is (samples, seconds spent in them), replaced in one
    assignment so a reader never sees one updated without the other.
    """

    def __init__(self):
        self.totals = (0, 0.0)
        self._previous = None

    def sample(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        samples, busy = self.totals
        self.totals = (samples + 1, busy + time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process runs: it would share our CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def interval(self) -> "Interval":
        return Interval(self)

    def speed(self) -> float:
        """REF_NOMINAL_S over the kernel's mean duration so far."""
        samples, busy = self.totals
        return REF_NOMINAL_S / (busy / samples)


class Interval:
    """Wall and nominal seconds between construction and ``stop``."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter
        self.start = meter.totals
        self.t0 = time.perf_counter()
        self.wall = self.nominal = 0.0

    def stop(self) -> "Interval":
        self.wall = time.perf_counter() - self.t0
        busy = self.meter.totals[1] - self.start[1]
        # too few samples to rely on: take more now, outside the interval
        while self.meter.totals[0] - self.start[0] < MIN_SAMPLES:
            self.meter.sample()
        samples, ref_busy = (now - then for now, then in zip(self.meter.totals, self.start))
        self.nominal = (self.wall - busy) * REF_NOMINAL_S * samples / ref_busy
        return self

"""A clock that runs at the host's speed rather than the wall's.

The two cores of the host are shared with other machines, which run this
process at speeds that drift by up to 1.7x over seconds to minutes: the
same conic.conic intersection took 5.6 s in one run and 9.9 s in a run
four minutes later.  A wall-clock figure then says more about the
neighbours than about tropint.

:class:`HostClock` samples the host speed every INTERVAL_S with an interval
timer: the handler times a fixed piece of exact rational elimination,
tropint's own kind of work, that does not call tropint.  Between samples
the clock advances at REFERENCE_S / (last reading) seconds per wall
second, so a stretch timed with it reads what it would at the speed where
the reference takes REFERENCE_S; the time spent in the handler is left
out.  On a loop of the same intersection, means over 15 s windows spread
by 29% of their median in wall time and by 2.3% on this clock.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# The median reading of the reference on the machine the README figures
# come from, so that this clock and the wall clock agree there on average.
REFERENCE_S = 0.0017
INTERVAL_S = 0.1


def _reference():
    n = 6
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
            for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]


class HostClock:
    """Use as a context manager; :meth:`now` reads the clock in seconds."""

    def __init__(self):
        self._scaled = 0.0
        self._factor = 1.0
        self._samples = 0
        self._last = perf_counter()
        self._previous_handler = None

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        self._scaled += (t0 - self._last) * self._factor
        _reference()
        t1 = perf_counter()
        self._factor = REFERENCE_S / (t1 - t0)
        self._last = t1
        self._samples += 1

    def now(self):
        # The handler can run between any two bytecodes; read again if it did.
        while True:
            seen = self._samples
            value = self._scaled + (perf_counter() - self._last) * self._factor
            if seen == self._samples:
                return value

    def __enter__(self):
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

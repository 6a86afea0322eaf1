"""A host-speed probe, so that timings can be scaled to one reference speed.

On a shared host the same Python code runs up to twice as slow for seconds
or minutes at a time, while it is never descheduled: CPU time and wall time
agree.  A fixed piece of pure-Python work (exact rationals, tuples and dicts,
as in the pipeline) is timed every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, also while a request runs.  A request's time is then
scaled by ``REFERENCE_S`` over the median probe time within ``WINDOW_S``
of it, after the probes that ran inside it are taken out:

    scaled = (end - start - probe time inside) * REFERENCE_S / median probe

so a scaled time reads as seconds on a host on which the probe takes
``REFERENCE_S``.  The probe never touches ``tlcond``: a faster program gives
smaller scaled times, a faster host does not.
"""
from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
WINDOW_S = 0.25
REFERENCE_S = 0.0004
# Probes taken back to back on entry and exit, so that a short timed block
# has enough probes near it.
SETTLE = 5


def _work():
    acc, table = Fraction(0), {}
    for i in range(1, 40):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i + 1)
        key = (i % 3, i % 5, i % 7)
        table[key] = table.get(key, ()) + (i,)
    return acc, len(table)


class HostSpeed:
    """Probes the host while active (``with HostSpeed() as speed: ...``)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self, *_):
        # The probe's own garbage must not start a collection of the
        # program's heap inside the timed work.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _work()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.probe)
        for _ in range(SETTLE):
            self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        for _ in range(SETTLE):
            self.probe()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` without the probes inside it, at reference speed."""
        i, j = bisect_left(self.starts, start), bisect_right(self.starts, end)
        inside = sum(self.durations[i:j])
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no probe near it: take the nearest on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        local = statistics.median(self.durations[lo:hi])
        return (end - start - inside) * REFERENCE_S / local

"""Machine-speed sampling, to report times in reference seconds.

On a shared VM the interpreter's speed flips between a fast and a slow
state (up to 1.8x apart) within a second or two, for library code and for
any other Python loop alike.  SpeedSampler runs a fixed, library-independent
probe loop from a SIGALRM handler every INTERVAL_S of wall time, while the
benchmark works.  The probes define a reference clock: between two probes
it runs at REFERENCE_PROBE_S times their mean speed (1 / duration), and it
stands still while a probe runs.  A span of work in reference seconds is
the reference clock's advance over it; its raw seconds leave the probes
out the same way.  Because the clock is one monotone function of time,
nested spans convert consistently: a parent's reference time is never
less than that of its children together.

Interval timers are not inherited across fork, so worker processes are
never interrupted.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
# Median probe duration on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7) in its fast state.
REFERENCE_PROBE_S = 0.00045
_HOODS = ((), (2,), (1, 3), (0, 4, 5), (2, 6), (7,), (3, 5, 6), (1,))


def probe() -> float:
    """Seconds of a fixed interpreter mix: permutation scan, sets, allocation."""
    started = time.perf_counter()
    for labels in itertools.islice(itertools.permutations(range(1, 9)), 400):
        seen = set()
        for hood in _HOODS:
            w = 0
            for u in hood:
                w += labels[u]
            if w in seen:
                break
            seen.add(w)
    str([tuple(range(i, i + 20)) for i in range(20)])
    return time.perf_counter() - started


class SpeedSampler:
    """Probe timestamps and durations gathered while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._cache = None

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(started)

    def start(self) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.starts.append(time.perf_counter())
        self.durations.append(probe())

    @contextmanager
    def paused(self):
        """No probes for a while: around work done by worker processes,
        where a probe would compete with the workers for the CPUs and read
        their load as a slow machine.  Such a span takes its speed from the
        nearest probes on each side."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _knots(self):
        """The clocks' knots, rebuilt when probes were added.

        Each probe stops both clocks.  Over the gap after probe k the raw
        clock runs at rate 1 and the reference clock at the mean speed of
        probes k and k + 1; after the last probe, at that probe's speed.
        """
        if self._cache is not None and self._cache[0] == len(self.starts):
            return self._cache[1]
        speeds = [REFERENCE_PROBE_S / d for d in self.durations]
        after = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])] + speeds[-1:]
        times, refs, raws, rates = [], [], [], []
        t, ref, raw, rate = self.starts[0], 0.0, 0.0, (0.0, 0.0)
        for start, duration, speed in zip(self.starts, self.durations, after):
            for at, next_rate in ((start, (0.0, 0.0)),
                                  (start + duration, (speed, 1.0))):
                at = max(at, t)
                ref += rate[0] * (at - t)
                raw += rate[1] * (at - t)
                t, rate = at, next_rate
                times.append(t)
                refs.append(ref)
                raws.append(raw)
                rates.append(rate)
        knots = (times, refs, raws, rates)
        self._cache = (len(self.starts), knots)
        return knots

    def clocks(self, t: float) -> tuple[float, float]:
        """(reference, raw) clock readings at perf_counter time t >= the
        first probe.  Both clocks stand still while a probe runs, so the
        difference of two readings leaves the probes between them out."""
        times, refs, raws, rates = self._knots()
        i = max(bisect.bisect_right(times, t) - 1, 0)
        dt = t - times[i]
        return refs[i] + rates[i][0] * dt, raws[i] + rates[i][1] * dt

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(reference seconds, raw seconds) of the span start..end."""
        ref0, raw0 = self.clocks(start)
        ref1, raw1 = self.clocks(end)
        return ref1 - ref0, raw1 - raw0

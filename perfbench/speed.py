"""Host-speed correction for timings taken on a shared machine.

On a virtual machine that shares its cores with other guests, the same pass
of the same code can take anywhere from 1x to 2x its usual time, in stretches
that last from seconds to minutes.  A median over the passes of one run
cannot remove a slow stretch that covers the whole run, so runs made a few
minutes apart disagree by more than any useful bound.

`SpeedClock` measures the host's speed while the workload runs.  A SIGALRM
timer interrupts the main thread every `PERIOD_S` seconds (a signal handler
runs between bytecodes, so during a long native call it waits until the call
returns) and times `_probe`, a fixed pure-Python loop that touches no data
and calls nothing of sdlab.  The workload's time between two probes is
rescaled by how fast the probe ran around it, relative to `REFERENCE_S`: a
duration reads in seconds at the reference speed, whatever the host's speed
was.  Probe time itself counts as neither raw nor corrected time.

A change to sdlab moves the corrected time by the same factor as the raw
time, because the probe does not run sdlab code; only the host's swings
cancel.  The correction tracks single-threaded work best; work inside
multi-threaded BLAS calls is rescaled by the main thread's speed.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PROBE_LOOPS = 5000
# probe time on a 2-vCPU Intel Xeon virtual machine (Python 3.11) while the
# host was not contended; corrected durations are seconds at this speed
REFERENCE_S = 2.8e-4
PERIOD_S = 0.025        # interval between probes: ~1.2% of the run
SMOOTH = 5              # probes in the running median of the probe time


def _probe():
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


class SpeedClock:
    """Probe the host's speed on a timer while `running()`.

    `sample()` probes at once; call it before and after a timed region so
    that the region is bracketed by probes.  `timeline()` turns the probes
    taken so far into a `Timeline` that maps raw perf_counter stamps to
    corrected and raw seconds.
    """

    def __init__(self):
        self._marks = []        # (start, end) of each probe
        self._busy = False

    def sample(self):
        """Probe now; returns the probe's start stamp."""
        if self._busy:          # the timer fired inside a probe
            return None
        self._busy = True
        try:
            t0 = time.perf_counter()
            _probe()
            self._marks.append((t0, time.perf_counter()))
        finally:
            self._busy = False
        return t0

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextmanager
    def running(self):
        """The timer probes while the block runs."""
        saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, saved)

    def timeline(self, since=0.0):
        """Timeline of the probes that started at or after `since`."""
        return Timeline([m for m in self._marks if m[0] >= since])


class Timeline:
    """Piecewise-linear corrected clock over a list of probes.

    Between the end of probe i and the start of probe i + 1 the corrected
    clock runs at (s_i + s_{i+1}) / 2, where s_i = REFERENCE_S / p_i and p_i
    is the running median of SMOOTH probe times around probe i; inside a
    probe it stands still.  Before the first and after the last probe it
    runs at that probe's speed.
    """

    def __init__(self, marks):
        if not marks:
            raise ValueError("no probe taken: sample() before timing")
        start = np.array([m[0] for m in marks])
        end = np.array([m[1] for m in marks])
        took = end - start
        half = SMOOTH // 2
        smooth = np.array([np.median(took[max(0, i - half):i + half + 1])
                           for i in range(len(took))])
        self.speed = REFERENCE_S / smooth
        self.probes = len(marks)
        # knots start_0, end_0, start_1, end_1, ...; clocks at each knot
        self._x = np.column_stack([start, end]).ravel()
        gap = start[1:] - end[:-1]
        corr = np.zeros(self._x.size)
        raw = np.zeros(self._x.size)
        corr[2::2] = np.cumsum(gap * (self.speed[:-1] + self.speed[1:]) / 2)
        raw[2::2] = np.cumsum(gap)
        corr[1::2] = corr[0::2]
        raw[1::2] = raw[0::2]
        self._corr, self._raw = corr, raw

    def _at(self, t, clock, rate_first, rate_last):
        x = self._x
        t = np.asarray(t, dtype=float)
        v = np.interp(t, x, clock)
        v = np.where(t < x[0], clock[0] - (x[0] - t) * rate_first, v)
        return np.where(t > x[-1], clock[-1] + (t - x[-1]) * rate_last, v)

    def seconds(self, t0, t1):
        """Corrected seconds between perf_counter stamps (or arrays)."""
        s0, s1 = self.speed[0], self.speed[-1]
        out = (self._at(t1, self._corr, s0, s1)
               - self._at(t0, self._corr, s0, s1))
        return out if out.ndim else float(out)

    def raw_seconds(self, t0, t1):
        """Seconds between stamps (or arrays), probe time left out."""
        out = (self._at(t1, self._raw, 1.0, 1.0)
               - self._at(t0, self._raw, 1.0, 1.0))
        return out if out.ndim else float(out)

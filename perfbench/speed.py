"""Speed probe: a fixed reference kernel timed five times a second during a run.

The machine the benchmark was built on is a shared VM whose single-thread
speed drifts by up to 1.7x, over fractions of a second and over minutes,
with CPU time tracking wall time (the vCPU runs slower; it is not
descheduled).  Whole runs land in fast or slow stretches, so raw times of
identical work differ by ±25 % from run to run.  The drift is common to any
interpreted code running on the vCPU at the time, so while an untraced run
works, a timer signal interrupts it every ``PROBE_INTERVAL_S`` and its
handler times this kernel in the benchmark's own thread.  Every time metric
is then scaled to the reference speed: a stretch of time between two probes
counts as

    its length * REFERENCE_PROBE_S / mean of the two probe times

that is, as seconds of a machine on which one probe takes
``REFERENCE_PROBE_S``.  Probe time itself is left out.  The kernel uses
nothing from ``ibgn``: a change to the program cannot change the probe, so it
moves the scaled times exactly as much as the raw ones.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PROBE_CALLS = 40  # kernel calls per probe: 11 to 19 ms on the reference machine
REFERENCE_PROBE_S = 0.013  # one probe on the reference machine, near its fast end
PROBE_INTERVAL_S = 0.2  # time from the end of one probe to the next

_TABLE = {(i, j): (i * 31 + j) & 8191 for i in range(16) for j in range(16)}
_WEIGHTS = np.linspace(0.5, 2.0, 12)


def _lookup(i: int) -> int:
    return _TABLE[i & 15, (i >> 4) & 15] ^ (i & 127)


def reference_kernel() -> int:
    """The mix the pipeline's hot loops make: calls, tuple-keyed dict
    lookups, small-int bit operations, list appends and small numpy calls."""
    acc = 0
    out = []
    for i in range(300):
        acc += _lookup(i)
        out.append(acc & 255)
        if i % 10 == 0:
            probs = _WEIGHTS * (1 + (acc & 7))
            acc += int(np.argmax(probs / probs.sum()))
    return acc + len(out)


class SpeedProbe:
    """The probes of one run, and the scaled length of any stretch of it."""

    def __init__(self) -> None:
        self.starts = []
        self.ends = []
        self.factors = []  # REFERENCE_PROBE_S / probe time, per probe
        self._armed = False
        self._handler = None
        self._gaps_of = None
        self._gap_list = None

    def probe(self) -> None:
        started = time.perf_counter()
        for _ in range(PROBE_CALLS):
            reference_kernel()
        ended = time.perf_counter()
        self.starts.append(started)
        self.ends.append(ended)
        self.factors.append(REFERENCE_PROBE_S / (ended - started))

    def __enter__(self) -> "SpeedProbe":
        """Probe now, then from a timer signal every ``PROBE_INTERVAL_S``.

        The handler runs in the benchmark's own thread between two bytecodes,
        so the work it interrupts stands still while the kernel is timed.  The
        timer is re-armed after each probe, so probes never overlap.
        """
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        self._armed = False  # a signal already on its way must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        signal.signal(signal.SIGALRM, self._handler)
        return False

    def _on_alarm(self, signum, frame) -> None:
        self.probe()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def _gaps(self):
        """The stretches outside the probes and their weights: before the
        first probe and after the last, that probe's factor; between two
        probes, the mean of their factors."""
        if self._gaps_of != len(self.ends):
            f = self.factors
            self._gap_list = (
                [float("-inf")] + self.ends,
                self.starts + [float("inf")],
                [f[0]] + [(a + b) / 2.0 for a, b in zip(f, f[1:])] + [f[-1]],
            )
            self._gaps_of = len(self.ends)
        return self._gap_list

    def _integrate(self, start: float, end: float, scaled: bool) -> float:
        gap_starts, gap_ends, weights = self._gaps()
        total = 0.0
        i = bisect.bisect_right(gap_ends, start)
        while i < len(gap_ends) and gap_starts[i] < end:
            overlap = min(end, gap_ends[i]) - max(start, gap_starts[i])
            if overlap > 0:
                total += overlap * (weights[i] if scaled else 1.0)
            i += 1
        return total

    def scaled(self, start: float, end: float) -> float:
        """Length of [start, end] outside the probes, at the reference speed."""
        return self._integrate(start, end, scaled=True)

    def raw(self, start: float, end: float) -> float:
        """Length of [start, end] outside the probes."""
        return self._integrate(start, end, scaled=False)

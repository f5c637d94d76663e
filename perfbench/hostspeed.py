"""Host-speed probe: how fast this shared host runs Python while a pass runs.

The vCPUs of a shared host slow down and speed up by up to about 1.8x within
seconds, because other tenants share the physical cores.  The process's own
CPU time slows with it, so neither wall time nor CPU time of a pass is steady
across runs.  The probe samples the host's speed during the pass: a timer
signal every ``PERIOD_S`` of wall time (by default) runs a fixed pure-Python
kernel (tuple arithmetic and set lookups, like the program's scans) in the
pass's own thread and times it.  ``factor()`` turns the samples into the ratio of the
reference speed to the speed the pass saw, so that

    pass time at reference speed = (wall time - probe time) * factor()

A pass doing work W at speed s(t) takes T with W = integral of s(t) dt, so
at the reference speed s0 it takes W / s0 = T * mean over time of s(t) / s0;
each sample estimates s(t) / s0 as REF_S / (kernel time).  Samples are
evenly spaced in wall time (a signal that arrives during a long C call runs
when the call returns), so their plain mean is the time average.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
# About the kernel's time when a 2.1 GHz Xeon vCPU runs at its fastest
# (Python 3.11), so reference speed is an unloaded host.  Only a unit:
# every figure is scaled by the same constant, so comparisons between two
# commits do not depend on it.
REF_S = 0.0012

_RANK = 8
_VECS = [tuple((i * (k + 3)) % 5 for k in range(_RANK)) for i in range(1200)]
_SHIFT = tuple(range(_RANK))
_MEMBER = {tuple(a + b for a, b in zip(v, _SHIFT)) for v in _VECS[::2]}


def kernel() -> int:
    hits = 0
    for v in _VECS:
        hits += tuple(a + b for a, b in zip(v, _SHIFT)) in _MEMBER
    return hits


class Probe:
    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent sampling

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        """Sample every ``period_s`` from now on; ``spent`` counts from here."""
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_now(self, n: int) -> None:
        """Take n samples back to back: around a pass, so that a pass too
        short for the timer, or spent in one long C call, still has some."""
        for _ in range(n):
            self._sample(None, None)

    def factor(self) -> float:
        return statistics.fmean(REF_S / s for s in self.samples)

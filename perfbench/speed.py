"""An in-process probe of how fast the machine runs right now.

On a shared machine other tenants slow every op by up to two times, in phases
that last minutes. Every INTERVAL_S seconds a SIGALRM handler, running in the
main thread between two bytecodes of whatever op is executing, times a fixed
kernel of the kinds of work gentleleak does: small-matrix numpy steps in a
Python loop, one vectorized pass over a 64k array, and a JSON round trip.
Dividing a run's timings by the kernel's median time in that run (and
multiplying by NOMINAL_KERNEL_S) takes out most of the slowdown of the phase
the run fell in. The time spent in the handler is tracked so that op
latencies can exclude it.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Median time of kernel() on the idle 2-vCPU machine the benchmark was tuned on.
NOMINAL_KERNEL_S = 0.45e-3

_M = np.array([[2.0, 0.5 + 0.25j, 0.1, 0.0], [0.5 - 0.25j, 1.0, 0.2j, 0.3],
               [0.1, -0.2j, 0.5, 0.05], [0.0, 0.3, 0.05, -0.4]])
_V = np.linspace(0.0, 1.0, 1 << 16)
_DOC = {"dim": 4, "entries": [[[0.25 * i, -0.5 * j] for j in range(4)] for i in range(4)]}


def kernel() -> None:
    a = _M.copy()
    for _ in range(3):
        for p in range(3):
            for q in range(p + 1, 4):
                r = abs(a[p, q]) + 1e-300
                c = 1.0 / np.hypot(1.0, (a[q, q].real - a[p, p].real) / (2.0 * r))
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - (1.0 - c) * col_q
                a[:, q] = (1.0 - c) * col_p + c * col_q
    int(np.count_nonzero(_V * 1.0001 < 0.5))
    json.loads(json.dumps(_DOC))


class SpeedProbe:
    """Context manager that samples kernel() from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self) -> float:
        return statistics.median(self.samples) if self.samples else float("nan")

    def scale(self) -> float:
        """Factor from seconds measured in this run to seconds at the nominal speed."""
        return NOMINAL_KERNEL_S / self.median_s() if self.samples else 1.0

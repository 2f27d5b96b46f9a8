"""Speed probe: how fast this core runs Python right now.

The benchmark shares its machine with other tenants, and the same sweep's
wall time drifts by up to 1.6x within minutes while no steal is reported
and CPU time tracks wall (measured on a 2-vCPU Xeon sandbox).  The probe
runs a fixed stdlib-only kernel (small-Fraction arithmetic, big-integer
multiply-mod, dict and bytecode work) and records its thread CPU time;
`SpeedProbe` does so every 0.1 s while a sweep runs, from a SIGALRM handler
in the main thread.  Dividing a sweep's time by the mean probe time and
multiplying by `REFERENCE_S` gives the sweep's time at a fixed reference
speed, which cancels most of the drift.  The kernel uses no quanta code, so
no change to the package can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# A typical probe CPU time on the 2.1 GHz Xeon sandbox the benchmark was
# built on; it fixes the scale of scaled times and must never change.
REFERENCE_S = 3.0e-4
INTERVAL_S = 0.1

_F1, _F2 = Fraction(3, 7), Fraction(-5, 11)
_MODULUS = (1 << 400) - 3


def kernel() -> int:
    a = _F1
    for _ in range(30):
        a = a * _F2 + _F1
        a = Fraction(a.numerator % 1000, a.denominator % 997 + 1)
    x = (1 << 300) + 12345
    for _ in range(150):
        x = (x * 1000003 + 7) % _MODULUS
    s, d = 0, {}
    for i in range(300):
        s += (i * 7) ^ (s & 1023)
        d[i & 63] = s
    return x ^ s ^ a.numerator


def sample() -> float:
    """Thread CPU seconds of one kernel run."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def scale(samples: list[float]) -> float:
    """Factor that brings times measured alongside `samples` to reference speed."""
    return REFERENCE_S / statistics.fmean(samples)


class SpeedProbe:
    """Samples the kernel before and, every INTERVAL_S, during a `with` block.

    `samples` holds the kernel CPU times; `overhead_s` the wall time spent in
    the handler inside the block, to be subtracted from the block's time.
    """

    def __init__(self, before: int = 3) -> None:
        kernel()  # warm up
        self.samples = [sample() for _ in range(before)]
        self.overhead_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

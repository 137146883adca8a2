"""Machine-speed calibration for wall times on a shared host.

On the machine this benchmark was built on, the speed of each virtual CPU
drifts with the load of other tenants: the same fixed chunk of work took
anywhere from 0.2 s to 0.38 s within a minute, the two CPUs drifted
independently, and the guest reported no steal time.  Raw wall times of
identical runs then differ by up to 20%.

`Sampler` times a fixed kernel of the benchmark's own (interpreter loops,
dict churn, small numpy calls and a dense eigh, none of it the package's
code) every PERIOD_S of wall time, from a SIGALRM handler, so that long
operations get readings from inside them.  Its clock leaves out the time the
handler takes.  A time measured on that clock is scaled by KERNEL_REF_S over
the mean kernel time around it, giving reference-speed seconds: what the
work would take with the kernel running at its reference speed.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# Median time of one warm kernel slice on the reference machine (Intel Xeon
# at 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread) in a quiet period.
KERNEL_REF_S = 1.6e-3
PERIOD_S = 0.05


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((24, 24))
        big = rng.standard_normal((100, 100))
        self.small = small + small.T
        self.big = big + big.T

    def slice(self) -> float:
        t0 = perf_counter()
        s = 0
        for i in range(4000):
            s += i * i % 7
        table = {i: (i, str(i)) for i in range(400)}
        for _ in range(6):
            np.linalg.eigh(self.small)
        x = np.arange(64.0)
        for _ in range(60):
            x = np.sqrt(x * x + 1.0)
        np.linalg.eigh(self.big)
        del table
        return perf_counter() - t0

    def reading(self) -> float:
        """Time of one slice, in seconds.  A first slice right after other
        work runs about 6% slower on cold caches; it only warms up, so that
        the reading depends on the machine, not on what ran before."""
        self.slice()
        return self.slice()


class Sampler:
    """Kernel readings every PERIOD_S while active (a context manager)."""

    def __init__(self):
        self.kernel = Kernel()
        self.readings = [self.kernel.reading()]
        self.stolen = 0.0  # seconds spent in the handler
        self._old = None

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.readings.append(self.kernel.reading())
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self) -> float:
        """perf_counter less the time spent taking readings."""
        return perf_counter() - self.stolen

    def mark(self) -> int:
        return len(self.readings)

    def factor(self, start: int, end: int) -> float:
        """Scale for a time measured between marks `start` and `end`: the
        readings just before and just after it and every one during it.
        Ask once the reading after it has been taken."""
        window = self.readings[start - 1:end + 1]
        return KERNEL_REF_S * len(window) / sum(window)

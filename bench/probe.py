"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the speed of a core drifts by up to 2x over tens of seconds
as neighbours come and go, which swamps any regression bound. The probe times
a fixed small kernel (a Python loop and a few small numpy products) every
INTERVAL_S from a SIGALRM handler, so it runs in the measured thread, on the
same core and at the same moments as the workload, at a cost of about 4% of
the run. Each sample runs the kernel twice back to back. The first run finds
the caches as the workload left them; the second finds the kernel's own data
warm, so its time follows the host and not the workload's working set. A time
measured while the warm kernel took ``mean`` seconds on average is reported as
``seconds * REF_S / mean``: seconds on a machine where the kernel takes REF_S.
A program that does more work, or works on more memory, still reads slower,
since neither changes the warm kernel. The cold-over-warm ratio shows how far
the workload's cache state slows the kernel's first run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_S = 1e-3
BURST = 20


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []  # warm kernel times: the host's speed
        self.cold: list[float] = []  # first-run kernel times, in the workload's cache state
        self._a = np.arange(64.0).reshape(8, 8) + 0j

    def _run(self) -> float:
        t = time.perf_counter()
        s = 0
        for i in range(2000):
            s += i
        for _ in range(20):
            np.kron(self._a, self._a).sum()
        return time.perf_counter() - t

    def kernel(self) -> None:
        self.cold.append(self._run())
        self.samples.append(self._run())

    def spent(self) -> float:
        """Seconds the probe itself has taken."""
        return sum(self.cold) + sum(self.samples)

    def burst(self) -> None:
        for _ in range(BURST):
            self.kernel()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, samples: list[float] | None = None) -> float:
        """Factor from measured seconds to reference seconds."""
        return REF_S / statistics.mean(self.samples if samples is None else samples)

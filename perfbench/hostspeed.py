"""Host speed, sampled while a workload runs.

The host this benchmark runs on is shared, and its speed drifts by 20-35% for
minutes at a time. The drift moves the workload and a fixed kernel alike, so
the benchmark rescales each pass's wall time by how fast the kernel ran during
that pass.

``HostSpeed.start`` arms a one-shot ``SIGALRM`` timer. Its handler runs the
kernel in the workload's own thread, between two bytecodes of whatever the
workload is doing, so each sample sees the CPU and memory the workload sees
at that moment; then it re-arms the timer. The kernel touches no state of the
program. The seconds spent in the handler are counted in ``spent`` so that
they can be taken out of the measured runs.

The kernel mixes what chainlab's hot loops do: a pure-Python loop, small
numpy products with a soft threshold (the shape of one ISTA step), and a
streaming update of a 24 x 8 000 array. It takes about 5 ms.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.5
# Median kernel time on the 2-core baseline host; wall_ref_s is the wall time
# rescaled to a host on which the kernel takes this long.
KERNEL_REF_S = 0.005

_RNG = np.random.default_rng(0)
_G = _RNG.standard_normal((64, 64)) / 16.0
_Y = _RNG.standard_normal(64)
_BIG = np.ones((24, 8_000))


def kernel() -> float:
    """Run the fixed kernel once; return its seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    x = np.zeros(64)
    for _ in range(150):
        z = x - 0.01 * (_G.T @ (_G @ x - _Y))
        x = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
    np.multiply(_BIG, 1.0, out=_BIG)
    np.add(_BIG, 0.0, out=_BIG)
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        kernel()  # warm the caches and numpy's dispatch before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def median_since(self, n0: int) -> float:
        """Median kernel seconds of the samples taken after the first ``n0``."""
        recent = sorted(self.samples[n0:])
        if not recent:  # a span shorter than INTERVAL_S: sample it once now
            t0 = time.perf_counter()
            recent = [kernel()]
            self.spent += time.perf_counter() - t0
        mid = len(recent) // 2
        return recent[mid] if len(recent) % 2 else 0.5 * (recent[mid - 1] + recent[mid])

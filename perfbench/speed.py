"""Host-speed calibration sampled during a timed pass.

A shared host changes speed while a pass runs: on a 2-CPU host the same
pass was measured at anywhere between 1.4 s and 2.3 s, as another tenant
came and went.  Each swing lasts a few seconds.  A reading before or
after the pass misses it, so :class:`SpeedProbe` samples inside the
pass.  A 20 ms interval timer runs a fixed pure-Python kernel (heap
pushes and pops, a generator resume, a dict store and a small object per
step) in the signal handler and records how long it took.  The handler
costs about 1% of the pass and touches no simulator state.

``scale`` is :data:`REFERENCE_S` over the mean kernel time during the
pass.  Multiplying a pass's wall time by it gives the pass's time at the
reference speed: a same-session ratio against a calibration loop, run
interleaved in one process.  On the host above, that cut the spread of
repeated identical passes from 14% to 6%.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any

__all__ = ["REFERENCE_S", "SpeedProbe"]

#: Kernel time that defines scale 1.0: about the mean sampled during
#: passes on a 2-CPU Intel Xeon host under Python 3.11.  It only fixes
#: the unit, so host times read close to raw seconds on such a host.
REFERENCE_S = 200e-6

#: Seconds between samples.
INTERVAL_S = 0.02


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _kernel(steps: int = 150) -> None:
    """The calibration work: one fixed mix of interpreter operations."""
    heap: list[tuple[int, int]] = []
    cells: dict[int, _Cell] = {}

    def sink():
        while True:
            x = yield
            cells[x & 63] = _Cell(x, x + 1)

    gen = sink()
    next(gen)
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 16:
            heapq.heappop(heap)
        gen.send(i)


def _time_kernel() -> float:
    began = time.perf_counter()
    _kernel()
    return time.perf_counter() - began


class SpeedProbe:
    """Context manager: sample the kernel's time every :data:`INTERVAL_S`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(_time_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(_time_kernel())

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)

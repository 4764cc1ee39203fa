"""Set-up time, measured around the public construction calls.

While a :class:`SetupClock` is installed, every call to
``Cluster(...)`` (nodes, topology, network), ``make_plan(...)`` (the
partition plan and its scratch topology) and ``Topology.route(...)``
(the networkx shortest-path derivation behind every route-cache miss)
adds its wall time to :attr:`SetupClock.seconds`.  Nested calls are
counted once.  The wrappers are restored on exit, so nothing outside
the ``with`` block is affected and no source file changes.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["SetupClock"]


class SetupClock:
    """Context manager: accumulate wall time spent in set-up calls."""

    def __init__(self) -> None:
        from repro.cluster import Cluster
        from repro.net.topology import Topology
        from repro.scenario import partition

        self.seconds = 0.0
        self._depth = 0
        self._targets: list[tuple[Any, str]] = [
            (Cluster, "__init__"),
            (Topology, "route"),
            (partition, "make_plan"),
        ]
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.seconds = 0.0

    def _wrap(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - began
                self._depth -= 1

        return timed

    def __enter__(self) -> "SetupClock":
        for owner, name in self._targets:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

"""Lightweight kernel performance counters.

The simulation engine increments these on its hot path (one integer add
per processed event), so any harness — ``perfbench/``, a test, or an
ad-hoc script — can count or rate the events of an arbitrary workload
without instrumenting every ``Simulator`` it creates:

    KERNEL_COUNTERS.reset()
    run_workload()
    rate = KERNEL_COUNTERS.events / wall_seconds

Counters are per-process: work fanned out by
:class:`repro.experiments.parallel.SweepExecutor` accumulates in the
worker processes, not the parent.
"""

from __future__ import annotations

__all__ = ["KernelCounters", "KERNEL_COUNTERS"]


class KernelCounters:
    """Process-global tallies maintained by the simulation kernel.

    The ``timer*`` counters are maintained by
    :class:`repro.proto.timer.RetransmitTimer` and quantify event-heap
    pressure from retransmission timers:

    ``timers_armed``
        protocol-level (re)arm requests — exactly the number of heap
        callbacks the old per-record ``call_at(lambda …)`` pattern
        pushed, so ``timers_armed - timers_scheduled`` is the heap
        garbage the per-window timer object avoids;
    ``timers_scheduled``
        heap callbacks the per-window timer actually scheduled;
    ``timer_fires``
        timer callbacks that popped;
    ``timer_stale_fires``
        fires that found nothing overdue (every record acked or
        re-armed since scheduling) — pure heap churn;
    ``timers_cancelled``
        outstanding timers defused (window drained before the fire).
        A defused timer costs no event dispatch, but its disposal is
        split across two kernel counters: one cancelled while still in
        the wheel is dropped at flush (``wheel_cancelled``); one whose
        slot already flushed to the heap — or that bypassed the wheel
        because it was due within one slot — is skipped at pop
        (``wheel_skipped``).  Once the queue drains,
        ``timers_cancelled == wheel_cancelled + wheel_skipped``.

    The ``batched_events`` / ``wheel_*`` counters are maintained by the
    Kernel v3 engine itself: ``batched_events`` counts events that rode
    the same-instant now-queue instead of the heap; ``wheel_armed`` /
    ``wheel_flushed`` / ``wheel_cancelled`` count timers entering the
    hierarchical wheel, reaching the heap live, and being dropped in
    the wheel after cancellation; ``wheel_skipped`` counts cancelled
    handles discarded at heap pop without dispatching an event.
    """

    __slots__ = (
        "events",
        "batched_events",
        "simulators",
        "timers_armed",
        "timers_scheduled",
        "timers_cancelled",
        "timer_fires",
        "timer_stale_fires",
        "wheel_armed",
        "wheel_flushed",
        "wheel_cancelled",
        "wheel_skipped",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events = 0
        self.batched_events = 0
        self.simulators = 0
        self.timers_armed = 0
        self.timers_scheduled = 0
        self.timers_cancelled = 0
        self.timer_fires = 0
        self.timer_stale_fires = 0
        self.wheel_armed = 0
        self.wheel_flushed = 0
        self.wheel_cancelled = 0
        self.wheel_skipped = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelCounters events={self.events} sims={self.simulators}>"


#: The counters the engine increments.  Reset before a measured region.
KERNEL_COUNTERS = KernelCounters()

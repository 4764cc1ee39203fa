"""Reliability-engine base classes and the transport adapter contract.

An engine pair never imports its transport — it drives one through a
small duck-typed adapter the transport passes to the constructor.  The
adapter must expose:

``sim``
    the :class:`~repro.sim.engine.Simulator` (clock, processes, named
    RNG streams, metrics);
``nic``
    the NIC device model (``id``, ``name``, ``cpu``, ``processing()``,
    ``queue_tx()``);
``cost``
    the GM cost model (timings such as ``ack_timeout`` and
    ``nic_per_packet_send``);
``retransmit(group, record, child)``
    coroutine: put one record back on the wire toward one child,
    re-arming its clock at the transport's own point (multicast before
    the resend, GM unicast after the send DMA); multicast also accepts
    ``replay=True`` to mark recovery resyncs;
``retransmissions`` / ``retransmit_counter``
    the adapter's resend statistic and the metric name that counts
    sweep resends (``proto.retransmits`` or ``mcast.laggard_resends``);
``unreachable(group, record, child)``
    the "peer unreachable" message raised once a record exceeds
    ``cost.max_retransmits``;
``send_group_ack(group)``
    coroutine: cumulative ack of ``group.recv_seq`` to the parent;
``send_nack(group, gaps)``
    coroutine: gap report to the parent (NACK families);
``regenerate_record(group, seq)``
    rebuild a retired send record from message metadata (or ``None``);
``inject_data(pkt)``
    coroutine: feed a locally reconstructed data packet back through
    the transport's ordinary receive path (FEC repair).

Everything from ``send_group_ack`` down serves the multicast families
only; the GM unicast transport supplies the entries above it.

The *group* object handed to every hook carries the per-flow sequencing
state: ``recv_seq``, ``next_send_seq``, ``children`` / ``child_acked``
(one-to-many transports), the ``window``, and the two engine-facing
fields ``reliability_family`` / ``reliability_params`` plus the
engine-owned ``rel_state`` scratch dict.  Send records carry
``retransmits`` and ``unacked`` (the children still owing an ack).

The GM unicast transport drives the ``ack_window`` pair and hands a
``Connection`` instead: its one child is the peer (a GM record's
``unacked`` is just its ``dst``), so the receiver hooks touch only
``recv_seq`` and plain Go-back-N is the one-child case of
:meth:`SenderEngine.on_timeout`.

Hook purity contract: for the ``ack_window`` family every receiver hook
is a pure decision or state write — **zero simulated events** — which is
what makes porting the pre-refactor inline path onto the hooks
byte-identical.  Other families may schedule timers and spawn processes
from their hooks.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ReproError

__all__ = ["ReceiverEngine", "SenderEngine"]


class _EngineHalf:
    """Shared plumbing: transport handle and per-group parameters."""

    __slots__ = ("transport",)

    #: family name (mirrors the registry key; set by subclasses)
    name = ""

    def __init__(self, transport: Any):
        self.transport = transport

    def param(self, group: Any, key: str) -> Any:
        """*group*'s value for tunable *key* (family default otherwise)."""
        params = group.reliability_params
        if key in params:
            return params[key]
        from repro.proto.engines import get_engine

        return get_engine(group.reliability_family).defaults[key]

    @staticmethod
    def state(group: Any) -> dict:
        """The engine-owned scratch dict riding on *group*.

        Shared between the sender and receiver halves (an intermediate
        multicast node is both); keys are namespaced ``s_*`` / ``r_*``.
        """
        return group.rel_state


class ReceiverEngine(_EngineHalf):
    """Receive-side policy: what to accept, when to ack, how to repair."""

    __slots__ = ()

    def classify(self, group: Any, h: Any) -> str:
        """Verdict for an arriving data header: ``"accept"``,
        ``"duplicate"`` (drop + re-ack, the exactly-once guarantee), or
        ``"drop"`` (discard silently; recovery is the family's job)."""
        raise NotImplementedError

    def on_accept(self, group: Any, h: Any) -> None:
        """Commit an accepted header to the group's sequencing state."""
        raise NotImplementedError

    def ack_after_accept(self, group: Any, h: Any) -> bool:
        """Whether the transport should ack right after this accept."""
        return True

    def on_parity(self, group: Any, pkt: Any) -> Generator:
        """Coroutine: an MCAST_FEC parity packet arrived (default: drop)."""
        return
        yield  # pragma: no cover - makes this a generator function


class SenderEngine(_EngineHalf):
    """Send-side policy: timeout sweeps, repair triggering and replay
    regeneration."""

    __slots__ = ()

    def on_timeout(self, group: Any, from_seq: int) -> Generator:
        """Coroutine: per-laggard Go-back-N from the expired record.

        The one retransmission sweep (paper §4/§5): the record at
        *from_seq* and every later one are resent, "only for the
        destinations which have not acknowledged" — grouped by child in
        ascending order so each laggard's recovery stream stays in
        sequence order.  The window is snapshotted once; a record acked
        while earlier resends were going out is skipped.  Each attempt
        is counted, and one past ``max_retransmits`` escalates with the
        transport's "peer unreachable" diagnosis.  The NACK families
        inherit this as their fallback.
        """
        t = self.transport
        window = group.window
        seqs = [seq for seq in window.seqs() if seq >= from_seq]
        laggards = {
            child for seq in seqs for child in window.records[seq].unacked
        }
        for child in sorted(laggards):
            for seq in seqs:
                record = window.get(seq)
                if record is None or child not in record.unacked:
                    continue
                record.retransmits += 1
                t.retransmissions += 1
                m = t.sim.metrics
                if m is not None:
                    m.inc(t.retransmit_counter)
                if record.retransmits > t.cost.max_retransmits:
                    raise ReproError(t.unreachable(group, record, child))
                yield from t.retransmit(group, record, child)

    def on_data_queued(self, group: Any, record: Any) -> None:
        """A data packet for *record* was queued for the wire.

        Post-queue hook (the packet is already on its way): the FEC
        family accumulates parity blocks here.  Default: nothing, zero
        simulated events.
        """

    def on_nack(self, group: Any, pkt: Any) -> Generator:
        """Coroutine: an MCAST_NACK gap report arrived (default: ignore)."""
        return
        yield  # pragma: no cover - makes this a generator function

    def fallback_timeout(self, group: Any, cost: Any) -> float:
        """Timeout for the group's fallback retransmission timer.

        The ack-window family times out at ``ack_timeout`` (the paper's
        clock).  NACK families ack only at message boundaries, so their
        fallback — which exists to survive *total* loss, where no
        receiver knows there is a gap to report — runs slower.
        """
        return cost.ack_timeout

    def record_for_replay(self, group: Any, seq: int) -> Any:
        """The send record replaying *seq*, regenerating if retired.

        Recovery replay (regraft resync, NACK repair) goes through this
        instead of reaching into :class:`~repro.proto.window.SendWindow`
        directly, so a family can veto or redirect regeneration.
        """
        record = group.window.get(seq)
        if record is None:
            record = self.transport.regenerate_record(group, seq)
        return record

"""One-to-many reliability for NIC-based multicast.

"A multicast packet sent from one NIC to its children has the same
sequence number and send record, ensuring ordered sending for the same
group's multicast packets.  When an acknowledgment from one destination
is received, the acknowledged sequence number for that destination is
updated.  If the record for a packet is timed out, the retransmission of
the packet and the following ones will be performed only for the
destinations which have not acknowledged" (paper §5).

The mechanics — send window, per-window timer, Go-back-N sweep — come
from :mod:`repro.proto`; this module binds them to multicast groups:
the window is the group's record table, the sweep is the engine
family's per-child Go-back-N
(:meth:`~repro.proto.engines.base.SenderEngine.on_timeout`), and
retransmitted data is re-fetched from the (still registered) host
replica.

Since the reliability-engine refactor this component is also the
**transport adapter** behind the pluggable families of
:mod:`repro.proto.engines`: each group names its family
(``group.reliability_family``), and this class dispatches gap reports
(MCAST_NACK) and repair/regeneration work to the family's sender
engine while exposing the wire-level helpers (group acks, NACKs,
retransmission staging, record regeneration, packet injection) and
the sweep's counter and escalation message that the engines drive.
The receive-side hooks are dispatched by
:class:`~repro.mcast.forward.Forwarding`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.net.packet import GM_HEADER_BYTES, Packet, PacketType, make_packet
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import TX_PRIO_ACK, TX_PRIO_DATA
from repro.proto import NEVER, RetransmitTimer, send_ack
from repro.proto.engines import get_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.tokens import SendToken
    from repro.mcast.engine import McastEngine
    from repro.mcast.group import GroupState
    from repro.proto.engines import ReceiverEngine, SenderEngine

__all__ = ["McastRecord", "McastReliability"]


@dataclass
class McastRecord:
    """Send record for one multicast packet at one NIC."""

    seq: int
    group_id: int
    msg_id: int
    chunk: int
    nchunks: int
    payload: int
    msg_size: int
    #: children that have not yet acknowledged this seq
    unacked: set[int] = field(default_factory=set)
    #: the root's send token (None at intermediate NICs — they use the
    #: transformed receive token tracked on the held message instead)
    token: "SendToken | None" = None
    sent_at: float = 0.0
    retransmits: int = 0
    #: absolute retransmission deadline, managed by the group's
    #: :class:`~repro.proto.timer.RetransmitTimer`.
    deadline: float = NEVER
    #: application payload info riding on chunk 0 (survives retransmits)
    app_info: dict | None = None
    #: flight-recorder trace id (-1 = untraced); carried from the root
    #: post through forwarding, retransmission, and recovery replay.
    trace_id: int = -1


class McastReliability:
    """Ack handling and per-child Go-back-N for one node's groups.

    One of :class:`~repro.mcast.engine.McastEngine`'s three composed
    components; reaches back through ``engine`` for record-completion
    plumbing, packet construction, and statistics.
    """

    #: metric counting laggard resends (the engine sweep's adapter hook)
    retransmit_counter = "mcast.laggard_resends"

    def __init__(self, engine: "McastEngine"):
        self.engine = engine
        self.nic = engine.nic
        self.sim = engine.sim
        self.cost = engine.cost
        self.table = engine.table
        #: laggard resends by this node's timeout sweeps
        self.retransmissions = 0
        #: family name -> (sender, receiver) engine pair for this node.
        #: Engines are stateless per instance (per-group state lives in
        #: ``group.rel_state``), so one pair per family suffices.
        self._engines: dict[str, tuple["SenderEngine", "ReceiverEngine"]] = {}

    # -- engine dispatch ----------------------------------------------------
    def engine_pair(
        self, group: "GroupState"
    ) -> tuple["SenderEngine", "ReceiverEngine"]:
        """The (sender, receiver) engines driving *group*'s family."""
        pair = self._engines.get(group.reliability_family)
        if pair is None:
            family = get_engine(group.reliability_family)
            pair = (family.sender_cls(self), family.receiver_cls(self))
            self._engines[group.reliability_family] = pair
        return pair

    def sender_engine(self, group: "GroupState") -> "SenderEngine":
        return self.engine_pair(group)[0]

    def receiver_engine(self, group: "GroupState") -> "ReceiverEngine":
        return self.engine_pair(group)[1]

    # -- ACK reception ------------------------------------------------------
    def _handle_mcast_ack(self, pkt: Packet, _buf: Any) -> Generator:
        # nic.processing() inlined on the per-ack path (profile-hot).
        cpu = self.nic.cpu
        ev = cpu.use_fast(self.cost.nic_ack_processing)
        if ev is None:
            yield from cpu.use(self.cost.nic_ack_processing)
        else:
            yield ev
        h = pkt.header
        group = self.table.get(h.group)
        if group is None:
            return
        child = h.src
        if child not in group.child_acked:
            return  # not one of ours
        if h.ack_seq <= group.child_acked[child]:
            return  # stale
        self._apply_child_ack(group, child, h.ack_seq, pkt.uid)

    def _apply_child_ack(
        self, group: "GroupState", child: int, ack_seq: int, pkt_uid: int
    ) -> None:
        """Advance one child's cumulative ack and retire covered records.

        Shared by the MCAST_ACK handler and the ack piggybacked on every
        MCAST_NACK (for the NACK families, gap reports carry the
        reporter's contiguous prefix).
        """
        group.child_acked[child] = ack_seq
        m = self.sim.metrics
        fr = self.sim.flight
        for record in group.window.ack_from_child(child, ack_seq):
            if m is not None:
                m.observe("proto.ack_latency_us", self.sim.now - record.sent_at)
            if fr is not None and record.trace_id >= 0:
                fr.record(
                    self.sim.now, record.trace_id, "ack", self.nic.id,
                    pkt_uid, record.chunk, {"child": child},
                )
            self.engine._record_completed(group, record)
        if group.timer is not None:
            group.timer.defuse()

    # -- NACK reception -----------------------------------------------------
    def _handle_mcast_nack(self, pkt: Packet, _buf: Any) -> Generator:
        """A child reported gaps: apply its piggybacked cumulative ack,
        then hand the gap list to the group's sender engine."""
        cpu = self.nic.cpu
        ev = cpu.use_fast(self.cost.nic_ack_processing)
        if ev is None:
            yield from cpu.use(self.cost.nic_ack_processing)
        else:
            yield ev
        h = pkt.header
        group = self.table.get(h.group)
        if group is None:
            return
        child = h.src
        if child not in group.child_acked:
            return  # not one of ours
        if h.ack_seq > group.child_acked[child]:
            self._apply_child_ack(group, child, h.ack_seq, pkt.uid)
        yield from self.sender_engine(group).on_nack(group, pkt)

    def send_group_ack(self, group: "GroupState") -> Generator:
        """Acknowledge the group's current receive seq to the parent."""
        assert group.parent is not None
        yield from send_ack(
            self.nic, self.cost,
            ptype=PacketType.MCAST_ACK,
            dst=group.parent,
            port=group.port_num,
            from_port=group.port_num,
            ack_seq=group.recv_seq,
            group=group.group_id,
        )

    def send_nack(self, group: "GroupState", gaps: list[int]) -> Generator:
        """Report *gaps* to the parent (with the cumulative ack
        piggybacked in ``ack_seq``) at ack priority."""
        assert group.parent is not None
        nic, cost = self.nic, self.cost
        ev = nic.cpu.use_fast(cost.nic_ack_generation)
        if ev is None:
            yield from nic.cpu.use(cost.nic_ack_generation)
        else:
            yield ev
        pkt = make_packet(
            PacketType.MCAST_NACK, nic.id, group.parent, nic.id,
            port=group.port_num,
            from_port=group.port_num,
            ack_seq=group.recv_seq,
            group=group.group_id,
        )
        pkt.header.info["gaps"] = list(gaps)
        self.sim.record(
            nic.name, "mcast_nack", group=group.group_id, gaps=list(gaps),
        )
        nic.queue_tx(PacketDescriptor(pkt), TX_PRIO_ACK)

    def inject_data(self, pkt: Packet) -> Generator:
        """Feed a locally reconstructed data packet (FEC repair) back
        through the ordinary receive path — sequencing, acks, forwarding
        and host delivery behave exactly as for a wire arrival."""
        yield from self.engine.forwarding._handle_mcast_data(pkt, None)

    # -- timers -----------------------------------------------------------------
    def arm(self, group: "GroupState", record: McastRecord) -> None:
        """(Re)start *record*'s retransmission clock on its group's timer."""
        timer = group.timer
        if timer is None:
            timeout = self.sender_engine(group).fallback_timeout(
                group, self.cost
            )
            timer = group.timer = RetransmitTimer(
                self.sim,
                timeout,
                group.window,
                lambda record, group=group: self._expired(group, record),
            )
        timer.arm(record)

    def _expired(self, group: "GroupState", record: McastRecord) -> None:
        """The group's oldest unacked record timed out: start the sender
        engine's per-laggard Go-back-N sweep."""
        m = self.sim.metrics
        if m is not None:
            m.inc("proto.retransmit_timeouts")
        self.sim.record(
            self.nic.name, "mcast_timeout", group=group.group_id,
            seq=record.seq, unacked=sorted(record.unacked),
        )
        self.sim.process(
            self.sender_engine(group).on_timeout(group, record.seq),
            name=f"{self.nic.name}.mcast_gbn",
        )

    def unreachable(
        self, group: "GroupState", record: McastRecord, child: int
    ) -> str:
        """Escalation message once ``max_retransmits`` is exceeded."""
        return (
            f"{self.nic.name}: multicast packet seq={record.seq} "
            f"group={group.group_id} retransmitted "
            f"{record.retransmits} times to child {child} — "
            "peer unreachable"
        )

    # -- regraft resync ----------------------------------------------------
    def resync_children(
        self, group: "GroupState", added: list[int]
    ) -> Generator:
        """Bring newly grafted children up to this node's sequence state.

        Every sequence this node has seen (root: allocated; member:
        received) that a new child has not acknowledged is replayed.
        Retired records are regenerated from ``msg_meta`` — payload
        bytes come back over DMA from the still-registered host
        replica.  Replays a regrafted child already received are
        dup-dropped and re-acked at the child (bounded duplicate wire
        traffic, zero duplicate host deliveries), which also converges
        the race where the child's ack beat this update.
        """
        hi = group.next_send_seq - 1 if group.is_root else group.recv_seq
        m = self.sim.metrics
        sender = self.sender_engine(group)
        for seq in range(1, hi + 1):
            # Through the engine interface: the family may regenerate a
            # retired record (or veto the replay) rather than this code
            # reaching into the SendWindow directly.
            record = sender.record_for_replay(group, seq)
            if record is None:
                continue
            for child in added:
                if group.child_acked.get(child, 0) >= seq:
                    continue
                record.unacked.add(child)
                if m is not None:
                    m.inc("mcast.recovery.replays")
                yield from self.retransmit(
                    group, record, child, replay=True
                )

    def regenerate_record(
        self, group: "GroupState", seq: int
    ) -> McastRecord | None:
        """Rebuild a retired send record for *seq* from message metadata.

        ``token=None`` always — at the root the original multisend token
        has already accounted this packet, so a regenerated record must
        not touch token accounting when it completes again.
        """
        from repro.net.packet import split_message

        for msg_id, (base_seq, nchunks, msg_size, tid) in group.msg_meta.items():
            if base_seq <= seq < base_seq + nchunks:
                break
        else:
            return None
        chunk = seq - base_seq
        payload = split_message(msg_size, self.cost.mtu)[chunk]
        record = McastRecord(
            seq=seq,
            group_id=group.group_id,
            msg_id=msg_id,
            chunk=chunk,
            nchunks=nchunks,
            payload=payload,
            msg_size=msg_size,
            unacked=set(),
            token=None,
            trace_id=tid,
        )
        group.window.add(record)
        held = group.held.get(msg_id)
        if held is not None:
            # Keep the host pin alive until the regenerated obligation
            # is discharged too.
            held.pending_records += 1
        return record

    def retransmit(
        self, group: "GroupState", record: McastRecord, child: int,
        replay: bool = False,
    ) -> Generator:
        """Stage one retransmission to one child from host memory.

        The record's clock re-arms first, before the resend goes out.
        Data is re-fetched from (still registered) host memory — the
        receive buffer was released when forwarding completed.
        *replay* marks recovery resyncs (regraft / explicit replay), so
        the flight recorder can attribute the wait to ``recovery_gap``
        rather than ``retransmit_wait``.
        """
        self.arm(group, record)
        buf = yield self.nic.send_buffers.acquire()
        yield from self.nic.dma(record.payload + GM_HEADER_BYTES)
        yield from self.nic.processing(self.cost.nic_per_packet_send)
        record.sent_at = self.sim.now
        m = self.sim.metrics
        if m is not None:
            # Uniform across reliability families: every repair/replay
            # packet emission (timer resend, NACK repair, resync).
            m.inc("mcast.retransmit_packets")
        pkt = self.engine._build_mcast_packet(group, record, child)
        self.sim.record(
            self.nic.name, "mcast_retransmit", group=group.group_id,
            seq=record.seq, child=child, attempt=record.retransmits,
        )
        fr = self.sim.flight
        if fr is not None and record.trace_id >= 0:
            fr.record(
                self.sim.now, record.trace_id, "tx", self.nic.id,
                pkt.uid, record.chunk,
                {"attempt": record.retransmits, "dst": child,
                 "replay": replay},
            )
        desc = PacketDescriptor(pkt, buffer=buf)  # default free-on-transmit
        self.nic.queue_tx(desc, TX_PRIO_DATA)

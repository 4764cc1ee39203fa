"""NACK reliability: receiver-detected gaps, sender-multicast repairs.

Receivers accept out of order and track the set of sequences beyond the
contiguous prefix.  A gap (a hole in that set, or a message tail that
never arrived — detectable because every header carries its message
geometry) arms a **suppression timer** with seeded jitter: if the gap is
filled before the timer fires (a repair multicast triggered by a sibling
beat us to it, or an FEC reconstruction), the timer is cancelled and no
NACK is sent — that is what keeps 64 receivers missing the same packet
from imploding the parent with 64 simultaneous NACKs.  When the timer
does fire, the receiver reports every open gap to its parent in one
MCAST_NACK and re-arms (a lost NACK or lost repair must not strand the
gap).

The sender answers a gap report by **multicasting the repair**: the
record is re-sent to every child whose cumulative ack is below the gap,
not just the reporter.  Repeated NACKs for a sequence repaired within
``repair_suppression_us`` are counted and dropped (sender-side
suppression).  Retired records are regenerated through the engine
replay interface.

Cumulative acks still exist but become rare: a receiver acks at message
completion boundaries and on duplicates (exactly-once re-ack).  The
transport's fallback retransmission timer stays armed at a scaled
timeout — it is the only recovery when *everything* after a point is
lost at a child that therefore never sees evidence of a gap (e.g. a
mid-broadcast link failure severing the subtree).

Determinism under sharding: jitter draws come from the per-node named
stream ``nack.node<id>``, consumed only by this node's suppression
timers — identical across shard counts.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.proto.engines import EngineFamily, register_engine
from repro.proto.engines.base import ReceiverEngine, SenderEngine

__all__ = ["NackReceiver", "NackSender"]

#: Family tunables (group ``reliability_params`` override per key).
NACK_DEFAULTS = {
    #: base suppression delay before a detected gap is reported
    "nack_delay_us": 60.0,
    #: uniform jitter range added to the delay (implosion avoidance)
    "nack_jitter_us": 60.0,
    #: sender-side window: NACKs for a seq repaired more recently than
    #: this are suppressed, not re-repaired
    "repair_suppression_us": 120.0,
    #: fallback retransmission timer = ack_timeout * this scale
    "fallback_timeout_scale": 4.0,
    #: a tail gap is overdue after this many observed inter-arrival
    #: gaps of silence (replica chains stretch spacing with fan-out, so
    #: the quiescence clock adapts instead of hardcoding)
    "tail_spacing_factor": 4.0,
    #: extra suppression delay per hop of tree depth below the first
    #: non-root level: a gap at a deep receiver is usually an upstream
    #: loss already being repaired, and the repair cascades down at
    #: roughly one hop per forwarding latency — only the node just
    #: below the lossy link should actually NACK
    "depth_scale_us": 20.0,
}


class NackReceiver(ReceiverEngine):
    """Out-of-order accept; gap detection; jittered NACK emission."""

    __slots__ = ()
    name = "nack"

    # -- classification ----------------------------------------------------
    def classify(self, group: Any, h: Any) -> str:
        if h.seq <= group.recv_seq:
            return "duplicate"
        if h.seq in self.state(group).get("r_received", ()):
            return "duplicate"
        return "accept"

    def on_accept(self, group: Any, h: Any) -> None:
        st = self.state(group)
        now = self.transport.sim.now
        last = st.get("r_last_arrival")
        if last is not None and now > last:
            gap = now - last
            ewma = st.get("r_gap_ewma")
            st["r_gap_ewma"] = (
                gap if ewma is None else 0.75 * ewma + 0.25 * gap
            )
        st["r_last_arrival"] = now
        received = st.setdefault("r_received", set())
        if h.seq < max(received, default=group.recv_seq):
            # A hole filled: repair progress, so the NACK backoff clock
            # restarts (remaining gaps are being worked on).
            st["r_nack_backoff"] = 0
        received.add(h.seq)
        # Advance the contiguous prefix and prune behind it.
        nxt = group.recv_seq + 1
        while nxt in received:
            received.discard(nxt)
            group.recv_seq = nxt
            nxt += 1
        # Message geometry from *any* chunk: the first seq of the
        # message is h.seq - h.chunk, so a lost tail is a detectable gap
        # as soon as any packet of the message arrives.  (The in-order
        # family records msg_meta at chunk 0 only; out-of-order accept
        # cannot rely on chunk 0 arriving first.)
        base = h.seq - h.chunk
        group.msg_meta.setdefault(
            h.msg_id, (base, h.nchunks, h.msg_size, h.trace_id)
        )
        st.setdefault("r_ends", set()).add(base + h.nchunks - 1)
        self._update_nack_timer(group, st)

    def ack_after_accept(self, group: Any, h: Any) -> bool:
        # Ack only when the contiguous prefix crosses a message-end
        # boundary — that is when the parent can retire records.
        st = self.state(group)
        ends = st.get("r_ends")
        if not ends:
            return False
        done = [e for e in ends if e <= group.recv_seq]
        if not done:
            return False
        ends.difference_update(done)
        return True

    # -- gap detection and the suppression timer ---------------------------
    def _gaps(self, group: Any, st: dict) -> list[int]:
        """Open gaps: every missing seq up to the highest evidence of
        transmitted data (received packets or known message ends)."""
        received = st.get("r_received", ())
        hi = max(received, default=group.recv_seq)
        for end in st.get("r_ends", ()):
            if end > hi:
                hi = end
        return [
            seq for seq in range(group.recv_seq + 1, hi + 1)
            if seq not in received
        ]

    def _update_nack_timer(self, group: Any, st: dict) -> None:
        """Arm the suppression timer when gaps open; cancel when they
        close before firing (the NACK that never needed sending).

        A **hole** (a missing seq below one we received) is definite
        loss evidence: the timer runs from first detection.  A **tail**
        gap (the message end is known but packets beyond the highest
        received seq are absent) may just be data in flight, so the
        quiescence clock restarts on every accept — a tail NACK fires
        only after delay+jitter of silence.
        """
        timer = st.get("r_nack_timer")
        received = st.get("r_received", ())
        hi_data = max(received, default=group.recv_seq)
        hole = any(
            seq not in received
            for seq in range(group.recv_seq + 1, hi_data)
        )
        tail = any(end > hi_data for end in st.get("r_ends", ()))
        if hole:
            if timer is None:
                self._arm_nack_timer(group, st)
        elif tail:
            if timer is not None:
                timer.cancel()
            self._arm_nack_timer(group, st, tail=True)
        elif timer is not None:
            timer.cancel()
            st["r_nack_timer"] = None

    def _arm_nack_timer(
        self, group: Any, st: dict, tail: bool = False
    ) -> None:
        t = self.transport
        delay = self.param(group, "nack_delay_us")
        depth = getattr(group, "depth", 1)
        if depth > 1:
            # Hierarchical suppression: the deeper this receiver, the
            # longer an upstream repair takes to cascade to it — and
            # the likelier its gap is a shared upstream loss some
            # ancestor is already NACKing.
            delay += self.param(group, "depth_scale_us") * (depth - 1)
        if tail:
            # In-flight data is only "overdue" relative to the spacing
            # this receiver actually sees — replica chains stretch it
            # by the sender's fan-out, so a fixed delay would NACK
            # packets still on the wire at every wide node.
            spacing = st.get("r_gap_ewma")
            if spacing is None or spacing < delay:
                spacing = delay
            delay += self.param(group, "tail_spacing_factor") * spacing
        # Exponential backoff per consecutive unproductive fire: a
        # repair cascading hop-by-hop from a distant ancestor can take
        # many round trips' worth of time; re-NACKing every base delay
        # until it lands is pure chatter.
        delay *= 1 << min(st.get("r_nack_backoff", 0), 5)
        jitter = self.param(group, "nack_jitter_us")
        if jitter:
            delay += t.sim.rng(f"nack.node{t.nic.id}").random() * jitter
        st["r_nack_timer"] = t.sim.schedule_timer(
            t.sim.now + delay, lambda group=group: self._nack_fire(group)
        )

    def _nack_fire(self, group: Any) -> None:
        st = self.state(group)
        st["r_nack_timer"] = None
        gaps = self._gaps(group, st)
        if not gaps or group.parent is None:
            return
        # Local repair first (the FEC family cashes held parity here —
        # an overdue tail loss reconstructs with no round trip at all).
        gaps = self._repair_from_parity(group, st, gaps)
        gaps = self._defer_gaps(group, st, gaps)
        t = self.transport
        if gaps:
            t.sim.process(
                self._send_nack(group, gaps), name=f"{t.nic.name}.nack"
            )
        # Re-arm: a lost NACK, lost repair, or in-flight reconstruction
        # must not strand the gap.  Each consecutive fire backs the
        # timer off; any hole-filling arrival resets it.
        st["r_nack_backoff"] = st.get("r_nack_backoff", 0) + 1
        self._arm_nack_timer(group, st)

    def _repair_from_parity(
        self, group: Any, st: dict, gaps: list[int]
    ) -> list[int]:
        """Hook: repair overdue gaps locally before NACKing (the plain
        NACK family has nothing to repair from)."""
        return gaps

    def _defer_gaps(
        self, group: Any, st: dict, gaps: list[int]
    ) -> list[int]:
        """Hook: hold some gaps back for one more timer cycle (the FEC
        family waits out the parity that usually makes a NACK moot)."""
        return gaps

    def _send_nack(self, group: Any, gaps: list[int]) -> Generator:
        t = self.transport
        m = t.sim.metrics
        if m is not None:
            m.inc("proto.nack_sent")
        t.sim.record(
            t.nic.name, "mcast_nack", gaps=tuple(gaps), parent=group.parent
        )
        yield from t.send_nack(group, gaps)

    # -- parity (ignored by the plain NACK family) -------------------------
    # on_parity: inherited drop.


class NackSender(SenderEngine):
    """Repair multicast on gap reports, with sender-side suppression."""

    __slots__ = ()
    name = "nack"

    def on_nack(self, group: Any, pkt: Any) -> Generator:
        t = self.transport
        m = t.sim.metrics
        now = t.sim.now
        child = pkt.header.src
        window_us = self.param(group, "repair_suppression_us")
        st = self.state(group)
        received = st.get("r_received", ())
        repaired = st.setdefault("s_repaired", {})
        for seq in pkt.header.info.get("gaps", ()):
            if group.child_acked.get(child, 0) >= seq:
                continue  # stale: the child's own ack overtook the NACK
            if (
                group.parent is not None
                and seq > group.recv_seq
                and seq not in received
            ):
                # An intermediate can only repair data it holds.  The
                # child is served when this node's own gap fills and
                # the packet forwards naturally.
                continue
            last = repaired.get(seq)
            if last is not None and now - last < window_us:
                if m is not None:
                    m.inc("proto.nack_suppressed")
                continue
            record = self.record_for_replay(group, seq)
            if record is None:
                continue
            repaired[seq] = now
            if m is not None:
                m.inc("proto.nack_repairs")
            # Multicast the repair: every laggard child gets it, so one
            # child's NACK suppresses its siblings' (their gap closes
            # before their jittered timers fire).
            for c in group.children:
                if group.child_acked.get(c, 0) >= seq:
                    continue
                record.unacked.add(c)
                yield from t.retransmit(group, record, c)

    def fallback_timeout(self, group: Any, cost: Any) -> float:
        return cost.ack_timeout * self.param(group, "fallback_timeout_scale")


register_engine(EngineFamily(
    name="nack",
    title="Receiver-driven NACK with suppression; sender repairs by multicast",
    sender_cls=NackSender,
    receiver_cls=NackReceiver,
    defaults=dict(NACK_DEFAULTS),
))

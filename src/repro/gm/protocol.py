"""The GM protocol engine: reliable ordered unicast on the NIC.

Implements GM's send/receive paths as they appear to the firmware
(paper §4):

* **Sending** — a host send event is translated into a send token; for
  each packet the NIC DMAs data from the host into an SRAM send buffer,
  assigns a per-connection sequence number, keeps a *send record* with a
  timestamp, and queues the packet.  Unacknowledged records time out and
  trigger Go-back-N retransmission ("the sender will retransmit the
  packet, as well as all the later packets from the same port").
* **Receiving** — an in-sequence packet claims a receive token, is DMAd
  to host memory, and is acknowledged; when all packets of a message have
  arrived a receive event is posted to the host.  Out-of-order packets
  are dropped (Go-back-N); duplicates are re-acknowledged so lost ACKs
  cannot wedge the sender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ReproError
from repro.gm.api import GMPort, RecvCompletion, SendCommand
from repro.gm.memory import RegisteredMemory
from repro.gm.tokens import ReceiveToken, SendToken
from repro.net.packet import (
    GM_HEADER_BYTES,
    Packet,
    PacketHeader,
    PacketType,
    make_packet,
    split_message,
)
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import NIC, TX_PRIO_DATA
from repro.proto import NEVER, RetransmitTimer, SendWindow, send_ack
from repro.proto.engines.ack_window import AckWindowReceiver, AckWindowSender
from repro.sim.resources import EMPTY, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["GMEngine", "Connection", "SendRecord"]


@dataclass
class SendRecord:
    """Bookkeeping for one transmitted, unacknowledged packet."""

    seq: int
    token: SendToken
    chunk: int
    nchunks: int
    payload: int
    msg_size: int
    dst: int
    dst_port: int
    local_port: int
    ptype: PacketType = PacketType.DATA
    group: int | None = None
    sent_at: float = 0.0
    retransmits: int = 0
    #: absolute retransmission deadline, managed by the connection's
    #: :class:`~repro.proto.timer.RetransmitTimer`.
    deadline: float = NEVER
    #: flight-recorder trace id (-1 = untraced); stamped into every
    #: packet built from this record, retransmissions included.
    trace_id: int = -1

    @property
    def unacked(self) -> tuple[int]:
        """Children still owing an ack: a unicast connection's one
        child is the peer, for as long as the record is in the window."""
        return (self.dst,)


class Connection:
    """Per (local port, remote port) unidirectional sequencing state."""

    __slots__ = (
        "next_send_seq", "recv_seq", "records", "window", "timer",
        "inflight", "key",
    )

    def __init__(self, key: tuple):
        self.key = key
        self.next_send_seq = 1
        self.recv_seq = 0
        #: unacked send records by seq (backing dict of ``window``)
        self.records: dict[int, SendRecord] = {}
        self.window = SendWindow(self.records)
        #: retransmission timer; attached by the engine on send
        #: connections (receive connections keep no records).
        self.timer: RetransmitTimer | None = None
        #: in-progress multi-packet receives by msg_id
        self.inflight: dict[int, "_InflightRecv"] = {}

    def alloc_seq(self) -> int:
        seq = self.next_send_seq
        self.next_send_seq += 1
        return seq


@dataclass
class _InflightRecv:
    token: ReceiveToken
    nchunks: int
    src: int
    src_port: int
    msg_size: int
    received: int = 0
    app_info: Any = None


class GMEngine:
    """One GM protocol instance, bound to one NIC."""

    #: metric counting Go-back-N resends (the engine sweep's adapter hook)
    retransmit_counter = "proto.retransmits"

    def __init__(self, nic: NIC, memory: RegisteredMemory | None = None):
        self.nic = nic
        self.sim = nic.sim
        self.cost = nic.cost
        self.memory = memory or RegisteredMemory(nic.id)
        #: the ``ack_window`` engine pair; GM's ``Connection`` plays the
        #: engine's "group" role, with the peer as its one child.
        self._sender = AckWindowSender(self)
        self._receiver = AckWindowReceiver(self)
        self.ports: dict[int, GMPort] = {}
        self._send_conns: dict[tuple, Connection] = {}
        self._recv_conns: dict[tuple, Connection] = {}
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.out_of_order_dropped = 0
        self.no_token_dropped = 0

        nic.command_handlers[SendCommand] = self._handle_send_command
        nic.packet_handlers[PacketType.DATA] = self._handle_data
        nic.packet_handlers[PacketType.ACK] = self._handle_ack

        # The staging pipeline: the send DMA engine fetches packet data
        # from host memory *in parallel with* the LANai processing later
        # requests — "the request processing is completely overlapped
        # with the transmission of a previous queued packet" (paper §6.1).
        self._stage_queue: Store = Store(nic.sim, name=f"{nic.name}.stage")
        nic.sim.process(self._staging_loop(), name=f"{nic.name}.stager")

    def _staging_loop(self) -> Generator:
        queue = self._stage_queue
        while True:
            job = queue.try_get()
            if job is EMPTY:
                job = yield queue.get()
            yield from job()

    def stage(self, job) -> None:
        """Queue a zero-argument generator function on the staging FIFO."""
        self._stage_queue.put(job)

    # -- ports ------------------------------------------------------------
    def create_port(self, port_num: int, owner: Any) -> GMPort:
        if port_num in self.ports:
            raise ReproError(
                f"port {port_num} already open on NIC {self.nic.id}"
            )
        port = GMPort(self, port_num, owner)
        self.ports[port_num] = port
        return port

    # -- connections ----------------------------------------------------------
    def send_conn(self, local_port: int, dst: int, dst_port: int) -> Connection:
        key = (local_port, dst, dst_port)
        conn = self._send_conns.get(key)
        if conn is None:
            conn = Connection(("send",) + key)
            conn.timer = RetransmitTimer(
                self.sim,
                self.cost.ack_timeout,
                conn.window,
                lambda record, conn=conn: self._expired(conn, record),
            )
            self._send_conns[key] = conn
        return conn

    def recv_conn(self, src: int, src_port: int, local_port: int) -> Connection:
        key = (src, src_port, local_port)
        conn = self._recv_conns.get(key)
        if conn is None:
            conn = Connection(("recv",) + key)
            self._recv_conns[key] = conn
        return conn

    # -- send path -----------------------------------------------------------------
    def _handle_send_command(self, cmd: SendCommand) -> Generator:
        token = cmd.token
        assert token is not None
        # Translate the host send event into a send token (the per-request
        # LANai work that host-based multiple unicasts repeat k times).
        yield from self.nic.processing(self.cost.nic_send_token_processing)
        if token.region is not None:
            self.memory.require(token.region)
        conn = self.send_conn(token.port_num, token.dst, token.dst_port)
        chunks = split_message(token.size, self.cost.mtu)
        fr = self.sim.flight
        tid = -1
        if fr is not None:
            tid = fr.begin(
                self.sim.now, self.nic.id, "unicast",
                size=token.size, msg_id=token.msg_id,
            )
        for idx, payload in enumerate(chunks):
            record = SendRecord(
                seq=conn.alloc_seq(),
                token=token,
                chunk=idx,
                nchunks=len(chunks),
                payload=payload,
                msg_size=token.size,
                dst=token.dst,
                dst_port=token.dst_port,
                local_port=token.port_num,
                trace_id=tid,
            )
            conn.window.add(record)
            token.unacked_packets += 1
            # LANai work stays on the command path; the data fetch is
            # handed to the staging pipeline (DMA overlaps later
            # requests' processing and earlier packets' transmission).
            yield from self.nic.processing(self.cost.nic_per_packet_send)
            self.stage(
                lambda conn=conn, record=record: self._transmit_record(
                    conn, record
                )
            )
        if fr is not None:
            fr.record(
                self.sim.now, -1, "gauge", self.nic.id, -1, 0,
                {"name": "proto.send_window_depth",
                 "value": len(conn.records)},
            )
        token.all_packets_sent = True
        self._maybe_complete(token)

    def _transmit_record(self, conn: Connection, record: SendRecord) -> Generator:
        """Stage one packet (fresh or retransmit) and queue it for the wire."""
        staged_at = self.sim.now
        buf = yield self.nic.send_buffers.acquire()
        yield from self.nic.dma(record.payload + GM_HEADER_BYTES)
        record.sent_at = self.sim.now
        m = self.sim.metrics
        if m is not None:
            m.observe("nic.send_service_us", self.sim.now - staged_at)
        conn.timer.arm(record)
        # make_packet: one header per transmitted packet (fresh or
        # retransmit) makes this a serving-rate hot site.
        pkt = make_packet(
            record.ptype, self.nic.id, record.dst, self.nic.id,
            port=record.dst_port,
            from_port=record.local_port,
            seq=record.seq,
            group=record.group,
            msg_id=record.token.msg_id,
            chunk=record.chunk,
            nchunks=record.nchunks,
            payload=record.payload,
            msg_size=record.msg_size,
            trace_id=record.trace_id,
        )
        if record.chunk == 0 and record.token.context.get("info") is not None:
            pkt.header.info["app"] = record.token.context["info"]
        fr = self.sim.flight
        if fr is not None and record.trace_id >= 0:
            fr.record(
                self.sim.now, record.trace_id, "tx", self.nic.id,
                pkt.uid, record.chunk,
                {"attempt": record.retransmits, "dst": record.dst},
            )
        desc = PacketDescriptor(pkt, buffer=buf)
        self.nic.queue_tx(desc, TX_PRIO_DATA)

    # -- reliability: timers & retransmission ------------------------------------
    def _expired(self, conn: Connection, record: SendRecord) -> None:
        """The oldest unacked record timed out: start the Go-back-N sweep.

        (Non-oldest and already-acked records never reach here — the
        connection's :class:`RetransmitTimer` re-arms or ignores them.)
        """
        self.sim.record(
            self.nic.name, "timeout", seq=record.seq, dst=record.dst,
            retransmits=record.retransmits,
        )
        self.sim.process(
            self._sender.on_timeout(conn, record.seq),
            name=f"{self.nic.name}.gbn",
        )

    def unreachable(self, conn: Connection, record: SendRecord,
                    child: int) -> str:
        """Escalation message once ``max_retransmits`` is exceeded."""
        return (
            f"{self.nic.name}: packet seq={record.seq} to node "
            f"{record.dst} dropped {record.retransmits} times — "
            f"peer unreachable"
        )

    def retransmit(self, conn: Connection, record: SendRecord,
                   child: int) -> Generator:
        """Resend one record to the peer, re-fetching its data from host
        memory (the buffer stays registered while the token is
        outstanding).  The clock re-arms after the send DMA."""
        self.sim.record(
            self.nic.name, "retransmit", seq=record.seq, dst=record.dst,
            attempt=record.retransmits,
        )
        yield from self.nic.processing(self.cost.nic_per_packet_send)
        yield from self._transmit_record(conn, record)

    # -- ACK handling ------------------------------------------------------------
    def _handle_ack(self, pkt: Packet, _buf: Any) -> Generator:
        # nic.processing() inlined on the per-ack path (profile-hot).
        cpu = self.nic.cpu
        ev = cpu.use_fast(self.cost.nic_ack_processing)
        if ev is None:
            yield from cpu.use(self.cost.nic_ack_processing)
        else:
            yield ev
        h = pkt.header
        conn = self._send_conns.get((h.port, h.src, h.from_port))
        if conn is None:
            return  # stale ack for a connection we never opened
        m = self.sim.metrics
        fr = self.sim.flight
        acked = 0
        for record in conn.window.ack_cumulative(h.ack_seq):
            acked += 1
            if m is not None:
                m.observe("proto.ack_latency_us", self.sim.now - record.sent_at)
            if fr is not None and record.trace_id >= 0:
                fr.record(
                    self.sim.now, record.trace_id, "ack", self.nic.id,
                    pkt.uid, record.chunk, {"src": h.src},
                )
            token = record.token
            token.unacked_packets -= 1
            self._maybe_complete(token)
        if fr is not None and acked:
            fr.record(
                self.sim.now, -1, "gauge", self.nic.id, -1, 0,
                {"name": "proto.send_window_depth",
                 "value": len(conn.records)},
            )
        conn.timer.defuse()

    def _maybe_complete(self, token: SendToken) -> None:
        if not token.complete:
            return
        port = self.ports.get(token.port_num)
        if token.region is not None:
            token.region.unpin()
        if port is not None:
            # A cheap event DMA tells the host its send is done.
            if self.sim.trace.enabled:
                self.sim.record(
                    self.nic.name, "send_complete",
                    msg=token.msg_id, dst=token.dst,
                )
            port.complete_send(token)

    # -- receive path ---------------------------------------------------------------
    def _handle_data(self, pkt: Packet, buf: Any) -> Generator:
        arrived_at = self.sim.now
        # nic.processing() inlined on the per-packet path (profile-hot).
        cpu = self.nic.cpu
        ev = cpu.use_fast(self.cost.nic_recv_processing)
        if ev is None:
            yield from cpu.use(self.cost.nic_recv_processing)
        else:
            yield ev
        h = pkt.header
        m = self.sim.metrics
        conn = self.recv_conn(h.src, h.from_port, h.port)
        verdict = self._receiver.classify(conn, h)
        if verdict == "duplicate":
            # Duplicate (our ACK was probably lost): drop, re-ack.
            self.duplicates_dropped += 1
            if m is not None:
                m.inc("gm.drops.duplicate")
            if buf is not None:
                buf.release()
            yield from self._send_ack(conn, h)
            return
        if verdict != "accept":
            # Out of order: Go-back-N receivers drop and wait.
            self.out_of_order_dropped += 1
            if m is not None:
                m.inc("gm.drops.out_of_order")
            self.sim.record(
                self.nic.name, "ooo_drop", seq=h.seq,
                expected=conn.recv_seq + 1, src=h.src,
            )
            if buf is not None:
                buf.release()
            return
        port = self.ports.get(h.port)
        if port is None:
            if buf is not None:
                buf.release()
            return
        msg = conn.inflight.get(h.msg_id)
        if msg is None:
            rtoken = port.take_recv_token()
            if rtoken is None:
                # No preposted receive buffer: cannot accept.  Do NOT
                # advance recv_seq; the sender's timeout recovers.
                self.no_token_dropped += 1
                if m is not None:
                    m.inc("gm.drops.no_token")
                self.sim.record(
                    self.nic.name, "no_recv_token", seq=h.seq, src=h.src
                )
                if buf is not None:
                    buf.release()
                return
            msg = _InflightRecv(
                token=rtoken,
                nchunks=h.nchunks,
                src=h.src,
                src_port=h.from_port,
                msg_size=h.msg_size,
            )
            conn.inflight[h.msg_id] = msg
        if h.chunk == 0 and h.info.get("app") is not None:
            msg.app_info = h.info["app"]
        self._receiver.on_accept(conn, h)
        if m is not None:
            m.observe("nic.recv_service_us", self.sim.now - arrived_at)
        yield from self._send_ack(conn, h)
        # Copy to host memory in the background so the next packet can be
        # processed while the receive DMA engine streams this one up.
        self.sim.process(
            self._rdma_to_host(conn, msg, pkt, buf),
            name=f"{self.nic.name}.rdma",
        )

    def _rdma_to_host(self, conn: Connection, msg: _InflightRecv,
                      pkt: Packet, buf: Any) -> Generator:
        # nic.dma_write() inlined on the per-packet path (profile-hot).
        nic = self.nic
        duration = nic.cost.dma_write_time(pkt.header.payload)
        ev = nic.pci.use_fast(duration)
        if ev is None:
            yield from nic.pci.use(duration)
        else:
            yield ev
        if buf is not None:
            buf.release()
        msg.received += 1
        if msg.received == msg.nchunks:
            conn.inflight.pop(pkt.header.msg_id, None)
            yield from self.nic.processing(self.cost.nic_event_post)
            port = self.ports.get(pkt.header.port)
            fr = self.sim.flight
            if fr is not None and pkt.header.trace_id >= 0:
                fr.record(
                    self.sim.now, pkt.header.trace_id, "host_deliver",
                    self.nic.id, pkt.uid, pkt.header.chunk,
                )
            if port is not None:
                port.return_recv_token(msg.token)
                port.deliver_event(
                    RecvCompletion(
                        src=msg.src,
                        src_port=msg.src_port,
                        size=msg.msg_size,
                        msg_id=pkt.header.msg_id,
                        received_at=self.sim.now,
                        info=msg.app_info if msg.app_info is not None else {},
                    )
                )

    def _send_ack(self, conn: Connection, h: PacketHeader) -> Generator:
        yield from send_ack(
            self.nic, self.cost,
            ptype=PacketType.ACK,
            dst=h.src,
            port=h.from_port,
            from_port=h.port,
            ack_seq=conn.recv_seq,
        )

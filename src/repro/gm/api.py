"""Host-side GM API: ports, sends, receives.

A :class:`GMPort` is a protected OS-bypass endpoint: only its owner may
operate on it (paper §2, "a user process may modify the NIC-memory used
by another process, which can lead to unpleasant scenarios" — GM prevents
that, and so do we).  All methods that consume host time are generators
meant to be driven from a host process: ``handle = yield from
port.send(dst, nbytes)``.
"""

from __future__ import annotations

from collections import deque

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ProtectionError, TokenExhausted
from repro.gm.tokens import ReceiveToken, SendToken
from repro.nic.lanai import HostCommand
from repro.sim.events import SimEvent
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.memory import RegisteredRegion
    from repro.gm.protocol import GMEngine

__all__ = ["GMPort", "SendHandle", "RecvCompletion", "SendCommand"]


@dataclass
class SendCommand(HostCommand):
    """Host → NIC: transmit the message described by ``token``."""

    token: SendToken | None = None


@dataclass
class SendHandle:
    """Returned by :meth:`GMPort.send`; ``done`` fires on full ack."""

    token: SendToken
    done: SimEvent
    posted_at: float = 0.0

    @property
    def completed_at(self) -> float:
        if not self.done.triggered:
            raise RuntimeError("send not yet complete")
        return self.done.value


@dataclass
class RecvCompletion:
    """A fully received message, as reported to the host."""

    src: int
    src_port: int
    size: int
    msg_id: int
    group: int | None = None
    received_at: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)


class GMPort:
    """A GM communication endpoint on one NIC."""

    def __init__(self, engine: "GMEngine", port_num: int, owner: Any):
        self.engine = engine
        self.nic = engine.nic
        self.sim = engine.nic.sim
        self.cost = engine.cost
        self.port_num = port_num
        self.owner = owner
        # Both token pools are created on first use.  Send tokens:
        # returned ones are reused LIFO, and ``_fresh_send`` counts the
        # ones never handed out.
        self._free_send_tokens: list[SendToken] = []
        self._fresh_send = self.cost.send_tokens_per_port
        # deque: tokens are claimed FIFO once per received message and
        # 64 are preposted per port, so list.pop(0) shifting adds up.
        self._recv_tokens: deque[ReceiveToken] = deque()
        #: Zero-size preposted receive tokens not yet created.  They sit
        #: at the head of the queue, so ``_recv_tokens`` only fills once
        #: this is zero.
        self._preposted = 0
        self.event_queue: Store = Store(
            self.sim, name=f"port{engine.nic.id}.{port_num}.events"
        )
        #: completion events keyed by token_id, fired by the engine
        self._completions: dict[int, SendHandle] = {}
        self.sends_posted = 0
        self.sends_completed = 0
        self.messages_received = 0

    # -- protection -----------------------------------------------------------
    def _check_owner(self, caller: Any) -> None:
        if caller is not None and caller is not self.owner:
            raise ProtectionError(
                f"process {caller!r} attempted to use port "
                f"{self.nic.id}:{self.port_num} owned by {self.owner!r}"
            )

    # -- token pools (engine-facing) --------------------------------------------
    @property
    def free_send_tokens(self) -> int:
        return len(self._free_send_tokens) + self._fresh_send

    @property
    def free_recv_tokens(self) -> int:
        return len(self._recv_tokens) + self._preposted

    def take_send_token(self) -> SendToken:
        """Host side: claim a free send token, or raise
        :class:`TokenExhausted` (GM's behaviour when none is left)."""
        if self._free_send_tokens:
            return self._free_send_tokens.pop()
        if self._fresh_send:
            self._fresh_send -= 1
            return SendToken(self.port_num)
        raise TokenExhausted(
            f"port {self.nic.id}:{self.port_num} has no free send tokens"
        )

    def take_recv_token(self) -> ReceiveToken | None:
        """NIC side: claim a preposted receive buffer, if any."""
        if self._recv_tokens:
            return self._recv_tokens.popleft()
        if self._preposted:
            self._preposted -= 1
            return ReceiveToken(self.port_num)
        return None

    def prepost(self, count: int) -> None:
        """Set-up only: loan the NIC *count* zero-size receive buffers at
        no host cost.  Each is created when the NIC claims it."""
        if self._recv_tokens:  # queue behind the buffers already posted
            self._recv_tokens.extend(
                ReceiveToken(self.port_num) for _ in range(count)
            )
        else:
            self._preposted += count

    def return_recv_token(self, token: ReceiveToken) -> None:
        """NIC side: a transformed token's duties are over — it is consumed
        (the host buffer now holds the delivered message); nothing returns
        to the pool until the host reposts."""
        token.transformed = False

    def complete_send(self, token: SendToken) -> None:
        """NIC side: all packets of *token* acknowledged."""
        handle = self._completions.pop(token.token_id, None)
        self.sends_completed += 1
        self._free_send_tokens.append(token)
        if handle is not None:
            handle.done.succeed(self.sim.now)

    def deliver_event(self, completion: RecvCompletion) -> None:
        """NIC side: enqueue a receive event for the host."""
        self.messages_received += 1
        self.event_queue.put(completion)

    # -- host-facing operations ---------------------------------------------------
    def send(
        self,
        dst: int,
        size: int,
        dst_port: int = 0,
        region: "RegisteredRegion | None" = None,
        info: Any = None,
        caller: Any = None,
    ) -> Generator[SimEvent, Any, SendHandle]:
        """Post a unicast send.  Raises :class:`TokenExhausted` if the
        port has no free send tokens (GM's behaviour); callers that prefer
        to block can wait on completions and retry."""
        self._check_owner(caller)
        if size < 0:
            raise ValueError(f"negative send size {size}")
        token = self.take_send_token()
        token.arm(dst, dst_port, size, region)
        if info is not None:
            token.context["info"] = info
        if region is not None:
            region.pin()
        handle = SendHandle(
            token=token, done=self.sim.event(), posted_at=self.sim.now
        )
        self._completions[token.token_id] = handle
        self.sends_posted += 1
        yield self.sim.timeout(self.cost.host_send_post)
        self.nic.post_command(SendCommand(port=self.port_num, token=token))
        return handle

    def provide_receive_buffer(
        self, count: int = 1, size: int | None = None, caller: Any = None
    ) -> Generator[SimEvent, Any, None]:
        """Prepost *count* receive buffers (receive tokens)."""
        self._check_owner(caller)
        if count < 1:
            raise ValueError("count must be >= 1")
        yield self.sim.timeout(self.cost.host_recv_post * count)
        if self._preposted:  # create them now so they stay ahead of these
            self._recv_tokens.extend(
                ReceiveToken(self.port_num) for _ in range(self._preposted)
            )
            self._preposted = 0
        self._recv_tokens.extend(
            ReceiveToken(self.port_num, size=size or 0) for _ in range(count)
        )

    def receive(self, caller: Any = None) -> Generator[SimEvent, Any, RecvCompletion]:
        """Block until the next message arrives on this port."""
        self._check_owner(caller)
        completion = yield self.event_queue.get()
        yield self.sim.timeout(self.cost.host_event_dispatch)
        return completion

    def try_receive(self, caller: Any = None) -> RecvCompletion | None:
        """Non-blocking poll of the event queue (no host cost charged)."""
        self._check_owner(caller)
        if len(self.event_queue):
            ev = self.event_queue.get()
            assert ev.triggered
            return ev.value
        return None

    def __repr__(self) -> str:
        return (
            f"<GMPort {self.nic.id}:{self.port_num} "
            f"stok={self.free_send_tokens} rtok={self.free_recv_tokens}>"
        )

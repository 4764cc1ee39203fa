"""The paper's reliability family: cumulative ACK window + Go-back-N.

Receivers accept strictly in sequence and acknowledge cumulatively on
every accept; anything below the window is a duplicate (re-acked so a
lost ack cannot wedge the sender), anything above is dropped and
recovered by the sender's timeout sweep.  Every hook is a pure decision
or a single state write — zero simulated events — so the transport's
inline cost/ack sequence (and therefore the golden traces) is
byte-identical to the pre-refactor code.

This is the family that drives GM *unicast*: the receiver hooks only
touch ``recv_seq``, which a GM ``Connection`` has too, and the sender's
timeout sweep runs on the connection's one child, the peer.
"""

from __future__ import annotations

from typing import Any

from repro.proto.engines import EngineFamily, register_engine
from repro.proto.engines.base import ReceiverEngine, SenderEngine

__all__ = ["AckWindowReceiver", "AckWindowSender"]


class AckWindowReceiver(ReceiverEngine):
    """In-order accept, cumulative ack on every accept."""

    __slots__ = ()
    name = "ack_window"

    def classify(self, group: Any, h: Any) -> str:
        if h.seq <= group.recv_seq:
            return "duplicate"
        if h.seq != group.recv_seq + 1:
            return "drop"  # Go-back-N receivers drop and wait
        return "accept"

    def on_accept(self, group: Any, h: Any) -> None:
        group.recv_seq = h.seq

    # ack_after_accept: inherited True — ack every accepted packet.


class AckWindowSender(SenderEngine):
    """Sender side is entirely the inherited timeout sweep; every other
    hook keeps its zero-event default."""

    __slots__ = ()
    name = "ack_window"


register_engine(EngineFamily(
    name="ack_window",
    title="Cumulative ACK window + Go-back-N (paper §4/§5)",
    sender_cls=AckWindowSender,
    receiver_cls=AckWindowReceiver,
))

"""The transport-agnostic reliability core (paper §5, once).

The paper's central reliability design — per-connection sequence
numbers, send records with timestamps, ack-driven record retirement,
timer-driven Go-back-N retransmission — is the *same machinery* whether
the window belongs to a GM unicast connection or a multicast group's
child array.  This package implements that machinery exactly once:

* :class:`SendWindow` — the table of unacknowledged send records, with
  cumulative-ack retirement (:meth:`SendWindow.ack_cumulative`), the
  multicast per-child variant (:meth:`SendWindow.ack_from_child`), and
  oldest-unacked tracking;
* :class:`RetransmitTimer` — one timer object per window.  It keeps at
  most **one** callback in the event heap however many records are
  outstanding, tracking per-record deadlines and lazily rescheduling,
  where the previous per-record ``call_at(lambda …)`` pattern left a
  dead closure in the heap for every (re)arm;
* the reliability families of :mod:`repro.proto.engines` — what gets
  resent once the oldest unacked record expires.  The one per-laggard
  Go-back-N sweep is :meth:`SenderEngine.on_timeout
  <repro.proto.engines.base.SenderEngine.on_timeout>`; GM unicast is
  its one-child case.  A new strategy (selective repeat, adaptive
  backoff) is a new family, not another copy of the sweep loop;
* :func:`send_ack` / :func:`build_ack_packet` — the single cumulative
  ack builder behind both the GM ACK and the multicast MCAST_ACK.

Layering: ``repro.proto`` sits between the device models and the
protocol engines (``sim → net/nic → proto → gm/mcast``).  It must not
import anything from ``repro.gm`` or ``repro.mcast`` — the import-
layering CI check (`tools/check_layering.py`) enforces this.
"""

from repro.proto.timer import RetransmitTimer
from repro.proto.window import NEVER, SendWindow
from repro.proto.wire import build_ack_packet, send_ack

__all__ = [
    "NEVER",
    "RetransmitTimer",
    "SendWindow",
    "build_ack_packet",
    "send_ack",
]

"""Crossbar switch model.

Myrinet switches are wormhole-routed crossbars: a packet head is routed to
an output port after a small fixed delay, and the body streams behind it.
We model the switch structurally — it owns ports and contributes its
``hop_latency`` to every traversal — while channel contention lives on the
:class:`~repro.net.link.Link` occupancy of its attached cables (DESIGN.md
§3.2 explains why this packet-granularity cut-through model preserves the
behaviour the paper's protocols can observe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["CrossbarSwitch", "PortRef"]


@dataclass(frozen=True, slots=True)
class PortRef:
    """A (device, port-index) endpoint for a cable."""

    device: Union["CrossbarSwitch", int]  # switch object or NIC network id
    port: int


class CrossbarSwitch:
    """A radix-``radix`` crossbar switch.

    Ports are attached via :meth:`attach`; traversal timing uses
    ``hop_latency``.  The class tracks per-port peers so topology builders
    can validate wiring and experiments can introspect the fabric.
    """

    __slots__ = ("switch_id", "radix", "hop_latency", "_peers", "_lowest_free")

    def __init__(self, switch_id: int, radix: int, hop_latency: float):
        if radix < 2:
            raise ValueError(f"switch radix must be >= 2, got {radix}")
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        self.switch_id = switch_id
        self.radix = radix
        self.hop_latency = hop_latency
        self._peers: dict[int, PortRef] = {}
        #: No port below this index is free.  Ports are never unwired,
        #: so the lowest free port only moves up.
        self._lowest_free = 0

    @property
    def ports_used(self) -> int:
        return len(self._peers)

    @property
    def free_ports(self) -> list[int]:
        return [p for p in range(self.radix) if p not in self._peers]

    def first_free_port(self) -> int | None:
        """The lowest unwired port, or ``None`` when the switch is full.

        Amortised O(1) over a switch's wiring: the scan resumes where
        the last one stopped.
        """
        port = self._lowest_free
        while port in self._peers:
            port += 1
        self._lowest_free = port
        return port if port < self.radix else None

    def attach(self, port: int, peer: PortRef) -> None:
        """Wire *port* to *peer* (a NIC id or another switch's port)."""
        if not 0 <= port < self.radix:
            raise ValueError(
                f"port {port} out of range for radix-{self.radix} switch"
            )
        if port in self._peers:
            raise ValueError(f"port {port} already wired on switch {self.switch_id}")
        self._peers[port] = peer

    def peer(self, port: int) -> PortRef:
        return self._peers[port]

    def peers(self) -> dict[int, PortRef]:
        return dict(self._peers)

    def __repr__(self) -> str:
        return (
            f"<CrossbarSwitch {self.switch_id} radix={self.radix} "
            f"used={self.ports_used}>"
        )

"""Pluggable reliability engines (the ``ReliabilityEngine`` seam).

The paper's §5 reliability design — cumulative acks retiring a send
window, a per-window timer driving Go-back-N — is one *family* of
reliability protocol.  This package turns the family choice into a
registry, mirroring the multicast scheme registry
(:mod:`repro.mcast.schemes`): each family is a
(:class:`~repro.proto.engines.base.SenderEngine`,
:class:`~repro.proto.engines.base.ReceiverEngine`) class pair registered
under a name.  The multicast reliability component selects a family
*by name* per group, the GM unicast engine always runs ``ack_window``,
and both drive it only through the base-class hooks.

Families shipped here:

``ack_window``
    The paper's protocol: receivers accept strictly in order, ack
    cumulatively on every accept, senders retire records from the ack
    stream and sweep Go-back-N on timeout.  The hooks are pure
    decisions — porting the existing path onto them is byte-identical.
    It is also the family behind GM unicast.
``nack``
    Receiver-detected gaps: receivers accept out of order, report
    missing sequences to the parent on a jittered suppression timer
    (avoiding NACK implosion at high fan-out), and the sender multicasts
    repairs to every laggard child.  Acks become rare (message
    boundaries and duplicates only); the inherited Go-back-N sweep
    survives as the fallback for total loss.
``nack_fec``
    ``nack`` plus sender-emitted XOR parity over ``fec_block``-packet
    groups: a receiver missing exactly one packet of a block
    reconstructs it locally, with no repair round-trip at all.

Layering: engines live *below* the protocol transports.  They may use
:mod:`repro.sim`, :mod:`repro.net`, and :mod:`repro.nic`, and they talk
to their transport only through the duck-typed adapter described in
:mod:`repro.proto.engines.base` — importing :mod:`repro.gm` or
:mod:`repro.mcast` from here is a layering violation
(`tools/check_layering.py` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EngineFamily",
    "available_engines",
    "get_engine",
    "register_engine",
    "ReceiverEngine",
    "SenderEngine",
]


@dataclass(frozen=True)
class EngineFamily:
    """Registry entry for one reliability family."""

    name: str
    title: str
    sender_cls: type
    receiver_cls: type
    #: default values for every tunable the family understands; a
    #: group's ``reliability_params`` override per key
    defaults: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, EngineFamily] = {}


def register_engine(family: EngineFamily) -> EngineFamily:
    """Add *family* to the registry (name must be unused)."""
    if family.name in _REGISTRY:
        raise ValueError(
            f"reliability family {family.name!r} already registered"
        )
    _REGISTRY[family.name] = family
    return family


def available_engines() -> tuple[str, ...]:
    """All registered family names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> EngineFamily:
    """Look up a family by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown reliability family {name!r} "
            f"(available: {', '.join(available_engines())})"
        ) from None


# Base classes re-exported for transports and third-party families.
from repro.proto.engines.base import (  # noqa: E402
    ReceiverEngine,
    SenderEngine,
)

# The shipped families register themselves on import.
from repro.proto.engines import ack_window as _ack_window  # noqa: E402,F401
from repro.proto.engines import nack as _nack  # noqa: E402,F401
from repro.proto.engines import nack_fec as _nack_fec  # noqa: E402,F401

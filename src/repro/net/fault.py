"""Packet-loss injection.

"Though bit error-rates are low in modern networks, they are not zero"
(paper §2) — this module is the synthetic stand-in for those errors.  A
packet failing its CRC is silently dropped by the receiving NIC, which is
exactly how a loss manifests to GM; the reliability layer's ACK/timeout
machinery must recover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.codec import Codec
from repro.errors import ConfigError
from repro.net.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "LossModel",
    "LossSpec",
    "NoLoss",
    "BernoulliLoss",
    "BitErrorLoss",
    "ScriptedLoss",
    "CompositeLoss",
    "LOSS_KINDS",
]

#: Loss kinds a declarative :class:`LossSpec` can name.  ``ScriptedLoss``
#: and ``CompositeLoss`` carry arbitrary callables/sub-models and are
#: deliberately not serializable — tests construct them directly.
LOSS_KINDS = ("none", "bernoulli", "bit_error")


class LossModel:
    """Decides, per delivery, whether a packet is dropped."""

    def should_drop(self, packet: Packet, now: float) -> bool:
        raise NotImplementedError

    def bind(self, sim: "Simulator") -> None:
        """Attach simulator context (RNG streams).  Default: nothing."""


class NoLoss(LossModel):
    """The perfect network (default)."""

    def should_drop(self, packet: Packet, now: float) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Drop each packet independently with probability *rate*.

    ``kinds`` restricts the loss to specific packet types (e.g. only data,
    or only acks — useful for exercising distinct retransmission paths).

    The RNG normally comes from the simulator's named stream at
    :meth:`bind` time (keeping loss decisions reproducible per seed and
    independent of other random consumers).  ``seed`` provides a private
    fallback RNG for standalone use — sampling a model outside any
    simulator, or before a network binds it; a later ``bind`` replaces
    the fallback with the simulator's stream.
    """

    def __init__(
        self,
        rate: float,
        kinds: Iterable[PacketType] | None = None,
        stream: str = "loss",
        seed: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.stream = stream
        self._rng: random.Random | None = (
            random.Random(seed) if seed is not None else None
        )
        self.dropped = 0

    def bind(self, sim: "Simulator") -> None:
        self._rng = sim.rng(self.stream)

    def should_drop(self, packet: Packet, now: float) -> bool:
        if self._rng is None:
            raise RuntimeError("BernoulliLoss used before bind()")
        if self.kinds is not None and packet.header.ptype not in self.kinds:
            return False
        if self._rng.random() < self.rate:
            self.dropped += 1
            return True
        return False


class BitErrorLoss(BernoulliLoss):
    """Loss derived from a bit-error rate: p(drop) = 1 - (1 - ber)^bits.

    Larger packets are proportionally likelier to be corrupted, which is
    the physically faithful model for the paper's reliability argument.
    """

    def __init__(
        self, ber: float, stream: str = "loss", seed: int | None = None
    ):
        super().__init__(rate=0.0, stream=stream, seed=seed)
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"bit error rate must be in [0, 1), got {ber}")
        self.ber = ber

    def should_drop(self, packet: Packet, now: float) -> bool:
        if self._rng is None:
            raise RuntimeError("BitErrorLoss used before bind()")
        bits = packet.wire_size * 8
        p_drop = 1.0 - (1.0 - self.ber) ** bits
        if self._rng.random() < p_drop:
            self.dropped += 1
            return True
        return False


class ScriptedLoss(LossModel):
    """Deterministic drops chosen by a predicate, each at most *times* times.

    The workhorse for protocol tests: "drop the first transmission of
    seq 3 from node 0 to node 5, then let the retransmit through".
    """

    def __init__(self, predicate: Callable[[Packet], bool], times: int = 1):
        self.predicate = predicate
        self.times = times
        self.dropped = 0

    def should_drop(self, packet: Packet, now: float) -> bool:
        if self.dropped >= self.times:
            return False
        if self.predicate(packet):
            self.dropped += 1
            return True
        return False


class CompositeLoss(LossModel):
    """Drop if *any* sub-model says drop."""

    def __init__(self, models: Iterable[LossModel]):
        self.models = list(models)

    def bind(self, sim: "Simulator") -> None:
        for m in self.models:
            m.bind(sim)

    def should_drop(self, packet: Packet, now: float) -> bool:
        # Evaluate all (no short-circuit) so RNG streams stay aligned.
        return any([m.should_drop(packet, now) for m in self.models])


@dataclass(frozen=True)
class LossSpec(Codec):
    """Declarative, JSON-serializable selection of a :class:`LossModel`.

    This is the form scenario specs and :class:`~repro.config.ClusterConfig`
    carry (a live model holds an RNG and drop counters, so it cannot be
    frozen into a config); :meth:`build` instantiates a fresh model per
    cluster.  ``packet_types`` restricts a Bernoulli loss to the named
    :class:`~repro.net.packet.PacketType` members (e.g. ``["MCAST_DATA"]``).
    """

    kind: str = "none"
    rate: float = 0.0  #: per-packet drop probability (``bernoulli``)
    ber: float = 0.0  #: bit error rate (``bit_error``)
    packet_types: tuple[str, ...] | None = None
    stream: str = "loss"

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ConfigError(
                f"unknown loss kind {self.kind!r}; pick one of {LOSS_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"loss rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.ber < 1.0:
            raise ConfigError(f"bit error rate must be in [0, 1), got {self.ber}")
        if self.packet_types is not None:
            object.__setattr__(
                self, "packet_types", tuple(self.packet_types)
            )
            for name in self.packet_types:
                if name not in PacketType.__members__:
                    raise ConfigError(
                        f"unknown packet type {name!r} in loss spec "
                        f"(known: {', '.join(PacketType.__members__)})"
                    )

    def build(self) -> LossModel | None:
        """A fresh loss model (``None`` for the perfect network)."""
        if self.kind == "none":
            return None
        if self.kind == "bernoulli":
            kinds = (
                [PacketType[name] for name in self.packet_types]
                if self.packet_types is not None
                else None
            )
            return BernoulliLoss(self.rate, kinds=kinds, stream=self.stream)
        return BitErrorLoss(self.ber, stream=self.stream)

"""Cluster configuration."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.codec import Codec
from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.net.failure import FailureSpec
from repro.net.fault import LossSpec

__all__ = [
    "ClusterConfig",
    "TOPOLOGIES",
    "KNOWN_EXTRAS",
    "register_extra_key",
]

TOPOLOGIES = ("single", "clos", "line")

#: Keys :attr:`ClusterConfig.extras` is allowed to carry without a
#: warning.  Experiments that consume an extra register its key here (at
#: import time) so that scenario specs fail loudly on typos instead of
#: silently ignoring a misspelled knob.
KNOWN_EXTRAS: set[str] = set()


def register_extra_key(key: str) -> str:
    """Declare *key* a consumed ``extras`` knob (returns it unchanged)."""
    KNOWN_EXTRAS.add(key)
    return key


@dataclass(frozen=True)
class ClusterConfig(Codec):
    """Everything needed to build a :class:`~repro.cluster.Cluster`.

    Attributes
    ----------
    n_nodes:
        Number of nodes (each a host + NIC).
    cost:
        Timing constants; defaults to the paper's testbed preset.
    topology:
        ``"single"`` (one crossbar), ``"clos"`` (two-level Clos above 16
        nodes, single switch at or below — Myrinet's default), or
        ``"line"`` (chained switches, for stress tests).
    seed:
        Master RNG seed (skew draws, loss draws, ...).
    trace:
        Record structured trace events (needed by the Fig. 2 experiment).
    prepost_recv_tokens:
        Receive buffers preposted on every port at construction, before
        simulated time starts (the paper's tests assume receivers are
        ready; replenishment during a run pays normal host costs).
    clos_radix:
        Crossbar radix for the Clos builder.
    loss:
        Declarative packet-loss selection (:class:`~repro.net.fault.LossSpec`);
        ``None`` is the perfect network.  The cluster builds a fresh
        model from it, so serialized scenario specs can express the
        Fig. 7-style loss sweeps without an out-of-band ``Cluster(...,
        loss=)`` argument (which still works and takes precedence, for
        non-serializable models such as ``ScriptedLoss``).
    failures:
        Declarative topology-failure schedule
        (:class:`~repro.net.failure.FailureSpec`); ``None`` means links
        and switches stay up.  The cluster builds a
        :class:`~repro.net.failure.FailureInjector` from it at
        construction.
    extras:
        Free-form knobs for experiments.  Keys must be registered via
        :func:`register_extra_key` where they are consumed; unknown keys
        warn at construction so typos surface instead of no-op'ing.
    """

    n_nodes: int = 16
    cost: GMCostModel = field(default_factory=GMCostModel.lanai9)
    topology: str = "clos"
    seed: int = 0
    trace: bool = False
    prepost_recv_tokens: int = 64
    clos_radix: int = 16
    loss: LossSpec | None = None
    failures: FailureSpec | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; pick one of {TOPOLOGIES}"
            )
        if self.prepost_recv_tokens < 0:
            raise ConfigError("prepost_recv_tokens must be >= 0")
        if self.prepost_recv_tokens > self.cost.recv_tokens_per_port:
            raise ConfigError(
                "cannot prepost more receive tokens than the port owns "
                f"({self.prepost_recv_tokens} > {self.cost.recv_tokens_per_port})"
            )
        if self.loss is not None and not isinstance(self.loss, LossSpec):
            raise ConfigError(
                "ClusterConfig.loss takes a declarative LossSpec; pass a "
                "live LossModel via Cluster(config, loss=...) instead"
            )
        if self.failures is not None and not isinstance(
            self.failures, FailureSpec
        ):
            raise ConfigError(
                "ClusterConfig.failures takes a declarative FailureSpec"
            )
        unknown = set(self.extras) - KNOWN_EXTRAS
        if unknown:
            warnings.warn(
                f"unknown ClusterConfig.extras key(s): "
                f"{', '.join(sorted(unknown))} — no experiment consumes "
                "them (register_extra_key declares consumed keys)",
                stacklevel=2,
            )

"""Scenario specifications: frozen, JSON-serializable experiment points.

A :class:`ScenarioSpec` is the declarative form of one measurement the
paper's evaluation grid contains — and of any workload beyond it
(different schemes, tree shapes, group subsets, loss models, skew).  It
bundles three parts:

* ``cluster`` — a :class:`~repro.config.ClusterConfig`, including the
  declarative loss spec (so Fig. 7-style loss sweeps serialize);
* ``workload`` — what the nodes run: a scheme key from the multicast
  registry (or the MPI-level NIC/host choice), tree shape, group
  membership, process skew;
* ``measurement`` — how it is timed: message sizes, iterations, warmup.

Everything round-trips through JSON (``to_json``/``from_json``, built
on the shared :class:`~repro.codec.Codec`), which is what lets sweep
cells carry their spec into pool workers and lets
``python -m repro.experiments --scenario spec.json`` run user-written
scenarios without a figure module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

from repro.codec import Codec
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.mcast.schemes import BoundScheme, get_scheme, resolve_scheme
from repro.net.failure import FailureSpec
from repro.net.fault import LossSpec
from repro.trees import TREE_SHAPES

__all__ = [
    "ScenarioSpec",
    "WorkloadSpec",
    "MeasurementSpec",
    "TelemetrySpec",
    "TrafficSpec",
    "PartitionSpec",
    "ReliabilitySpec",
    "PARTITIONABLE_KINDS",
    "ARRIVAL_KINDS",
    "WORKLOAD_KINDS",
    "METRIC_BY_KIND",
    "PAPER_SIZES",
    "MPI_SIZES",
    "QUICK_SIZES",
    "QUICK_MAX_SKEWS",
    "unicast_point",
    "multisend_point",
    "multicast_point",
    "mpi_bcast_point",
    "broadcast_point",
    "skew_point",
    "serving_point",
]

#: Message sizes swept in the paper's GM-level figures (lists, as the
#: figure modules slice and concatenate them).
PAPER_SIZES = [1, 4, 16, 64, 256, 512, 1024, 2048, 4096, 8192, 16384]
#: MPI-level sweep ends at the largest eager message.
MPI_SIZES = [1, 4, 16, 64, 256, 512, 1024, 2048, 4096, 8192, 16287]

#: The canonical quick-mode size lists (one per sweep family; formerly
#: scattered across fig3-fig7).  Quick mode trades sweep resolution for
#: wall-clock — endpoints and the regime transitions stay, interior
#: points go; see EXPERIMENTS.md ("Quick vs full sweeps").
QUICK_SIZES: dict[str, list[int]] = {
    "multisend": [1, 64, 512, 4096, 16384],  # fig3
    "multicast": [1, 512, 4096, 16384],  # fig5
    "mpi_bcast": [4, 512, 8192, 16287],  # fig4
}
#: Quick-mode max-skew sweep (fig6); full mode uses fig6.MAX_SKEWS.
QUICK_MAX_SKEWS = (0.0, 800.0, 3200.0)

WORKLOAD_KINDS = (
    "unicast", "multisend", "multicast", "mpi_bcast", "mpi_skew",
    "serving", "broadcast",
)

#: Workload kinds the sharded kernel (:mod:`repro.sim.parallel`) can
#: decompose.  The others coordinate through host-side state that is
#: global by construction — the iterated multicast kinds share a
#: per-round completion event across all receivers, and churn rewrites
#: group membership on arbitrary shards mid-run.  ``broadcast`` is the
#: one-shot multicast shape: no round barrier, so each shard just runs
#: its local members to quiescence.
PARTITIONABLE_KINDS = ("unicast", "multisend", "serving", "broadcast")

#: Arrival processes a :class:`TrafficSpec` can declare.
ARRIVAL_KINDS = ("poisson", "trace")

#: The metric each workload kind reports (the paper's methodology).
METRIC_BY_KIND = {
    "unicast": "one_way_latency_us",
    "multisend": "last_ack_latency_us",
    "multicast": "max_leaf_delivery_plus_ack_us",
    "mpi_bcast": "bcast_latency_plus_ack_us",
    "mpi_skew": "bcast_cpu_time_us",
    "serving": "delivered_msgs_per_sec",
    "broadcast": "completion_time_us",
}

#: MPI-level scheme spellings -> "use the NIC-based broadcast".
_MPI_SCHEMES = {
    "nic": True, "nb": True, "nic_based": True,
    "host": False, "hb": False, "host_based": False,
}

#: resolve_scheme context per workload kind (the legacy nb/hb dialects).
_SCHEME_CONTEXT = {
    "multisend": "multisend",
    "multicast": "multicast",
    "serving": "multicast",
    "broadcast": "multicast",
}


@dataclass(frozen=True)
class WorkloadSpec(Codec):
    """What the nodes run.

    ``scheme`` is a multicast-registry key (canonical or the legacy
    ``nb``/``hb`` spellings) for GM-level kinds, or ``nic``/``host`` for
    the MPI-level kinds.  ``group`` restricts the destination set (default:
    every non-root node).  ``max_skew`` is the ``mpi_skew`` draw range
    (uniform in [-max/2, +max/2], the paper's §6.3 loop).
    """

    kind: str
    scheme: str = "nic_based"
    tree_shape: str | None = None
    group: tuple[int, ...] | None = None
    root: int = 0
    max_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigError(
                f"unknown workload kind {self.kind!r}; "
                f"pick one of {WORKLOAD_KINDS}"
            )
        if self.kind in _SCHEME_CONTEXT:
            try:
                resolve_scheme(self.scheme, context=_SCHEME_CONTEXT[self.kind])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        elif self.kind in ("mpi_bcast", "mpi_skew"):
            if self.scheme not in _MPI_SCHEMES:
                raise ConfigError(
                    f"unknown MPI scheme {self.scheme!r}; pick one of "
                    f"{', '.join(sorted(_MPI_SCHEMES))}"
                )
        if self.tree_shape is not None and self.tree_shape not in TREE_SHAPES:
            raise ConfigError(
                f"unknown tree shape {self.tree_shape!r}; "
                f"pick one of {tuple(TREE_SHAPES)}"
            )
        if self.root < 0:
            raise ConfigError(f"root must be >= 0, got {self.root}")
        if self.max_skew < 0:
            raise ConfigError(f"max_skew must be >= 0, got {self.max_skew}")
        if self.group is not None:
            object.__setattr__(self, "group", tuple(self.group))
            if self.root in self.group:
                raise ConfigError(
                    f"root {self.root} must not be in the group"
                )
            if any(m < 0 for m in self.group):
                raise ConfigError("group members must be >= 0")
            if len(set(self.group)) != len(self.group):
                raise ConfigError("group members must be distinct")

    @property
    def canonical_scheme(self) -> str:
        """The registry key (GM kinds) or ``nic``/``host`` (MPI kinds)."""
        if self.kind in _SCHEME_CONTEXT:
            return resolve_scheme(
                self.scheme, context=_SCHEME_CONTEXT[self.kind]
            )
        if self.kind in ("mpi_bcast", "mpi_skew"):
            return "nic" if _MPI_SCHEMES[self.scheme] else "host"
        return self.scheme

    @property
    def nic(self) -> bool:
        """MPI kinds: whether the NIC-based broadcast is selected."""
        return _MPI_SCHEMES.get(self.scheme, True)


@dataclass(frozen=True)
class TelemetrySpec(Codec):
    """Flight-recorder / time-series request riding on a measurement.

    ``sample`` is the fraction of root messages traced by the flight
    recorder (:mod:`repro.obs.flight`), ``cap`` its ring-buffer event
    capacity, ``interval_us`` the time-series window
    (:mod:`repro.obs.timeseries`; only meaningful for serving runs).
    Declaring telemetry in a spec does not by itself attach anything —
    recorders are built and attached by the obs layer (the scenario
    layer stays observer-free), so a detached run of the same spec is
    byte-identical.
    """

    sample: float = 1.0
    cap: int = 1 << 18
    interval_us: float = 1000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample <= 1.0:
            raise ConfigError(
                f"telemetry sample must be in [0, 1], got {self.sample}"
            )
        if self.cap < 1:
            raise ConfigError(f"telemetry cap must be >= 1, got {self.cap}")
        if self.interval_us <= 0:
            raise ConfigError(
                f"telemetry interval_us must be > 0, got {self.interval_us}"
            )


@dataclass(frozen=True)
class MeasurementSpec(Codec):
    """How a workload is timed (the paper's loop shape)."""

    sizes: tuple[int, ...] = (0,)
    iterations: int = 30
    warmup: int = 5
    metric: str = ""  #: informational; defaults to the kind's metric
    #: optional telemetry request (see :class:`TelemetrySpec`)
    telemetry: TelemetrySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ConfigError("measurement needs at least one message size")
        if any(not isinstance(s, int) or s < 0 for s in self.sizes):
            raise ConfigError(f"sizes must be ints >= 0, got {self.sizes}")
        if self.iterations < 1:
            raise ConfigError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.metric and self.metric not in METRIC_BY_KIND.values():
            raise ConfigError(
                f"unknown metric {self.metric!r}; known: "
                f"{', '.join(sorted(set(METRIC_BY_KIND.values())))}"
            )


@dataclass(frozen=True)
class TrafficSpec(Codec):
    """Sustained serving traffic: many groups, continuous arrivals.

    The serving workload (``kind="serving"``) runs ``n_groups``
    concurrent multicast groups over one cluster for ``duration_us``
    simulated microseconds.  Each group's root posts messages with
    seeded Poisson inter-arrival gaps (``arrival="poisson"``, mean rate
    ``rate_per_group`` messages/µs) or replays an explicit arrival
    trace (``arrival="trace"``, ``trace_arrivals`` of
    ``(time_us, group_index)`` pairs).  ``schemes`` are multicast
    registry keys cycled across groups; ``sizes`` are cycled across a
    group's messages.  ``churn_interval_us > 0`` adds membership churn:
    a seeded process picks a group at mean exponential gaps and rotates
    one member out for a spare node (applied between that group's
    sends, so reliability state never straddles a membership change).
    Deliveries inside ``warmup_us`` are excluded from the stats.
    """

    duration_us: float = 50_000.0
    n_groups: int = 4
    group_size: int = 3
    arrival: str = "poisson"
    rate_per_group: float = 1e-3  #: messages per µs per group (poisson)
    trace_arrivals: tuple[tuple[float, int], ...] | None = None
    sizes: tuple[int, ...] = (1024,)
    schemes: tuple[str, ...] = ("nic_based",)
    churn_interval_us: float = 0.0  #: mean µs between churn events; 0 = off
    warmup_us: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ConfigError(
                f"duration_us must be > 0, got {self.duration_us}"
            )
        if self.n_groups < 1:
            raise ConfigError(f"n_groups must be >= 1, got {self.n_groups}")
        if self.group_size < 1:
            raise ConfigError(
                f"group_size must be >= 1, got {self.group_size}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.arrival!r}; "
                f"pick one of {ARRIVAL_KINDS}"
            )
        if self.arrival == "poisson" and self.rate_per_group <= 0:
            raise ConfigError(
                f"rate_per_group must be > 0, got {self.rate_per_group}"
            )
        if self.arrival == "trace":
            if not self.trace_arrivals:
                raise ConfigError(
                    "arrival='trace' needs a non-empty trace_arrivals"
                )
            object.__setattr__(
                self,
                "trace_arrivals",
                tuple((float(t), int(g)) for t, g in self.trace_arrivals),
            )
            for t, g in self.trace_arrivals:
                if t < 0:
                    raise ConfigError(f"trace arrival time {t} < 0")
                if not 0 <= g < self.n_groups:
                    raise ConfigError(
                        f"trace arrival group {g} outside "
                        f"[0, {self.n_groups})"
                    )
        elif self.trace_arrivals is not None:
            raise ConfigError(
                "trace_arrivals requires arrival='trace'"
            )
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ConfigError("traffic needs at least one message size")
        if any(not isinstance(s, int) or s < 0 for s in self.sizes):
            raise ConfigError(f"sizes must be ints >= 0, got {self.sizes}")
        if not self.schemes:
            raise ConfigError("traffic needs at least one scheme")
        try:
            object.__setattr__(
                self,
                "schemes",
                tuple(
                    resolve_scheme(s, context="multicast")
                    for s in self.schemes
                ),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for key in self.schemes:
            if get_scheme(key).cls.post is BoundScheme.post:
                raise ConfigError(
                    f"scheme {key!r} cannot drive sustained traffic "
                    "(it only supports one-shot run_once)"
                )
        if self.churn_interval_us < 0:
            raise ConfigError(
                f"churn_interval_us must be >= 0, "
                f"got {self.churn_interval_us}"
            )
        if not 0 <= self.warmup_us < self.duration_us:
            raise ConfigError(
                f"warmup_us must be in [0, duration_us), "
                f"got {self.warmup_us}"
            )


@dataclass(frozen=True)
class PartitionSpec(Codec):
    """Sharded-kernel execution request (:mod:`repro.sim.parallel`).

    ``shards`` simulators run the scenario conservatively in parallel;
    ``partitioner`` assigns nodes to shards (``"contiguous"`` id ranges
    or ``"switch_affine"``, which keeps each leaf switch's NICs
    together — fewer cut links, so less handoff traffic); ``seed``
    deterministically varies the switch-affine placement order.
    ``processes`` picks one-OS-process-per-shard execution over the
    in-process conductor (identical results; the in-process form is the
    determinism reference and the cheaper choice for small shard
    counts).
    """

    shards: int = 2
    partitioner: str = "switch_affine"
    seed: int = 0
    processes: bool = False

    def __post_init__(self) -> None:
        from repro.sim.parallel import PARTITIONERS

        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {self.partitioner!r}; "
                f"pick one of {PARTITIONERS}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


#: Workload kinds that drive the multicast reliability stack (a
#: ``reliability`` section is meaningless for unicast / MPI kinds).
_RELIABILITY_KINDS = ("multisend", "multicast", "serving", "broadcast")


@dataclass(frozen=True)
class ReliabilitySpec(Codec):
    """Reliability-engine selection riding on a scenario.

    ``family`` names a :mod:`repro.proto.engines` registry entry
    (``ack_window``, ``nack``, ``nack_fec``); ``None`` keeps the bound
    scheme's default (``nic_based`` defaults to ``ack_window``,
    ``nic_nack``/``nic_nack_fec`` to their namesakes).  The knobs
    override the family's defaults where set; ``None`` means "engine
    default" and is not forwarded, so a spec with only ``family`` set
    is byte-identical to selecting the scheme variant directly.
    """

    family: str | None = None
    #: NACK families: fixed delay before a gap NACK fires (µs)
    nack_delay_us: float | None = None
    #: NACK families: uniform jitter added to the delay (µs; seeded)
    nack_jitter_us: float | None = None
    #: NACK families: sender ignores re-NACKs for a seq this soon after
    #: repairing it (µs)
    repair_suppression_us: float | None = None
    #: NACK families: fallback Go-back-N timeout, as a multiple of the
    #: cost model's ``ack_timeout``
    fallback_timeout_scale: float | None = None
    #: NACK families: tail gaps are overdue after this many observed
    #: inter-arrival gaps of silence
    tail_spacing_factor: float | None = None
    #: NACK families: extra suppression delay per hop of tree depth
    #: below the first non-root level (µs)
    depth_scale_us: float | None = None
    #: NACK+FEC: data packets per XOR parity block
    fec_block: int | None = None

    def __post_init__(self) -> None:
        if self.family is not None:
            # Scenario may import proto (see tools/check_layering.py);
            # validate eagerly so a typo fails at spec build time.
            from repro.proto.engines import available_engines

            if self.family not in available_engines():
                raise ConfigError(
                    f"unknown reliability family {self.family!r}; "
                    f"pick one of {', '.join(available_engines())}"
                )
        for knob in (
            "nack_delay_us", "nack_jitter_us", "repair_suppression_us",
            "fallback_timeout_scale", "tail_spacing_factor",
            "depth_scale_us",
        ):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise ConfigError(f"{knob} must be >= 0, got {value}")
        if self.fallback_timeout_scale == 0:
            raise ConfigError("fallback_timeout_scale must be > 0")
        if self.fec_block is not None and (
            not isinstance(self.fec_block, int) or self.fec_block < 1
        ):
            raise ConfigError(
                f"fec_block must be an int >= 1, got {self.fec_block}"
            )

    def params(self) -> dict[str, Any]:
        """The non-default knobs, as engine parameter overrides."""
        out: dict[str, Any] = {}
        for f in fields(self):
            if f.name == "family":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out


@dataclass(frozen=True)
class ScenarioSpec(Codec):
    """One complete, serializable experiment scenario."""

    workload: WorkloadSpec
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    traffic: TrafficSpec | None = None
    partition: PartitionSpec | None = None
    reliability: ReliabilitySpec | None = None
    name: str = ""

    def __post_init__(self) -> None:
        n = self.cluster.n_nodes
        w = self.workload
        if w.root >= n:
            raise ConfigError(
                f"root {w.root} outside the {n}-node cluster"
            )
        if w.group is not None and any(m >= n for m in w.group):
            raise ConfigError(
                f"group member outside the {n}-node cluster: {w.group}"
            )
        if n < 2:
            raise ConfigError(f"{w.kind} needs at least 2 nodes")
        if w.kind == "serving":
            if self.traffic is None:
                raise ConfigError(
                    "serving scenarios need a 'traffic' section"
                )
            t = self.traffic
            if t.group_size > n - 1:
                raise ConfigError(
                    f"group_size {t.group_size} does not fit a "
                    f"{n}-node cluster (root + members)"
                )
            if t.churn_interval_us and t.group_size > n - 2:
                raise ConfigError(
                    "membership churn needs at least one spare node: "
                    f"group_size {t.group_size} leaves none in a "
                    f"{n}-node cluster"
                )
        elif self.traffic is not None:
            raise ConfigError(
                "a 'traffic' section requires workload kind 'serving'"
            )
        if (
            self.reliability is not None
            and w.kind not in _RELIABILITY_KINDS
        ):
            raise ConfigError(
                f"a 'reliability' section requires a multicast workload "
                f"kind ({', '.join(_RELIABILITY_KINDS)}), got {w.kind!r}"
            )
        p = self.partition
        if p is not None:
            if w.kind not in PARTITIONABLE_KINDS:
                raise ConfigError(
                    f"workload kind {w.kind!r} cannot run partitioned "
                    f"(decomposable kinds: {PARTITIONABLE_KINDS})"
                )
            if (
                w.kind == "serving"
                and self.traffic is not None
                and self.traffic.churn_interval_us
            ):
                raise ConfigError(
                    "membership churn cannot run partitioned (churn "
                    "rewrites group tables across shard boundaries)"
                )
            if p.shards > n:
                raise ConfigError(
                    f"{p.shards} shards cannot all be non-empty with "
                    f"{n} nodes"
                )

    @property
    def metric(self) -> str:
        return self.measurement.metric or METRIC_BY_KIND[self.workload.kind]

    def destinations(self) -> list[int]:
        """The member node ids (explicit group, or all non-root nodes)."""
        if self.workload.group is not None:
            return list(self.workload.group)
        return [
            i for i in range(self.cluster.n_nodes) if i != self.workload.root
        ]

    # -- serialization -------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Point builders: the paper's measurement shapes as one-liners.  These are
# what the figure grids and the thin measure_* wrappers construct.
# ---------------------------------------------------------------------------

def _cluster_cfg(n: int, cost: GMCostModel | None, seed: int) -> ClusterConfig:
    return ClusterConfig(n_nodes=n, cost=cost or GMCostModel(), seed=seed)


def unicast_point(
    cost: GMCostModel | None = None,
    size: int = 0,
    iterations: int = 10,
    seed: int = 0,
) -> ScenarioSpec:
    """Mean one-way GM latency between two nodes (the ack-trip probe)."""
    return ScenarioSpec(
        workload=WorkloadSpec(kind="unicast"),
        cluster=_cluster_cfg(2, cost, seed),
        measurement=MeasurementSpec(
            sizes=(size,), iterations=iterations, warmup=0
        ),
    )


def multisend_point(
    n_dest: int,
    size: int,
    scheme: str,
    iterations: int = 30,
    warmup: int = 5,
    cost: GMCostModel | None = None,
    seed: int = 0,
) -> ScenarioSpec:
    """Fig. 3 shape: one root multisending to *n_dest* flat destinations."""
    return ScenarioSpec(
        workload=WorkloadSpec(kind="multisend", scheme=scheme),
        cluster=_cluster_cfg(n_dest + 1, cost, seed),
        measurement=MeasurementSpec(
            sizes=(size,), iterations=iterations, warmup=warmup
        ),
    )


def multicast_point(
    n_nodes: int,
    size: int,
    scheme: str,
    iterations: int = 30,
    warmup: int = 5,
    cost: GMCostModel | None = None,
    seed: int = 0,
    tree_shape: str | None = None,
) -> ScenarioSpec:
    """Fig. 5 shape: GM-level multicast over the scheme's spanning tree."""
    return ScenarioSpec(
        workload=WorkloadSpec(
            kind="multicast", scheme=scheme, tree_shape=tree_shape
        ),
        cluster=_cluster_cfg(n_nodes, cost, seed),
        measurement=MeasurementSpec(
            sizes=(size,), iterations=iterations, warmup=warmup
        ),
    )


def mpi_bcast_point(
    n_ranks: int,
    size: int,
    nic: bool,
    iterations: int = 30,
    warmup: int = 5,
    cost: GMCostModel | None = None,
    seed: int = 0,
) -> ScenarioSpec:
    """Fig. 4 shape: MPI_Bcast latency, pre-synchronized per iteration."""
    return ScenarioSpec(
        workload=WorkloadSpec(
            kind="mpi_bcast", scheme="nic" if nic else "host"
        ),
        cluster=_cluster_cfg(n_ranks, cost, seed),
        measurement=MeasurementSpec(
            sizes=(size,), iterations=iterations, warmup=warmup
        ),
    )


def broadcast_point(
    n_nodes: int,
    size: int,
    scheme: str,
    cost: GMCostModel | None = None,
    seed: int = 0,
    tree_shape: str | None = None,
    topology: str = "clos",
    clos_radix: int = 16,
    failures: FailureSpec | None = None,
    loss: LossSpec | None = None,
    reliability: ReliabilitySpec | None = None,
    name: str = "",
) -> ScenarioSpec:
    """Fig. 8/9 shape: one one-shot broadcast, optionally with failures
    injected mid-flight or a declarative loss model.  Completion time =
    root post to the last member's host delivery; per-destination
    delivery times ride along so the 100%-delivery check is verifiable,
    not assumed."""
    return ScenarioSpec(
        workload=WorkloadSpec(
            kind="broadcast", scheme=scheme, tree_shape=tree_shape
        ),
        cluster=ClusterConfig(
            n_nodes=n_nodes,
            cost=cost or GMCostModel(),
            seed=seed,
            topology=topology,
            clos_radix=clos_radix,
            failures=failures,
            loss=loss,
        ),
        measurement=MeasurementSpec(sizes=(size,), iterations=1, warmup=0),
        reliability=reliability,
        name=name,
    )


def serving_point(
    n_nodes: int = 16,
    traffic: TrafficSpec | None = None,
    cost: GMCostModel | None = None,
    seed: int = 0,
    name: str = "",
) -> ScenarioSpec:
    """Sustained serving shape: concurrent groups, continuous arrivals."""
    return ScenarioSpec(
        workload=WorkloadSpec(kind="serving"),
        cluster=_cluster_cfg(n_nodes, cost, seed),
        measurement=MeasurementSpec(sizes=(0,), iterations=1, warmup=0),
        traffic=traffic or TrafficSpec(),
        name=name,
    )


def skew_point(
    n: int,
    nic: bool,
    max_skew: float,
    size: int,
    iterations: int,
    cost: GMCostModel | None = None,
    seed: int = 0,
    warmup: int = 3,
) -> ScenarioSpec:
    """Fig. 6/7 shape: host CPU time in MPI_Bcast under process skew."""
    return ScenarioSpec(
        workload=WorkloadSpec(
            kind="mpi_skew",
            scheme="nic" if nic else "host",
            max_skew=max_skew,
        ),
        cluster=_cluster_cfg(n, cost, seed),
        measurement=MeasurementSpec(
            sizes=(size,), iterations=iterations, warmup=warmup
        ),
    )

"""The reliability-engine registry, spec plumbing, and family behavior.

Covers the seams the ReliabilityEngine refactor introduced: the
registry contract, ReliabilitySpec validation/serialization, scheme
registry exposure, the GM unicast engine pair, the shared per-laggard
Go-back-N sweep, and exactly-once delivery under loss for every family.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, ReproError
from repro.proto import SendWindow
from repro.proto.engines import (
    EngineFamily,
    SenderEngine,
    available_engines,
    get_engine,
)


# ---------------------------------------------------------------------------
# Registry contract
# ---------------------------------------------------------------------------

def test_shipped_families_registered():
    assert set(available_engines()) >= {"ack_window", "nack", "nack_fec"}


def test_unknown_family_fails_with_catalog():
    with pytest.raises(ValueError, match="ack_window"):
        get_engine("quantum_retry")


def test_duplicate_registration_rejected():
    from repro.proto.engines import register_engine

    family = get_engine("nack")
    with pytest.raises(ValueError, match="already registered"):
        register_engine(family)


def test_family_entries_are_frozen():
    family = get_engine("ack_window")
    with pytest.raises(AttributeError):
        family.name = "other"


def test_nack_fec_inherits_nack_defaults():
    nack, fec = get_engine("nack"), get_engine("nack_fec")
    for key, value in nack.defaults.items():
        assert fec.defaults[key] == value
    assert fec.defaults["fec_block"] >= 1
    assert isinstance(fec, EngineFamily)


# ---------------------------------------------------------------------------
# ReliabilitySpec validation and serialization
# ---------------------------------------------------------------------------

def test_reliability_spec_round_trip():
    from repro.scenario.spec import ReliabilitySpec

    spec = ReliabilitySpec(
        family="nack_fec", nack_delay_us=80.0, fec_block=8
    )
    assert ReliabilitySpec.from_dict(spec.to_dict()) == spec
    assert spec.params() == {"nack_delay_us": 80.0, "fec_block": 8}


def test_reliability_spec_rejects_unknown_family():
    from repro.scenario.spec import ReliabilitySpec

    with pytest.raises(ConfigError, match="unknown reliability family"):
        ReliabilitySpec(family="quantum_retry")


@pytest.mark.parametrize("knob,value", [
    ("nack_delay_us", -1.0),
    ("nack_jitter_us", -0.5),
    ("repair_suppression_us", -10.0),
    ("depth_scale_us", -1.0),
    ("fallback_timeout_scale", 0),
    ("fec_block", 0),
    ("fec_block", 2.5),
])
def test_reliability_spec_rejects_bad_knobs(knob, value):
    from repro.scenario.spec import ReliabilitySpec

    with pytest.raises(ConfigError):
        ReliabilitySpec(**{knob: value})


def test_scenario_spec_carries_reliability():
    from repro.scenario.spec import ScenarioSpec, broadcast_point

    spec = broadcast_point(8, 4096, "nic_based")
    from dataclasses import replace

    from repro.scenario.spec import ReliabilitySpec

    spec = replace(spec, reliability=ReliabilitySpec(family="nack"))
    again = ScenarioSpec.from_json(spec.to_json())
    assert again.reliability == spec.reliability


def test_reliability_rejected_on_unicast_workloads():
    from dataclasses import replace

    from repro.scenario.spec import ReliabilitySpec, unicast_point

    spec = unicast_point(size=4096)
    with pytest.raises(ConfigError):
        replace(spec, reliability=ReliabilitySpec(family="nack"))


# ---------------------------------------------------------------------------
# Scheme registry and the GM engine pair
# ---------------------------------------------------------------------------

def test_scheme_registry_exposes_nack_variants():
    from repro.mcast.schemes import available_schemes, get_scheme

    schemes = available_schemes()
    assert "nic_nack" in schemes and "nic_nack_fec" in schemes
    assert get_scheme("nic_nack").cls.reliability_family == "nack"
    assert get_scheme("nic_nack_fec").cls.reliability_family == "nack_fec"


def test_gm_engine_drives_ack_window_pair():
    from repro.cluster import Cluster
    from repro.config import ClusterConfig
    from repro.proto.engines.ack_window import (
        AckWindowReceiver,
        AckWindowSender,
    )

    gm = Cluster(ClusterConfig(n_nodes=2)).node(1).gm
    family = get_engine("ack_window")
    assert family.sender_cls is AckWindowSender
    assert family.receiver_cls is AckWindowReceiver
    assert type(gm._sender) is AckWindowSender
    assert type(gm._receiver) is AckWindowReceiver
    assert gm._sender.transport is gm and gm._receiver.transport is gm


# ---------------------------------------------------------------------------
# The per-laggard Go-back-N sweep (SenderEngine.on_timeout)
# ---------------------------------------------------------------------------

class _SweepTransport:
    """Minimal sweep adapter: logs each resend as ``(child, seq)`` and
    runs an optional callback first (to ack records mid-sweep)."""

    retransmit_counter = "test.resends"

    def __init__(self, max_retransmits=5, on_resend=None):
        from repro.obs.registry import MetricsRegistry

        self.sim = SimpleNamespace(metrics=MetricsRegistry())
        self.cost = SimpleNamespace(max_retransmits=max_retransmits)
        self.retransmissions = 0
        self.sent = []
        self.on_resend = on_resend

    def unreachable(self, group, record, child):
        return f"seq={record.seq} child={child}: peer unreachable"

    def retransmit(self, group, record, child):
        if self.on_resend is not None:
            self.on_resend(group, record, child)
        self.sent.append((child, record.seq))
        return
        yield  # pragma: no cover - makes this a generator function


def _window(unacked_by_seq, retransmits=0):
    """A group whose window holds one record per ``seq: children``."""
    window = SendWindow()
    for seq, children in unacked_by_seq.items():
        window.add(SimpleNamespace(
            seq=seq, retransmits=retransmits, unacked=set(children),
        ))
    return SimpleNamespace(window=window)


def _sweep(transport, group, from_seq):
    for _ in SenderEngine(transport).on_timeout(group, from_seq):
        pass  # pragma: no cover - the fake resends never yield


def test_nack_families_inherit_the_sweep():
    for name in available_engines():
        assert get_engine(name).sender_cls.on_timeout is SenderEngine.on_timeout


def test_sweep_one_child_resends_expired_and_later_in_order():
    t = _SweepTransport()
    group = _window({1: [7], 2: [7], 3: [7], 4: [7]})
    _sweep(t, group, from_seq=2)
    assert t.sent == [(7, 2), (7, 3), (7, 4)]
    assert [group.window.get(s).retransmits for s in (1, 2, 3, 4)] == [
        0, 1, 1, 1,
    ]
    assert t.retransmissions == 3
    assert t.sim.metrics.value("test.resends") == 3


def test_sweep_multi_child_orders_by_child_then_seq():
    t = _SweepTransport()
    group = _window({1: [3], 2: [1, 3], 3: [1], 4: [3, 1], 5: []})
    _sweep(t, group, from_seq=2)
    # Only laggards get each record; seq 1 predates the expired record.
    assert t.sent == [(1, 2), (1, 3), (1, 4), (3, 2), (3, 4)]
    assert group.window.get(2).retransmits == 2
    assert t.sim.metrics.value("test.resends") == 5


def test_sweep_one_child_skips_record_acked_mid_sweep():
    def ack_through_3(group, record, child):
        if record.seq == 2:
            group.window.pop(3)

    t = _SweepTransport(on_resend=ack_through_3)
    group = _window({2: [7], 3: [7], 4: [7]})
    _sweep(t, group, from_seq=2)
    assert t.sent == [(7, 2), (7, 4)]


def test_sweep_multi_child_skips_records_acked_mid_sweep():
    def acks_arrive(group, record, child):
        if (child, record.seq) == (1, 2):
            group.window.pop(3)  # every child acked seq 3
            group.window.get(4).unacked.discard(3)  # child 3 acked seq 4

    t = _SweepTransport(on_resend=acks_arrive)
    group = _window({2: [1, 3], 3: [1, 3], 4: [1, 3]})
    _sweep(t, group, from_seq=2)
    assert t.sent == [(1, 2), (1, 4), (3, 2)]


@pytest.mark.parametrize("unacked", [[7], [1, 3]], ids=["one", "multi"])
def test_sweep_escalates_past_max_retransmits(unacked):
    t = _SweepTransport(max_retransmits=2)
    group = _window({1: unacked, 2: unacked}, retransmits=2)
    with pytest.raises(ReproError, match=rf"seq=1 child={unacked[0]}: peer"):
        _sweep(t, group, from_seq=1)
    assert t.sent == []
    # The failed attempt is still counted before escalating.
    assert group.window.get(1).retransmits == 3
    assert t.retransmissions == 1


def test_sweep_escalation_uses_transport_message():
    """The real transports' diagnoses survive the move to the engine."""
    from repro.cluster import Cluster
    from repro.config import ClusterConfig

    cluster = Cluster(ClusterConfig(n_nodes=2))
    gm = cluster.node(0).gm
    record = SimpleNamespace(seq=4, dst=1, retransmits=9)
    assert gm.unreachable(None, record, 1) == (
        "nic[0]: packet seq=4 to node 1 dropped 9 times — peer unreachable"
    )
    rel = cluster.node(0).mcast.reliability
    group = SimpleNamespace(group_id=5)
    assert rel.unreachable(group, record, 1) == (
        "nic[0]: multicast packet seq=4 group=5 retransmitted 9 times "
        "to child 1 — peer unreachable"
    )


# ---------------------------------------------------------------------------
# Exactly-once delivery under loss, every family
# ---------------------------------------------------------------------------

def _lossy_broadcast(scheme, rate=0.03, seed=4, n=16):
    from repro.net.fault import LossSpec
    from repro.obs.registry import MetricsRegistry
    from repro.scenario.harness import run_spec
    from repro.scenario.spec import broadcast_point

    spec = broadcast_point(
        n, 16384, scheme, seed=seed, tree_shape="binomial",
        loss=LossSpec(
            kind="bernoulli", rate=rate, packet_types=("MCAST_DATA",)
        ),
        name=f"exactly-once[{scheme}]",
    )
    registry = MetricsRegistry()
    result = run_spec(spec, registry=registry)
    (point,) = result.values.values()
    return point, registry


@pytest.mark.parametrize("scheme", ["nic_based", "nic_nack", "nic_nack_fec"])
def test_exactly_once_under_loss(scheme):
    """3% data loss: every member delivers exactly once — the deliveries
    map is keyed per member, so duplicates cannot hide in a count."""
    point, registry = _lossy_broadcast(scheme)
    assert sorted(point.deliveries) == list(range(1, 16))
    assert registry.value("net.fault_drops", 0) >= 1, (
        "seed produced no drops; the exactly-once claim went untested"
    )


def test_spec_level_family_override():
    """A ReliabilitySpec on the scenario overrides the scheme default:
    nic_based + family=nack behaves as the NACK engine (no ACK-window
    timeouts; gaps recovered by repair)."""
    from dataclasses import replace

    from repro.net.fault import LossSpec
    from repro.obs.registry import MetricsRegistry
    from repro.scenario.harness import run_spec
    from repro.scenario.spec import ReliabilitySpec, broadcast_point

    spec = broadcast_point(
        16, 16384, "nic_based", seed=4, tree_shape="binomial",
        loss=LossSpec(
            kind="bernoulli", rate=0.03, packet_types=("MCAST_DATA",)
        ),
    )
    spec = replace(spec, reliability=ReliabilitySpec(family="nack"))
    registry = MetricsRegistry()
    result = run_spec(spec, registry=registry)
    (point,) = result.values.values()
    assert sorted(point.deliveries) == list(range(1, 16))
    assert registry.value("proto.nack_sent", 0) >= 1


def test_knob_override_reaches_engine():
    """Spec knobs must land in the group's engine params: an absurdly
    large nack delay turns the NACK family into pure fallback-timeout
    recovery (no NACK ever fires)."""
    from dataclasses import replace

    from repro.net.fault import LossSpec
    from repro.obs.registry import MetricsRegistry
    from repro.scenario.harness import run_spec
    from repro.scenario.spec import ReliabilitySpec, broadcast_point

    spec = broadcast_point(
        16, 16384, "nic_nack", seed=4, tree_shape="binomial",
        loss=LossSpec(
            kind="bernoulli", rate=0.03, packet_types=("MCAST_DATA",)
        ),
    )
    spec = replace(
        spec,
        reliability=ReliabilitySpec(nack_delay_us=1e6, nack_jitter_us=0.0),
    )
    registry = MetricsRegistry()
    result = run_spec(spec, registry=registry)
    (point,) = result.values.values()
    assert sorted(point.deliveries) == list(range(1, 16))
    assert registry.value("proto.nack_sent", 0) == 0
    assert registry.value("proto.retransmit_timeouts", 0) >= 1

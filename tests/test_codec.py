"""The spec codec: path-naming rejections and lossless round trips."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import fig8, fig9
from repro.gm.params import GMCostModel
from repro.net.failure import FailureEvent, FailureSpec
from repro.net.fault import LossSpec
from repro.scenario import (
    ScenarioSpec,
    TrafficSpec,
    broadcast_point,
    mpi_bcast_point,
    multicast_point,
    multisend_point,
    serving_point,
    skew_point,
    unicast_point,
)
from repro.scenario.spec import ReliabilitySpec

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "scenarios")
    .glob("*.json")
)

MULTICAST = {"kind": "multicast"}


@pytest.mark.parametrize(
    "payload, path",
    [
        pytest.param(
            {"workload": dict(MULTICAST, group=5)},
            "workload.group", id="group-not-a-list",
        ),
        pytest.param(
            {"workload": dict(MULTICAST, group=["1"])},
            "workload.group[0]", id="group-member-str",
        ),
        pytest.param(
            {"workload": {"kind": "serving"},
             "traffic": {"arrival": "trace", "trace_arrivals": [1, 2]}},
            "traffic.trace_arrivals[0]", id="flat-trace-arrivals",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"n_nodes": "8"}},
            "cluster.n_nodes", id="n-nodes-str",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"n_nodes": 8.0}},
            "cluster.n_nodes", id="n-nodes-float",
        ),
        pytest.param(
            {"workload": MULTICAST, "measurement": {"iterations": 2.5}},
            "measurement.iterations", id="iterations-float",
        ),
        pytest.param(
            {"workload": {"kind": "multisend"}, "partition": {"shards": True}},
            "partition.shards", id="shards-bool",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"loss": {
                "kind": "bernoulli", "packet_types": "MCAST_DATA"}}},
            "cluster.loss.packet_types", id="packet-types-str",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"loss": {
                "kind": "bernoulli", "rte": 0.1}}},
            "unknown loss spec keys at cluster.loss: rte", id="loss-typo",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"failures": {
                "kind": "scheduled",
                "events": [{"time_us": "1", "action": "link_down",
                            "target": 0}]}}},
            "cluster.failures.events[0].time_us", id="event-time-str",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"cost": {"mtu": "big"}}},
            "cluster.cost.mtu", id="cost-field-str",
        ),
        pytest.param(
            {"workload": MULTICAST, "cluster": {"extras": []}},
            "cluster.extras", id="extras-not-an-object",
        ),
    ],
)
def test_bad_input_names_its_path(payload, path):
    with pytest.raises(ConfigError) as excinfo:
        ScenarioSpec.from_json(json.dumps(payload))
    assert path in str(excinfo.value)


def _fig_specs() -> list:
    cost = GMCostModel()
    specs: list = [fig8.failure_spec(n, cost) for n in (1, 2, 3)]
    specs += [fig9._failure(n, cost) for n in fig9.NODES]
    specs += [fig9._loss(rate) for rate in fig9.LOSS_RATES[1:]]
    return specs


ROUND_TRIPS = [
    LossSpec(kind="bit_error", ber=1e-6, rate=0.2),
    LossSpec(kind="none", rate=0.3),
    TrafficSpec(
        arrival="trace", trace_arrivals=((1.0, 0),), rate_per_group=0.5
    ),
    FailureSpec(kind="none", events=(FailureEvent(1.0, "link_down", 0),)),
    GMCostModel.slow_nic(mtu=2048),
    *(ScenarioSpec.from_json(p.read_text()) for p in EXAMPLES),
    unicast_point(size=4),
    multisend_point(3, 64, "nb", cost=GMCostModel.fast_host()),
    multicast_point(8, 512, "nic_based", tree_shape="binomial"),
    mpi_bcast_point(4, 16, nic=False),
    broadcast_point(
        16, 4096, "nic_nack_fec",
        loss=LossSpec(kind="bernoulli", rate=0.02),
        reliability=ReliabilitySpec(family="nack_fec", fec_block=4),
        name="lossy",
    ),
    serving_point(traffic=TrafficSpec(churn_interval_us=500.0)),
    skew_point(4, True, 800.0, 4, 3),
    *_fig_specs(),
]


@pytest.mark.parametrize(
    "value", ROUND_TRIPS,
    ids=[f"{type(v).__name__}-{i}" for i, v in enumerate(ROUND_TRIPS)],
)
def test_round_trip_is_lossless(value):
    # The same text ScenarioSpec.to_json writes, for every codec class.
    text = json.dumps(value.to_dict(), sort_keys=True)
    again = type(value).from_dict(json.loads(text))
    assert again == value
    assert json.dumps(again.to_dict(), sort_keys=True) == text


def test_examples_are_found():
    assert EXAMPLES

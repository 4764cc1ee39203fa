"""ScenarioSpec serialization and validation."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.net.fault import BernoulliLoss, BitErrorLoss, LossSpec
from repro.scenario import (
    MPI_SIZES,
    PAPER_SIZES,
    QUICK_SIZES,
    MeasurementSpec,
    ScenarioSpec,
    TrafficSpec,
    WorkloadSpec,
)


def rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="lossy-subtree",
        workload=WorkloadSpec(
            kind="multicast",
            scheme="nic_based",
            tree_shape="binomial",
            group=(2, 3, 5),
            root=1,
        ),
        cluster=ClusterConfig(
            n_nodes=8,
            seed=7,
            topology="single",
            cost=GMCostModel(link_latency=0.2),
            loss=LossSpec(
                kind="bernoulli", rate=0.1, packet_types=("MCAST_DATA",)
            ),
        ),
        measurement=MeasurementSpec(sizes=(64, 4096), iterations=4, warmup=1),
    )


def test_json_round_trip_rich():
    spec = rich_spec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_json_round_trip_defaults():
    spec = ScenarioSpec(workload=WorkloadSpec(kind="multisend", scheme="nb"))
    again = ScenarioSpec.from_json(spec.to_json())
    assert again == spec
    assert again.cluster == ClusterConfig()


def test_to_dict_omits_defaults():
    data = ScenarioSpec(workload=WorkloadSpec(kind="unicast")).to_dict()
    assert "cluster" not in data
    assert "name" not in data
    assert "tree_shape" not in data["workload"]


def test_cost_overrides_round_trip():
    cost = GMCostModel(link_latency=0.5, mtu=2048)
    assert GMCostModel.from_dict(cost.to_dict()) == cost
    assert GMCostModel().to_dict() == {}


def test_cost_preset_round_trip():
    slow = GMCostModel.from_dict({"preset": "slow_nic"})
    assert slow == GMCostModel.slow_nic()
    with pytest.raises(ConfigError, match="preset"):
        GMCostModel.from_dict({"preset": "warp_speed"})
    with pytest.raises(ConfigError, match="unknown cost model"):
        GMCostModel.from_dict({"link_latencyy": 1.0})


def test_metric_defaults_per_kind():
    spec = ScenarioSpec(workload=WorkloadSpec(kind="multicast"))
    assert spec.metric == "max_leaf_delivery_plus_ack_us"
    spec = ScenarioSpec(
        workload=WorkloadSpec(kind="mpi_skew", scheme="nic"),
        measurement=MeasurementSpec(metric="bcast_cpu_time_us"),
    )
    assert spec.metric == "bcast_cpu_time_us"


def test_destinations_default_and_group():
    spec = ScenarioSpec(
        workload=WorkloadSpec(kind="multicast"),
        cluster=ClusterConfig(n_nodes=4),
    )
    assert spec.destinations() == [1, 2, 3]
    assert rich_spec().destinations() == [2, 3, 5]


def test_legacy_scheme_spellings_resolve():
    nb = WorkloadSpec(kind="multisend", scheme="nb")
    assert nb.canonical_scheme == "nic_multisend"
    hb = WorkloadSpec(kind="multicast", scheme="hb")
    assert hb.canonical_scheme == "host_based"
    assert WorkloadSpec(kind="mpi_bcast", scheme="host").nic is False


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"kind": "teleport"}, "workload kind"),
        ({"kind": "multicast", "scheme": "quantum"}, "scheme"),
        ({"kind": "mpi_bcast", "scheme": "nb2"}, "MPI scheme"),
        ({"kind": "multicast", "tree_shape": "star"}, "tree shape"),
        ({"kind": "multicast", "root": -1}, "root"),
        ({"kind": "mpi_skew", "scheme": "nic", "max_skew": -1.0}, "max_skew"),
        ({"kind": "multicast", "group": (0, 1)}, "root"),
        ({"kind": "multicast", "group": (1, 1)}, "distinct"),
        ({"kind": "multicast", "group": (-2,)}, ">= 0"),
    ],
)
def test_workload_validation_errors(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        WorkloadSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"sizes": ()}, "at least one"),
        ({"sizes": (-1,)}, "sizes"),
        ({"iterations": 0}, "iterations"),
        ({"warmup": -1}, "warmup"),
        ({"metric": "frobs_per_us"}, "metric"),
    ],
)
def test_measurement_validation_errors(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        MeasurementSpec(**kwargs)


def test_cross_validation_against_cluster():
    with pytest.raises(ConfigError, match="outside"):
        ScenarioSpec(
            workload=WorkloadSpec(kind="multicast", root=8),
            cluster=ClusterConfig(n_nodes=8),
        )
    with pytest.raises(ConfigError, match="outside"):
        ScenarioSpec(
            workload=WorkloadSpec(kind="multicast", group=(9,)),
            cluster=ClusterConfig(n_nodes=8),
        )


@pytest.mark.parametrize("kind", ["unicast", "broadcast"])
def test_one_node_cluster_rejected(kind):
    with pytest.raises(ConfigError, match=f"^{kind} needs at least 2 nodes$"):
        ScenarioSpec(
            workload=WorkloadSpec(kind=kind),
            cluster=ClusterConfig(n_nodes=1),
        )


@pytest.mark.parametrize(
    "payload, match",
    [
        ('{"workload": {"kind": "unicast", "warp": 9}}', "workload"),
        ('{"workload": {"kind": "unicast"}, "speed": 9}', "scenario"),
        (
            '{"workload": {"kind": "unicast"},'
            ' "measurement": {"colour": "red"}}',
            "measurement",
        ),
        ('{"workload": {"kind": "unicast"}, "cluster": {"nodes": 4}}',
         "cluster"),
        ('{"cluster": {"n_nodes": 4}}', "workload"),
        ("{not json", "not valid JSON"),
    ],
)
def test_unknown_keys_and_bad_json_rejected(payload, match):
    with pytest.raises(ConfigError, match=match):
        ScenarioSpec.from_json(payload)


def test_loss_spec_builds_each_model_kind():
    assert LossSpec().build() is None
    model = LossSpec(kind="bernoulli", rate=0.25).build()
    assert isinstance(model, BernoulliLoss)
    model = LossSpec(kind="bit_error", ber=1e-6).build()
    assert isinstance(model, BitErrorLoss)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"kind": "gremlins"}, "loss kind"),
        ({"kind": "bernoulli", "rate": 1.5}, "rate"),
        ({"kind": "bit_error", "ber": 1.0}, "bit error"),
        ({"kind": "bernoulli", "packet_types": ("WARP",)}, "packet type"),
    ],
)
def test_loss_spec_validation_errors(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        LossSpec(**kwargs)


def test_loss_spec_unknown_key_rejected():
    with pytest.raises(ConfigError, match="loss spec"):
        LossSpec.from_dict({"kind": "bernoulli", "rte": 0.1})


def test_quick_sizes_are_subsets_of_the_paper_sweeps():
    """The canonical quick lists thin the full sweeps, never extend them."""
    assert set(QUICK_SIZES["multisend"]) <= set(PAPER_SIZES)
    assert set(QUICK_SIZES["multicast"]) <= set(PAPER_SIZES)
    assert set(QUICK_SIZES["mpi_bcast"]) <= set(MPI_SIZES)
    for sizes in QUICK_SIZES.values():
        assert sizes == sorted(sizes)


# -- TrafficSpec (serving workloads) ---------------------------------------

def serving_spec_dict() -> dict:
    return {
        "workload": {"kind": "serving"},
        "cluster": {"n_nodes": 8, "seed": 3},
        "traffic": {
            "duration_us": 5000.0,
            "n_groups": 2,
            "group_size": 3,
            "rate_per_group": 0.002,
            "sizes": [1024, 4096],
            "schemes": ["nic_based", "host_based"],
            "churn_interval_us": 1000.0,
            "warmup_us": 500.0,
        },
    }


def test_traffic_spec_unknown_key_rejected():
    with pytest.raises(ConfigError, match="traffic spec"):
        TrafficSpec.from_dict({"duration_us": 100.0, "rte_per_group": 0.1})


def test_serving_scenario_round_trips_through_json():
    import json

    spec = ScenarioSpec.from_dict(serving_spec_dict())
    again = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
    assert again == spec
    assert again.traffic.schemes == ("nic_based", "host_based")


def test_serving_scenario_requires_traffic_section():
    payload = serving_spec_dict()
    del payload["traffic"]
    with pytest.raises(ConfigError, match="traffic"):
        ScenarioSpec.from_dict(payload)


def test_traffic_section_requires_serving_kind():
    payload = serving_spec_dict()
    payload["workload"] = {"kind": "unicast"}
    with pytest.raises(ConfigError, match="serving"):
        ScenarioSpec.from_dict(payload)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"duration_us": 0.0}, "duration_us"),
        ({"n_groups": 0}, "n_groups"),
        ({"rate_per_group": 0.0}, "rate_per_group"),
        ({"sizes": []}, "at least one message size"),
        ({"schemes": ["warp_drive"]}, "warp_drive"),
        ({"schemes": ["fmmc"]}, "sustained"),
        ({"churn_interval_us": -1.0}, "churn_interval_us"),
        ({"warmup_us": 5000.0}, "warmup_us"),
    ],
)
def test_traffic_spec_validation_errors(overrides, match):
    payload = serving_spec_dict()["traffic"]
    payload.update(overrides)
    with pytest.raises(ConfigError, match=match):
        TrafficSpec.from_dict(payload)

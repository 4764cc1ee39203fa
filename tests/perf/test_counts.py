"""Exact simulator cost of the benchmark workloads.

Each ``perfbench`` workload runs realization 0 at its pinned seed
through the public API, and its cost counts must equal the committed
``golden_counts.json`` exactly:

* the full :data:`repro.perf.counters.KERNEL_COUNTERS` snapshot (events,
  same-instant batched events, timer and wheel traffic);
* the number of generator resumes (``Process._resume`` calls);
* every integer counter of an attached :class:`MetricsRegistry`.

The simulator is deterministic, so these counts are the same on every
host: one extra event per packet hop moves them, wall-clock noise
cannot.  They are the counts ``perfbench/run.py --trace 1`` reports as
``sim.events`` / ``sim.process_resumes`` at the same seeds.  A change
that moves them on purpose re-pins the fixture and says why in
CHANGES.md::

    PYTHONPATH=src python tests/perf/test_counts.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.gm.params import GMCostModel
from repro.obs import MetricsRegistry
from repro.perf import KERNEL_COUNTERS
from repro.perf.bench_serving import serving_spec
from repro.scenario import (
    Harness,
    ScenarioSpec,
    broadcast_point,
    measured_ack_trip,
)
from repro.scenario.spec import TelemetrySpec
from repro.sim import Simulator
from repro.sim.process import Process

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).with_name("golden_counts.json")
CLOS1024 = REPO / "examples" / "scenarios" / "clos1024_multisend_sharded.json"


def serving_specs() -> list[ScenarioSpec]:
    """The pinned serving spec at seed 11."""
    return [serving_spec()]


def clos1024_specs() -> list[ScenarioSpec]:
    """The 1024-node Clos multisend on 4 in-process shards, seed 7."""
    return [ScenarioSpec.from_json(CLOS1024.read_text())]


def repair_specs() -> list[ScenarioSpec]:
    """64-node 16 KiB binomial broadcasts at seed 4: fig8 at 3 link
    failures x 3 schemes, then fig9 at 2% and 5% data loss x 3 schemes."""
    from repro.experiments import fig8
    from repro.net.fault import LossSpec

    cost = GMCostModel()
    failures = fig8.failure_spec(3, cost)
    specs = [
        broadcast_point(64, 16384, scheme, cost=cost, seed=4,
                        tree_shape="binomial", failures=failures)
        for scheme in ("nic_based", "backup_tree", "tree_repair")
    ]
    for rate in (0.02, 0.05):
        loss = LossSpec(kind="bernoulli", rate=rate,
                        packet_types=("MCAST_DATA",))
        specs += [
            broadcast_point(64, 16384, scheme, cost=cost, seed=4,
                            tree_shape="binomial", loss=loss)
            for scheme in ("nic_based", "nic_nack", "nic_nack_fec")
        ]
    return specs


WORKLOADS = {
    "serving": serving_specs,
    "clos1024": clos1024_specs,
    "repair": repair_specs,
}


def measure(specs: list[ScenarioSpec]) -> tuple[dict, list]:
    """Run *specs* in order; return their summed cost counts and each
    run's harness values."""
    import repro.workload  # noqa: F401  (registers the serving runner)

    # Warm the process-wide ack-trip memo: a cold miss runs its own
    # simulation inside the measured region.
    measured_ack_trip(GMCostModel())
    resumes = 0
    resume = Process._resume

    def counting_resume(self, event):
        nonlocal resumes
        resumes += 1
        return resume(self, event)

    registry = MetricsRegistry()
    values = []
    with pytest.MonkeyPatch.context() as mp:
        # Processes bind ``_resume`` once, at construction, so the
        # wrapper must be in place before any process is built.
        mp.setattr(Process, "_resume", counting_resume)
        KERNEL_COUNTERS.reset()
        for spec in specs:
            values.append(Harness(spec, registry=registry).run().values)
        kernel = KERNEL_COUNTERS.snapshot()
    counters = {
        name: snap["value"]
        for name, snap in registry.snapshot().items()
        if snap["type"] == "counter" and isinstance(snap["value"], int)
    }
    counts = {
        "kernel": kernel,
        "process_resumes": resumes,
        "registry": counters,
    }
    return counts, values


@functools.cache
def measured(name: str) -> tuple[dict, list]:
    return measure(WORKLOADS[name]())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_match_golden(name, golden):
    counts, _ = measured(name)
    assert counts == golden[name]


def test_declared_telemetry_changes_nothing():
    """Declaring a ``TelemetrySpec`` is pure data: nothing under
    ``repro.scenario`` reads it, so with no recorder attached the run is
    the same run, count for count and statistic for statistic."""
    spec = serving_spec()
    declared = dataclasses.replace(
        spec,
        measurement=dataclasses.replace(
            spec.measurement,
            telemetry=TelemetrySpec(sample=1.0, interval_us=1000.0),
        ),
    )
    counts, values = measured("serving")
    declared_counts, declared_values = measure([declared])
    assert declared_counts == counts
    assert declared_values[0][0].snapshot() == values[0][0].snapshot()


def test_kernel_counters_track_engine():
    KERNEL_COUNTERS.reset()
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    snap = KERNEL_COUNTERS.snapshot()
    assert snap["simulators"] >= 1
    assert snap["events"] >= 2


if __name__ == "__main__":  # fixture regeneration entry point
    golden_counts = {name: measured(name)[0] for name in sorted(WORKLOADS)}
    FIXTURE.write_text(json.dumps(golden_counts, indent=1, sort_keys=True)
                       + "\n")
    for name, counts in golden_counts.items():
        print(f"{name}: {counts['kernel']['events']} events, "
              f"{counts['process_resumes']} process resumes")
    print(f"wrote {FIXTURE}")

"""The benchmark's three pinned workloads, driven through public API only.

Each workload turns ``(seed, realization)`` into scenario specs, runs
them through :class:`repro.scenario.Harness`, checks the output and
returns an :class:`Outcome`.  A run pools ``realizations`` input draws
(realization 0 is the seed itself, so the pinned seed reproduces the
pinned fixture exactly; realization ``i`` uses ``seed + 1000 * i``), so
the modelled metrics describe the workload rather than one draw of its
randomness.

``serving``
    The pinned ``bench_serving`` spec (16 nodes, 8 groups of 6, four
    schemes, 8/32 KiB, open-loop Poisson arrivals at 1 msg / 2 ms per
    group in modelled time, churn every 5 ms, 120 ms).  Pinned seed 11.
``clos1024``
    ``examples/scenarios/clos1024_multisend_sharded.json``: a 1024-node
    Clos, ``nic_based`` multisend to 63 destinations at 4 KiB on 4
    in-process shards.  The seed rotates every node id by ``seed - 7``,
    trims ``32 * ((seed - 7) % 8)`` bytes off the message and seeds the
    cluster.  The fabric is symmetric, so placement alone leaves the
    modelled times unchanged; the size step makes them follow the seed.
    Pinned seed 7.
``repair``
    64-node, 16 KiB binomial broadcasts: the fig8 fixture at 3 link
    failures x {nic_based, backup_tree, tree_repair} and the fig9
    64-node points at 2% and 5% data loss x {nic_based, nic_nack,
    nic_nack_fec}.  The seed seeds the loss draws.  Pinned seed 4.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Outcome", "WORKLOADS", "sub_seed"]

REPO_ROOT = Path(__file__).resolve().parents[1]


def sub_seed(seed: int, realization: int) -> int:
    """The input seed of one realization of a run at *seed*."""
    return seed + 1000 * realization


@dataclass
class Outcome:
    """What one pass over one realization produced, already checked."""

    samples: list[float]  #: modelled delivery latencies, µs
    delivered: int  #: delivered (destination, message) pairs
    expected: int  #: deliveries the checks expected
    failed: int  #: expected deliveries missing, duplicated or wrong
    sim_us: float  #: modelled time the deliveries span
    fingerprint: Any  #: deterministic summary compared across repeats
    problems: list[str] = field(default_factory=list)
    #: flight recorders attached to the pass (traced runs only)
    flights: list[Any] = field(default_factory=list)


def _fail_all(outcome: Outcome, problem: str) -> None:
    outcome.problems.append(problem)
    outcome.failed = outcome.expected


def _host_delivery_problems(flight: Any) -> list[str]:
    """Exactly-once check on a flight record: one host delivery per
    (traced message, destination)."""
    from repro.obs.flight import EV_NODE, EV_STAGE, EV_TRACE

    seen = Counter(
        (ev[EV_TRACE], ev[EV_NODE]) for ev in flight.events
        if ev[EV_STAGE] == "host_deliver" and ev[EV_TRACE] >= 0
    )
    return [
        f"trace {tid} delivered {n} times to node {node}"
        for (tid, node), n in sorted(seen.items()) if n != 1
    ]


# -- serving ---------------------------------------------------------------
class Serving:
    name = "serving"
    pinned_seed = 11
    realizations = 8
    #: seed 11's pinned observables (ServingStats at realization 0)
    PINNED = {"msgs_delivered": 2714, "p99_delivery_us": 2916.076}
    #: flight-recorder capacity for a traced pass (events)
    FLIGHT_CAP = 1 << 20

    def specs(self, seed: int, realization: int) -> Any:
        from repro.perf.bench_serving import serving_spec

        spec = serving_spec()
        return dataclasses.replace(
            spec,
            cluster=dataclasses.replace(
                spec.cluster, seed=sub_seed(seed, realization)
            ),
        )

    def prepare(self, spec: Any) -> None:
        """Nothing to compute ahead of the timed passes."""

    def run(
        self, spec: Any, pinned: bool,
        registry: Any = None, flight: Callable[[], Any] | None = None,
    ) -> Outcome:
        from repro.scenario import Harness

        recorder = flight() if flight is not None else None
        stats = Harness(spec, registry=registry, flight=recorder).run()
        stats = stats.values[0]
        snap = stats.snapshot()
        out = Outcome(
            samples=list(stats.latencies_us),
            delivered=stats.msgs_delivered,
            expected=stats.msgs_delivered,
            failed=0,
            sim_us=stats.measured_us,
            fingerprint=snap,
            flights=[recorder] if recorder is not None else [],
        )
        # A root counts a post once its send completes and keeps at most
        # one message outstanding, so a duplicate delivery is the only
        # way past (posted + 1) x group_size.
        size = spec.traffic.group_size
        over = [
            gid for gid, g in stats.per_group.items()
            if g.delivered > (g.posted + 1) * size
        ]
        if over:
            _fail_all(out, f"groups {over} delivered more than "
                           "(posted + 1) x group size")
        if len(stats.latencies_us) != stats.msgs_delivered:
            _fail_all(out, "latency samples do not match deliveries")
        if pinned:
            got = {
                "msgs_delivered": stats.msgs_delivered,
                "p99_delivery_us": round(stats.quantile(0.99), 3),
            }
            if got != self.PINNED:
                _fail_all(out, f"pinned serving observables {got} != "
                               f"{self.PINNED}")
        if recorder is not None:
            for problem in _host_delivery_problems(recorder):
                _fail_all(out, problem)
        return out


# -- clos1024 --------------------------------------------------------------
class Clos1024:
    name = "clos1024"
    pinned_seed = 7
    realizations = 1
    SPEC_FILE = REPO_ROOT / "examples" / "scenarios" / (
        "clos1024_multisend_sharded.json"
    )
    #: the serial (and therefore sharded) value at the pinned seed, µs
    PINNED_VALUE = 1348.690952380955
    #: bytes the seed trims off the 4 KiB message, per step
    SIZE_STEP = 32
    FLIGHT_CAP = 1 << 18

    def __init__(self) -> None:
        self._reference: dict[str, tuple[float, Outcome]] = {}

    def specs(self, seed: int, realization: int) -> Any:
        from repro.scenario import ScenarioSpec

        spec = ScenarioSpec.from_json(self.SPEC_FILE.read_text())
        seed = sub_seed(seed, realization)
        n = spec.cluster.n_nodes
        shift = seed - self.pinned_seed
        workload = dataclasses.replace(
            spec.workload,
            root=(spec.workload.root + shift) % n,
            group=tuple((g + shift) % n for g in spec.workload.group),
        )
        size = spec.measurement.sizes[0] - self.SIZE_STEP * (shift % 8)
        return dataclasses.replace(
            spec,
            workload=workload,
            cluster=dataclasses.replace(spec.cluster, seed=seed),
            measurement=dataclasses.replace(spec.measurement, sizes=(size,)),
        )

    def prepare(self, spec: Any) -> None:
        """Run the serial reference before anything is timed."""
        self.reference(spec)

    def reference(self, spec: Any) -> tuple[float, Outcome]:
        """The serial run of *spec* with a flight recorder (untimed).

        Gives the value the sharded run must equal and the modelled
        per-destination delivery samples, from the recorded flight.
        """
        from repro.obs import FlightRecorder, critical_paths
        from repro.scenario import Harness

        key = spec.to_json()
        if key not in self._reference:
            serial = dataclasses.replace(spec, partition=None)
            recorder = FlightRecorder(cap=self.FLIGHT_CAP)
            size = spec.measurement.sizes[0]
            value = Harness(serial, flight=recorder).run().values[size]
            paths = critical_paths(recorder.events)
            samples = [
                d.delivery_us for cp in paths
                for d in cp.destinations.values()
            ]
            posted = min(cp.posted_at for cp in paths)
            last = max(
                d.delivered_at for cp in paths
                for d in cp.destinations.values()
            )
            rounds = spec.measurement.warmup + spec.measurement.iterations
            expected = len(spec.workload.group) * rounds
            ref = Outcome(
                samples=samples,
                delivered=len(samples),
                expected=expected,
                failed=0,
                sim_us=last - posted,
                fingerprint=repr(value),
            )
            if len(samples) != expected:
                _fail_all(ref, f"serial run delivered {len(samples)} of "
                               f"{expected}")
            for problem in _host_delivery_problems(recorder):
                _fail_all(ref, problem)
            self._reference[key] = (value, ref)
        return self._reference[key]

    def run(
        self, spec: Any, pinned: bool,
        registry: Any = None, flight: Callable[[], Any] | None = None,
    ) -> Outcome:
        from repro.scenario import Harness

        serial_value, ref = self.reference(spec)
        recorder = flight() if flight is not None else None
        size = spec.measurement.sizes[0]
        value = Harness(spec, registry=registry, flight=recorder).run()
        value = value.values[size]
        out = dataclasses.replace(
            ref,
            samples=list(ref.samples),
            problems=list(ref.problems),
            fingerprint=repr(value),
            flights=[recorder] if recorder is not None else [],
        )
        if value != serial_value:
            _fail_all(out, f"sharded value {value!r} != serial "
                           f"{serial_value!r}")
        if pinned and abs(value - self.PINNED_VALUE) > 1e-9:
            _fail_all(out, f"pinned value {value!r} != "
                           f"{self.PINNED_VALUE!r}")
        if recorder is not None:
            for problem in _host_delivery_problems(recorder):
                _fail_all(out, problem)
        return out


# -- repair ----------------------------------------------------------------
class Repair:
    name = "repair"
    pinned_seed = 4
    realizations = 16
    NODES, SIZE = 64, 16384
    FAILURE_SCHEMES = ("nic_based", "backup_tree", "tree_repair")
    LOSS_SCHEMES = ("nic_based", "nic_nack", "nic_nack_fec")
    LOSS_RATES = (0.02, 0.05)
    FLIGHT_CAP = 1 << 18
    #: completion µs of every fixture at the pinned seed (fig8 at 3
    #: failures, then fig9 64-node points), in fixture order
    PINNED = (
        1996.0778785673836, 1027.4917972350227, 1027.4917972350227,
        1134.4392901608853, 937.1731468139022, 894.6090043125648,
        1433.791963780418, 1058.1632949467828, 1026.7062890010059,
    )

    def __init__(self) -> None:
        self._failures: Any = None

    def _failure_spec(self) -> Any:
        if self._failures is None:
            from repro.experiments import fig8
            from repro.gm.params import GMCostModel

            self._failures = fig8.failure_spec(3, GMCostModel())
        return self._failures

    def specs(self, seed: int, realization: int) -> list[tuple[str, Any]]:
        from repro.gm.params import GMCostModel
        from repro.net.fault import LossSpec
        from repro.scenario import broadcast_point

        seed = sub_seed(seed, realization)
        cost = GMCostModel()
        fixtures = [
            (f"fig8[{scheme},failures=3]", broadcast_point(
                self.NODES, self.SIZE, scheme, cost=cost, seed=seed,
                tree_shape="binomial", failures=self._failure_spec(),
            ))
            for scheme in self.FAILURE_SCHEMES
        ]
        for rate in self.LOSS_RATES:
            loss = LossSpec(kind="bernoulli", rate=rate,
                            packet_types=("MCAST_DATA",))
            fixtures += [
                (f"fig9[{scheme},loss={rate:g}]", broadcast_point(
                    self.NODES, self.SIZE, scheme, cost=cost, seed=seed,
                    tree_shape="binomial", loss=loss,
                ))
                for scheme in self.LOSS_SCHEMES
            ]
        return fixtures

    def prepare(self, specs: list[tuple[str, Any]]) -> None:
        """Nothing to compute ahead of the timed passes."""

    def run(
        self, specs: list[tuple[str, Any]], pinned: bool,
        registry: Any = None, flight: Callable[[], Any] | None = None,
    ) -> Outcome:
        from repro.scenario import Harness

        members = list(range(1, self.NODES))
        out = Outcome(samples=[], delivered=0, expected=0, failed=0,
                      sim_us=0.0, fingerprint=[])
        completions = []
        for label, spec in specs:
            recorder = flight() if flight is not None else None
            point = Harness(spec, registry=registry, flight=recorder).run()
            point = point.values[self.SIZE]
            out.expected += len(members)
            got = sorted(point.deliveries)
            if got != members:
                missing = sorted(set(members) - set(got))
                out.problems.append(f"{label}: missing {missing}")
                out.failed += len(members) - len(set(got) & set(members))
            out.delivered += len(point.deliveries)
            out.samples += [
                t - point.start_us for _, t in sorted(point.deliveries.items())
            ]
            out.sim_us += point.completion_us
            completions.append(point.completion_us)
            out.fingerprint.append((label, repr(point.completion_us),
                                    sorted(point.deliveries.items())))
            if recorder is not None:
                out.flights.append(recorder)
                problems = _host_delivery_problems(recorder)
                out.problems += [f"{label}: {p}" for p in problems]
                out.failed += len(problems)
        if pinned and tuple(completions) != self.PINNED:
            _fail_all(out, f"pinned completions {completions} != "
                           f"{list(self.PINNED)}")
        return out


WORKLOADS = {wl.name: wl for wl in (Serving(), Clos1024(), Repair())}


def fingerprint_json(outcome: Outcome) -> str:
    """Canonical JSON of a fingerprint, for exact repeat comparison."""
    return json.dumps(outcome.fingerprint, sort_keys=True, default=repr)

"""Parallel-kernel benchmark: 256-node Clos serving, serial vs. shards.

The sharded conservative-parallel kernel (:mod:`repro.sim.parallel`)
makes two claims, and this benchmark measures both on one pinned
workload:

* **Determinism** — two claims, asserted separately.  (a) Partitioned
  execution is *self-deterministic*: every partitioned configuration —
  2 or 4 shards, in-process or process-per-shard — produces one
  byte-identical :class:`~repro.workload.serving.ServingStats`
  snapshot.  (b) Against serial, every count (posts, deliveries,
  churn, per-group tallies) and every reported quantile must match
  exactly.  What sharding does *not* promise to reproduce is serial's
  same-instant tie order on contended links: when two walks claim one
  channel in the same simulated instant, serial grants them in global
  scheduling order, while a shard grants them in its local order — a
  swap costs the loser one serialization time and saves the winner
  the same (counts and conservative-window safety are untouched; a
  genuinely late message would raise in ``schedule_callback``).  The
  probe measures that drift — on this workload, a few µs of mean
  shift in 2 of 96 groups — and reports it instead of calling it
  either zero or noise.  Workloads without such ties (the golden
  trace, the fig-3 sweep, the smoke serving tests) replay serial
  byte-identically, which the test suite asserts.
* **Scaling** — with one OS process per shard, events/sec should grow
  with workers.  The conservative conductor only pays off when a safe
  window carries enough work to amortize the per-window pipe
  round-trip, so the workload is sized for that regime: a 256-node
  two-level Clos with long cables (the cut-link latency *is* the
  lookahead) and enough concurrent groups that every window is busy.

The wall-clock comparison needs real cores.  On a single-CPU host the
process passes would just time-slice one core, so they are skipped and
the report carries ``"parallel_comparison": "skipped-1cpu"``; the
determinism probe still runs — it is a correctness claim, not a speed
claim.  CI regenerates this report on a multi-core runner and gates
the 4-worker median speedup at :data:`SCALING_FLOOR`.

Usage::

    python -m repro.perf.bench_parallel           # full, BENCH_parallel.json
    python -m repro.perf.bench_parallel --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from dataclasses import replace
from statistics import median
from typing import Any

__all__ = [
    "parallel_spec",
    "bench_parallel",
    "WORKER_COUNTS",
    "SCALING_FLOOR",
    "main",
]

#: Shard counts measured against serial (process-per-shard).
WORKER_COUNTS = (2, 4)

#: Minimum acceptable median events/sec speedup vs. serial, per worker
#: count, enforced on multi-core runners by the CI ``parallel-scaling``
#: job (``--check-scaling``).  The 4-worker floor is the acceptance
#: bar; the 2-worker floor just catches a conductor that
#: stopped overlapping shards at all.
SCALING_FLOOR = {2: 1.2, 4: 2.0}


def parallel_spec(smoke: bool = False):
    """The canonical partitioning workload (pinned spec + seed).

    256 nodes on a two-level Clos (radix 16: 32 leaves, 8 spines), 96
    concurrent groups of 6 cycling through all four sustained-capable
    schemes, Poisson arrivals, no churn (membership is partitioned
    state, so churn and sharding are mutually exclusive by spec
    validation).  The cost model pins long cables — 4 µs links, 6 µs
    crossbar hops — because the conservative lookahead is the minimum
    cut-link latency: long cables mean wide safe windows, the regime
    where sharding pays for its synchronization (see
    ``docs/performance.md``).  Short-cable clusters simulate fastest
    serially; this benchmark is about the clusters that don't.
    """
    from repro.gm.params import GMCostModel
    from repro.scenario import TrafficSpec, serving_point

    return serving_point(
        n_nodes=256,
        traffic=TrafficSpec(
            duration_us=2_000.0 if smoke else 10_000.0,
            n_groups=96,
            group_size=6,
            rate_per_group=1 / 500.0,
            sizes=(8_192, 32_768),
            schemes=(
                "nic_based", "nic_multisend", "host_based", "nic_assisted",
            ),
            churn_interval_us=0.0,
            warmup_us=500.0 if smoke else 1_000.0,
        ),
        cost=GMCostModel(link_latency=4.0, switch_hop_latency=6.0),
        seed=23,
        name="bench_parallel",
    )


def _partitioned(spec, shards: int, processes: bool):
    from repro.scenario.spec import PartitionSpec

    return replace(
        spec,
        partition=PartitionSpec(
            shards=shards, partitioner="switch_affine", processes=processes
        ),
    )


def bench_parallel(repeats: int = 3, smoke: bool = False) -> dict[str, Any]:
    """Serial vs. 2- and 4-shard rates on the pinned 256-node workload.

    Every pass (serial and partitioned) must produce the same
    observables — the rate comparison is only meaningful between runs
    of the *same* simulation.  Rates are ``serial sim_events / wall``
    for every configuration (the same work divided by each mode's wall
    clock, so the ratios are honest speedups); CI gates the median.
    """
    import repro.workload  # noqa: F401  (registers the serving runner)
    from repro.scenario import Harness

    cpus = os.cpu_count() or 1
    spec = parallel_spec(smoke=smoke)

    def one_pass(s) -> tuple[Any, float]:
        started = time.perf_counter()
        stats = Harness(s).run().values[0]
        wall = time.perf_counter() - started
        return stats, wall

    def tie_free_view(snap: dict[str, Any]) -> dict[str, Any]:
        """The snapshot minus the fields same-instant ties may move.

        Everything here must match serial exactly: the counts, the
        rates derived from counts, and the reported quantiles.  What
        is dropped: ``sim_events`` (a tie that parks a walk serial
        fast-claims adds one counted grant event) and the per-group
        mean/max delivery times (a grant swap shifts individual
        latencies by one serialization time).  See the module
        docstring.
        """
        view = {k: v for k, v in snap.items() if k != "sim_events"}
        view["per_group"] = {
            gid: {
                k: v
                for k, v in group.items()
                if k not in ("mean_delivery_us", "max_delivery_us")
            }
            for gid, group in snap["per_group"].items()
        }
        return view

    def tie_drift_us(snap: dict[str, Any], ref: dict[str, Any]) -> float:
        """Largest per-group mean/max delivery shift vs. serial (µs)."""
        drift = 0.0
        for gid, group in snap["per_group"].items():
            for k in ("mean_delivery_us", "max_delivery_us"):
                drift = max(drift, abs(group[k] - ref["per_group"][gid][k]))
        return drift

    gc.collect()  # GC-isolate from whatever ran earlier in-process
    one_pass(parallel_spec(smoke=True))  # warmup, untimed
    serial_passes = [one_pass(spec) for _ in range(max(1, repeats))]
    serial_events = serial_passes[0][0].sim_events
    serial_snap = serial_passes[0][0].snapshot()
    for stats, _ in serial_passes[1:]:
        if stats.snapshot() != serial_snap:
            raise AssertionError("serial serving run is not deterministic")
    reference = tie_free_view(serial_snap)
    partitioned_snap: dict[str, Any] | None = None

    def check_partitioned(stats, label: str) -> None:
        nonlocal partitioned_snap
        snap = stats.snapshot()
        if tie_free_view(snap) != reference:
            raise AssertionError(
                f"{label}: partitioned counts/quantiles diverged from serial"
            )
        if partitioned_snap is None:
            partitioned_snap = snap
        elif snap != partitioned_snap:
            raise AssertionError(
                f"{label}: partitioned run is not shard-count/mode invariant"
            )

    def rate_block(passes) -> dict[str, Any]:
        rates = [
            round(serial_events / wall) for _, wall in passes if wall > 0
        ]
        _stats, best_wall = min(passes, key=lambda p: p[1])
        return {
            "events": serial_events,
            "wall_s": round(best_wall, 4),
            "events_per_sec": max(rates) if rates else None,
            "median_events_per_sec": round(median(rates)) if rates else None,
            "repeat_rates": rates,
        }

    report: dict[str, Any] = {
        "benchmark": "repro.perf.bench_parallel",
        "workload": (
            "256-node Clos (radix 16), 96 groups x 6, mixed schemes, "
            f"{spec.traffic.duration_us:g} us, long-cable cost model"
        ),
        "cpu_count": cpus,
        "serial": rate_block(serial_passes),
        "determinism": {},
        "workers": {},
    }

    # Determinism probe: runs on any host — it is the correctness half
    # of the benchmark (the scaling half below needs real cores).
    for shards in WORKER_COUNTS:
        stats, _ = one_pass(_partitioned(spec, shards, processes=False))
        check_partitioned(stats, f"{shards}-shard inline")
        snap = stats.snapshot()
        report["determinism"][str(shards)] = {
            "counts_and_quantiles": "identical",
            "sim_events_drift": stats.sim_events - serial_events,
            "tie_drift_us": round(tie_drift_us(snap, serial_snap), 3),
        }

    if cpus == 1:
        report["parallel_comparison"] = "skipped-1cpu"
        return report

    report["parallel_comparison"] = "measured"
    serial_median = report["serial"]["median_events_per_sec"]
    for shards in WORKER_COUNTS:
        gc.collect()  # same GC footing as the serial passes
        pspec = _partitioned(spec, shards, processes=True)
        one_pass(pspec)  # warmup: fork + import cost out of the timing
        passes = [one_pass(pspec) for _ in range(max(1, repeats))]
        for stats, _ in passes:
            check_partitioned(stats, f"{shards}-worker processes")
        block = rate_block(passes)
        block["speedup_vs_serial_median"] = (
            round(block["median_events_per_sec"] / serial_median, 2)
            if serial_median
            else None
        )
        block["scaling_floor"] = SCALING_FLOOR.get(shards)
        report["workers"][str(shards)] = block
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf-parallel",
        description="Benchmark the sharded kernel against serial.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-long run proving the harness works",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timed passes per configuration (default: 3)",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_parallel.json",
        help="report path (default: BENCH_parallel.json)",
    )
    parser.add_argument(
        "--check-scaling", action="store_true",
        help="exit non-zero if any measured median speedup is below "
        "its SCALING_FLOOR (no-op when the comparison was skipped)",
    )
    args = parser.parse_args(argv)
    report = bench_parallel(repeats=args.repeats, smoke=args.smoke)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    if args.check_scaling and report["parallel_comparison"] == "measured":
        failures = [
            f"{shards} workers: {block['speedup_vs_serial_median']}x "
            f"< floor {block['scaling_floor']}x"
            for shards, block in report["workers"].items()
            if block["speedup_vs_serial_median"] is not None
            and block["scaling_floor"] is not None
            and block["speedup_vs_serial_median"] < block["scaling_floor"]
        ]
        if failures:
            print("scaling gate FAILED: " + "; ".join(failures))
            return 1
        print("scaling gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

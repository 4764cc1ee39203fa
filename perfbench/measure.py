"""Untraced and traced measurement of one workload.

Untraced (``--trace 0``) gives the end-to-end metrics.  Realization 0
is first run once, untimed.  Process-level memos such as the ack-trip
probe fill here, and ``KERNEL_COUNTERS`` is reset before every pass.
Then timed passes cycle through the realizations until the run's
seconds are spent and each realization ran at least once.  Host times
are medians over the passes, each scaled to the reference host speed
that :mod:`speed` samples during the pass; the raw times are kept in the
record.  Modelled times pool the samples of every realization.  Every
repeat of a realization must reproduce its checked output and event
count exactly, or the run fails.

Traced (``--trace 1``) gives the per-layer metrics from realization 0:
untraced passes for the base wall time, then one pass under the
benchmark's profile hook with a ``MetricsRegistry`` and flight recorders
attached through ``Harness(registry=, flight=)``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from workloads import WORKLOADS, Outcome, fingerprint_json

__all__ = [
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "host_fingerprint",
    "measure_untraced",
    "measure_traced",
    "peak_rss_probe",
    "tail_percentile",
]

#: End-to-end metrics (name -> unit), reported with ``--trace 0``.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "wall_us_per_delivery": "us",
    "peak_rss_mb": "MB",
    "delivery_p50_us": "us",
    "delivery_tail_us": "us",
    "sim_goodput_msgs_per_s": "1/s",
    "delivered_share": "share",
}

#: Layers whose self time and span count the traced run reports;
#: everything else (config, errors, coll, mpi, perf, the benchmark's own
#: code) is summed into ``other``.
LAYERS = (
    "sim", "net", "nic", "gm", "mcast", "proto", "trees", "workload",
    "scenario", "cluster", "host", "obs",
)

#: Exact counts of the traced run: registry counters, kernel counters
#: and hook call counts.
COUNTS = {
    "sim.events": "count",
    "sim.batched_events": "count",
    "sim.process_resumes": "count",
    "net.packets_delivered": "count",
    "net.link_bytes": "bytes",
    "net.queue_wait_us": "us",
    "net.failure_drops": "count",
    "nic.packets_sent": "count",
    "nic.rx_overruns": "count",
    "mcast.replicas_sent": "count",
    "mcast.retransmit_packets": "count",
    "mcast.drops.duplicate": "count",
    "proto.timer_fires": "count",
    "proto.timer_stale_fires": "count",
    "proto.retransmit_timeouts": "count",
    "proto.nack_sent": "count",
    "proto.fec_repairs": "count",
    "proto.timer_useful_ratio": "ratio",
    "mcast.duplicate_ratio": "ratio",
}

SEGMENTS = ("host", "nic", "wire", "queue", "retransmit_wait",
            "recovery_gap")

#: Per-layer metrics (name -> unit), reported with ``--trace 1``.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "other")},
    **{f"{layer}.calls": "count" for layer in (*LAYERS, "other")},
    **COUNTS,
    **{f"path.{seg}_us": "us" for seg in SEGMENTS},
    "trace_overhead": "ratio",
    "layers.coverage": "ratio",
    "failed_share": "share",
}

#: Percentiles the tail metric may report, lowest first.  The ladder
#: stops at p95: serving's p99 moves by +-40% between input draws even
#: pooled over 8 draws (rare churn stalls), so no regression bound could
#: hold it; the pooled p99 is recorded as a detail instead.
TAIL_LADDER = (50.0, 90.0, 95.0)

#: Self times (hook installed to hook removed) must account for the
#: traced wall time (the benchmark's own clock around the run) within
#: this share.
COVERAGE_TOLERANCE = 0.05


def host_fingerprint() -> dict[str, Any]:
    """Where a result was measured: compare only within one host."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quantile(ordered: list[float], q: float) -> float:
    """The ``q``-quantile of sorted samples (``ServingStats.quantile``'s
    nearest-rank rule, so serving's pinned p99 reads the same)."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_percentile(per_realization: list[int]) -> float:
    """Highest ladder percentile with >= 10 samples beyond it in *every*
    realization (so each draw resolves it; pooling then sharpens it)."""
    smallest = min(per_realization)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if smallest * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


@dataclass
class Pass:
    realization: int
    wall_s: float  #: raw wall time
    setup_s: float  #: raw set-up time
    events: int
    outcome: Outcome
    scale: float = 1.0  #: host-speed scale (``speed.SpeedProbe``)

    @property
    def host_wall_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.scale

    @property
    def host_setup_s(self) -> float:
        return self.setup_s * self.scale


def _one_pass(wl: Any, spec: Any, realization: int, pinned: bool,
              clock: Any, calibrate: bool = False, **attach: Any) -> Pass:
    from repro.perf.counters import KERNEL_COUNTERS
    from speed import SpeedProbe

    gc.collect()
    clock.reset()
    KERNEL_COUNTERS.reset()
    probe = SpeedProbe() if calibrate else contextlib.nullcontext()
    with probe:
        began = time.perf_counter()
        outcome = wl.run(spec, pinned, **attach)
        wall = time.perf_counter() - began
    return Pass(realization, wall, clock.seconds, KERNEL_COUNTERS.events,
                outcome, probe.scale if calibrate else 1.0)


def _prepare(wl: Any, seed: int, realizations: int) -> list[Any]:
    """Inputs for every realization, with process-level memos warmed."""
    from repro.gm.params import GMCostModel
    from repro.scenario import measured_ack_trip

    import repro.workload  # noqa: F401  (registers the serving runner)

    measured_ack_trip(GMCostModel())
    specs = [wl.specs(seed, r) for r in range(realizations)]
    for spec in specs:
        wl.prepare(spec)
    return specs


def _repeat_problems(passes: list[Pass]) -> list[str]:
    """Every repeat of a realization must match its first pass exactly."""
    first: dict[int, Pass] = {}
    problems = []
    for p in passes:
        ref = first.setdefault(p.realization, p)
        if p is ref:
            continue
        if p.events != ref.events:
            problems.append(
                f"realization {p.realization}: {p.events} events on a "
                f"repeat vs {ref.events}"
            )
            p.outcome.failed = p.outcome.expected
        if fingerprint_json(p.outcome) != fingerprint_json(ref.outcome):
            problems.append(
                f"realization {p.realization}: checked output differs "
                "between repeats"
            )
            p.outcome.failed = p.outcome.expected
    return problems


def _modelled(passes: list[Pass]) -> tuple[dict[str, float], dict]:
    firsts: dict[int, Outcome] = {}
    for p in passes:
        firsts.setdefault(p.realization, p.outcome)
    outcomes = [firsts[r] for r in sorted(firsts)]
    pooled = sorted(s for o in outcomes for s in o.samples)
    pct = tail_percentile([len(o.samples) for o in outcomes])
    delivered = sum(o.delivered for o in outcomes)
    sim_s = sum(o.sim_us for o in outcomes) * 1e-6
    metrics = {
        "delivery_p50_us": quantile(pooled, 0.5),
        "delivery_tail_us": quantile(pooled, pct / 100.0),
        "sim_goodput_msgs_per_s": delivered / sim_s,
    }
    detail = {
        "delivery_p99_us": quantile(pooled, 0.99),
        "tail_percentile": pct,
        "samples": len(pooled),
        "realizations": len(outcomes),
    }
    return metrics, detail


def measure_untraced(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of *name* at *seed*, timed for *seconds*."""
    from setup_clock import SetupClock

    wl = WORKLOADS[name]
    specs = _prepare(wl, seed, wl.realizations)
    pinned = seed == wl.pinned_seed
    with SetupClock() as clock:
        passes = [_one_pass(wl, specs[0], 0, pinned, clock)]  # warm-up
        deadline = time.perf_counter() + seconds
        i = 0
        while i < wl.realizations or time.perf_counter() < deadline:
            r = i % wl.realizations
            passes.append(_one_pass(wl, specs[r], r, pinned and r == 0,
                                    clock, calibrate=True))
            i += 1
    problems = _repeat_problems(passes)
    timed = passes[1:]
    for p in timed:
        problems += [f"realization {p.realization}: {x}"
                     for x in p.outcome.problems]
    attempted = sum(p.outcome.expected for p in timed)
    failed = sum(p.outcome.failed for p in timed)
    metrics = {
        "wall_s": statistics.median(p.host_wall_s for p in timed),
        "setup_s": statistics.median(p.host_setup_s for p in timed),
        "events_per_s": statistics.median(
            p.events / (p.host_wall_s - p.host_setup_s) for p in timed
        ),
        "wall_us_per_delivery": statistics.median(
            p.host_wall_s * 1e6 / max(1, p.outcome.delivered)
            for p in timed
        ),
    }
    modelled, detail = _modelled(timed)
    metrics.update(modelled)
    metrics["delivered_share"] = 1.0 - failed / attempted
    rss = peak_rss_probe(name, seed)
    metrics["peak_rss_mb"] = rss
    detail.update({
        "passes": len(timed),
        "events_per_realization": {
            str(p.realization): p.events for p in timed
        },
        "pass_wall_s": [p.wall_s for p in timed],
        "pass_setup_s": [p.setup_s for p in timed],
        "pass_scale": [p.scale for p in timed],
        "raw_wall_s": statistics.median(p.wall_s for p in timed),
    })
    return {
        "metrics": {k: metrics[k] for k in END_TO_END},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": detail,
    }


def _counts(registry: Any, kernel: dict[str, int], resumes: int) -> dict:
    def value(name: str) -> float:
        return registry.value(name, 0)

    hist = registry.get("net.queue_wait_us")
    fires = value("proto.timer_fires")
    received = value("nic.packets_received")
    counts = {
        "sim.events": kernel["events"],
        "sim.batched_events": kernel["batched_events"],
        "sim.process_resumes": resumes,
        "net.queue_wait_us": hist.total if hist is not None else 0.0,
        "proto.timer_useful_ratio": (
            (fires - value("proto.timer_stale_fires")) / fires
            if fires else 1.0
        ),
        "mcast.duplicate_ratio": (
            value("mcast.drops.duplicate") / received if received else 0.0
        ),
    }
    for name in COUNTS:
        if name not in counts:
            counts[name] = value(name)
    return counts


def _path_segments(
    flights: list[Any],
) -> tuple[dict[str, float], list[dict], list[str]]:
    """Mean modelled critical-path segments per delivered destination."""
    from repro.obs import critical_paths

    totals = dict.fromkeys(SEGMENTS, 0.0)
    n = 0
    problems = []
    per_flight = []
    for index, recorder in enumerate(flights):
        paths = critical_paths(recorder.events)
        worst = None
        for cp in paths:
            for dest in cp.destinations.values():
                n += 1
                for seg in SEGMENTS:
                    totals[seg] += dest.segments.get(seg, 0.0)
                if dest.exact and abs(
                    dest.segment_sum - dest.delivery_us
                ) > 1e-3:
                    problems.append(
                        f"flight {index}: trace {cp.trace_id} dest "
                        f"{dest.dest} segments sum to {dest.segment_sum} "
                        f"!= delivery {dest.delivery_us}"
                    )
                if worst is None or dest.delivery_us > worst.delivery_us:
                    worst = dest
        if worst is not None:
            per_flight.append({
                "flight": index,
                "critical_dest": worst.dest,
                "delivery_us": worst.delivery_us,
                "segments": worst.segments,
            })
    means = {
        f"path.{seg}_us": (totals[seg] / n if n else 0.0)
        for seg in SEGMENTS
    }
    return means, per_flight, problems


def measure_traced(name: str, seed: int, seconds: float,
                   package_dir: str) -> dict:
    """Per-layer metrics of realization 0 of *name* at *seed*."""
    from layers import OUTSIDE, LayerProfiler
    from setup_clock import SetupClock

    from repro.obs import FlightRecorder, MetricsRegistry
    from repro.perf.counters import KERNEL_COUNTERS
    from repro.sim.process import Process

    wl = WORKLOADS[name]
    specs = _prepare(wl, seed, 1)
    spec, pinned = specs[0], seed == wl.pinned_seed
    with SetupClock() as clock:
        passes = [_one_pass(wl, spec, 0, pinned, clock)]  # warm-up
        deadline = time.perf_counter() + seconds / 2
        while len(passes) < 3 or time.perf_counter() < deadline:
            passes.append(_one_pass(wl, spec, 0, pinned, clock))
    untraced_wall = statistics.median(p.wall_s for p in passes[1:])

    registry = MetricsRegistry()
    profiler = LayerProfiler(
        package_dir,
        count_calls={"sim.process_resumes": Process._resume.__code__},
    )
    cap = wl.FLIGHT_CAP
    gc.collect()
    KERNEL_COUNTERS.reset()
    profiler.start()
    began = time.perf_counter()
    traced = wl.run(spec, pinned, registry=registry,
                    flight=lambda: FlightRecorder(cap=cap))
    traced_wall = time.perf_counter() - began
    profiler.stop()
    kernel = KERNEL_COUNTERS.snapshot()
    passes.append(Pass(0, traced_wall, 0.0, kernel["events"], traced))

    problems = _repeat_problems(passes)
    for p in passes[1:]:
        problems += list(p.outcome.problems)
    if registry.value("proto.timer_fires", 0) != kernel["timer_fires"]:
        problems.append("registry and kernel counters disagree on "
                        "timer fires")
    dropped = sum(fr.dropped for fr in traced.flights)
    if dropped:
        problems.append(f"flight recorders overwrote {dropped} events")

    metrics: dict[str, float] = {}
    other_s = other_calls = 0
    for layer, s in profiler.self_s.items():
        if layer not in LAYERS:
            other_s += s
            other_calls += profiler.calls.get(layer, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = profiler.self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = profiler.calls.get(layer, 0)
    metrics["other.self_s"] = other_s
    metrics["other.calls"] = other_calls
    metrics.update(_counts(
        registry, kernel, profiler.call_counts["sim.process_resumes"]
    ))
    segments, per_flight, path_problems = _path_segments(traced.flights)
    problems += path_problems
    metrics.update(segments)
    metrics["trace_overhead"] = traced_wall / untraced_wall
    coverage = sum(profiler.self_s.values()) / traced_wall
    metrics["layers.coverage"] = coverage
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"layer self times cover {coverage:.3f} of the "
                        "traced wall time")
    timed = passes[1:]
    attempted = sum(p.outcome.expected for p in timed)
    failed = sum(p.outcome.failed for p in timed)
    metrics["failed_share"] = failed / attempted
    shares = {
        layer: s / profiler.wall_s for layer, s in profiler.ranking()
    }
    return {
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "layer_shares": shares,
            "outside_self_s": profiler.self_s.get(OUTSIDE, 0.0),
            "kernel_counters": kernel,
            "registry": registry.snapshot(),
            "critical_per_flight": per_flight,
        },
        "profile": profiler.to_dict(),
    }


def peak_rss_probe(name: str, seed: int) -> float:
    """Peak RSS (MB) of a fresh process running one pass of *name*."""
    script = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", name,
         "--seed", str(seed), "--rss-probe"],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"peak RSS probe failed ({proc.returncode}): {proc.stderr}"
        )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])[
        "peak_rss_mb"
    ])


def rss_probe_main(name: str, seed: int) -> float:
    """Child side of :func:`peak_rss_probe`: run one pass, report RSS."""
    import resource

    from setup_clock import SetupClock

    wl = WORKLOADS[name]
    specs = _prepare(wl, seed, 1)
    with SetupClock() as clock:
        _one_pass(wl, specs[0], 0, seed == wl.pinned_seed, clock)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

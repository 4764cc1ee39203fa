"""The pinned serving workload: sustained multicast traffic with churn.

Concurrent multicast groups with mixed schemes, Poisson arrivals and
membership churn (:mod:`repro.workload`): the traffic shape that
hammers same-instant event bursts (fan-out replication) and
retransmit-timer arm/cancel churn, i.e. exactly what Kernel v3's batch
drain and timer wheel optimize.  The spec and seed are pinned, so the
processed-event count is deterministic.  The repo benchmark
(``perfbench/``, workload ``serving``) times it and
``tests/perf/test_counts.py`` pins its exact cost counts.
"""

from __future__ import annotations

__all__ = ["serving_spec"]


def serving_spec():
    """The canonical benchmark workload (pinned spec + seed).

    16 nodes, 8 groups of 6 cycling through all four sustained-capable
    schemes, mixed 8 KiB / 32 KiB messages (2–8 MTU packets each, so
    fan-out replication and ack traffic dominate the schedule), and
    membership churn — small enough to run in a couple of seconds,
    busy enough that same-instant bursts and retransmit-timer
    arm/cancel churn dominate the kernel's event mix.
    """
    from repro.scenario import TrafficSpec, serving_point

    return serving_point(
        n_nodes=16,
        traffic=TrafficSpec(
            duration_us=120_000.0,
            n_groups=8,
            group_size=6,
            rate_per_group=1 / 2_000.0,
            sizes=(8_192, 32_768),
            schemes=(
                "nic_based", "nic_multisend", "host_based", "nic_assisted",
            ),
            churn_interval_us=5_000.0,
            warmup_us=2_000.0,
        ),
        seed=11,
        name="bench_serving",
    )

"""RetransmitTimer regression tests: cancellation storms stay O(1).

The serving workload arms and defuses retransmission timers once per
window round-trip — thousands of times per run, with almost no real
timeouts.  These tests pin the Kernel v3 contract for that regime: a
window that is always acked before its deadline produces *zero* stale
fires (the wheel cancellation removes the pop before it reaches the
event loop) and bounded counter growth (one scheduled timer and one
cancellation per burst, regardless of how many records each burst
arms).
"""

from repro.perf import KERNEL_COUNTERS
from repro.proto.timer import RetransmitTimer
from repro.proto.window import NEVER, SendWindow
from repro.sim import Simulator


class _Record:
    __slots__ = ("seq", "deadline")

    def __init__(self, seq: int):
        self.seq = seq
        self.deadline = NEVER


def test_cancellation_storm_zero_stale_fires_and_bounded_counters():
    """200 bursts of 4 records, all acked before the 400 µs deadline."""
    sim = Simulator()
    window = SendWindow()
    expired = []
    timer = RetransmitTimer(sim, 400.0, window, expired.append)
    bursts, burst_size = 200, 4

    def driver():
        seq = 0
        for _ in range(bursts):
            records = [_Record(seq + i) for i in range(burst_size)]
            seq += burst_size
            for record in records:
                window.add(record)
                timer.arm(record)
            # The cumulative ack lands well before the deadline.
            yield sim.timeout(100.0)
            for record in records:
                window.pop(record.seq)
            timer.defuse()

    KERNEL_COUNTERS.reset()
    sim.process(driver())
    sim.run()
    snap = KERNEL_COUNTERS.snapshot()

    assert expired == []
    assert timer.idle
    # Zero stale pops: every would-be fire was cancelled in the wheel.
    assert snap["timer_fires"] == 0
    assert snap["timer_stale_fires"] == 0
    # Bounded heap traffic: one schedule + one cancel per burst, however
    # many records the burst armed (the lazy per-window design), and
    # every cancelled timer died inside the wheel.
    assert snap["timers_armed"] == bursts * burst_size
    assert snap["timers_scheduled"] == bursts
    assert snap["timers_cancelled"] == bursts
    assert snap["wheel_cancelled"] >= bursts


def test_real_timeout_still_fires_after_storm():
    """Defusing never disarms a window that still has unacked records."""
    sim = Simulator()
    window = SendWindow()
    expired = []
    timer = RetransmitTimer(sim, 400.0, window, expired.append)

    def driver():
        # A churn of acked records first...
        for seq in range(50):
            record = _Record(seq)
            window.add(record)
            timer.arm(record)
            yield sim.timeout(10.0)
            window.pop(record.seq)
            timer.defuse()
        # ...then one record nobody acks.
        lost = _Record(1000)
        window.add(lost)
        timer.arm(lost)
        yield sim.timeout(1000.0)

    KERNEL_COUNTERS.reset()
    sim.process(driver())
    sim.run()

    assert [record.seq for record in expired] == [1000]
    assert expired[0].deadline == NEVER  # swept until explicitly re-armed
    assert KERNEL_COUNTERS.timer_stale_fires == 0


def test_defuse_after_wheel_flush_counts_skip_not_double_cancel():
    """Rearm-after-cancel when the ack lands inside the final wheel slot.

    With a 400 µs timeout the deadline's level-0 slot (width 64 µs)
    flushes at 384 µs — an ack at 399 µs defuses a handle that is
    already live in the heap.  The defuse is still one
    ``timers_cancelled`` and zero stale fires, but the handle's disposal
    must land in ``wheel_skipped`` (discarded at pop), not be
    double-booked as both ``wheel_flushed`` *and* an invisible cancel:
    ``timers_cancelled == wheel_cancelled + wheel_skipped`` holds once
    the queue drains.
    """
    sim = Simulator()
    window = SendWindow()
    expired = []
    timer = RetransmitTimer(sim, 400.0, window, expired.append)

    def driver():
        first = _Record(1)
        window.add(first)
        timer.arm(first)  # deadline 400, slot flushes at 384
        yield sim.timeout(399.0)
        window.pop(first.seq)
        timer.defuse()  # handle already flushed to the heap
        # Rearm-after-cancel: a fresh record straight away, acked well
        # before its deadline so this cancel dies inside the wheel.
        second = _Record(2)
        window.add(second)
        timer.arm(second)
        yield sim.timeout(10.0)
        window.pop(second.seq)
        timer.defuse()

    KERNEL_COUNTERS.reset()
    sim.process(driver())
    sim.run()
    snap = KERNEL_COUNTERS.snapshot()

    assert expired == []
    assert snap["timer_fires"] == 0
    assert snap["timer_stale_fires"] == 0
    assert snap["timers_cancelled"] == 2
    # First defuse: slot had flushed, the pop is skipped without
    # dispatch.  Second defuse: dropped inside the wheel at flush.
    assert snap["wheel_skipped"] == 1
    assert snap["wheel_cancelled"] == 1
    assert snap["timers_cancelled"] == (
        snap["wheel_cancelled"] + snap["wheel_skipped"]
    )
    # Every wheel entry is accounted for exactly once.
    assert snap["wheel_armed"] == (
        snap["wheel_flushed"] + snap["wheel_cancelled"]
    )


def test_defuse_is_a_noop_with_records_outstanding():
    sim = Simulator()
    window = SendWindow()
    timer = RetransmitTimer(sim, 400.0, window, lambda record: None)

    def driver():
        record = _Record(0)
        window.add(record)
        timer.arm(record)
        yield sim.timeout(1.0)
        timer.defuse()  # records remain: must not cancel
        assert not timer.idle

    sim.process(driver())
    sim.run(until=2.0)


def test_timer_churn_on_a_retransmitting_multicast():
    """Twenty 4 KiB multicasts over an 8-node optimal tree with one
    forced retransmission (data seq 1 dropped once).

    Before the per-window :class:`RetransmitTimer`, every (re)arm pushed
    its own ``call_at(lambda ...)`` heap callback: 141 callbacks, 117
    fires, 116 of them stale.  The protocol still issues exactly those
    141 (re)arm requests; the per-window timer turns far fewer of them
    into heap traffic.  The counts come from a registry attached to the
    run (what the ``repro.obs`` health report prints) and must agree
    with the ``KERNEL_COUNTERS`` delta.
    """
    from repro.cluster import Cluster
    from repro.config import ClusterConfig
    from repro.gm.params import GMCostModel
    from repro.mcast.manager import install_group
    from repro.net.fault import ScriptedLoss
    from repro.net.packet import PacketType
    from repro.obs.registry import MetricsRegistry
    from repro.trees import build_tree

    n, size, rounds = 8, 4096, 20
    cost = GMCostModel()
    loss = ScriptedLoss(
        lambda p: p.header.ptype is PacketType.MCAST_DATA
        and p.header.seq == 1,
        times=1,
    )
    cluster = Cluster(ClusterConfig(n_nodes=n, cost=cost, seed=0), loss=loss)
    registry = MetricsRegistry()
    cluster.sim.metrics = registry
    dests = list(range(1, n))
    install_group(
        cluster, 1, build_tree(0, dests, shape="optimal", cost=cost, size=size)
    )

    def root():
        for _ in range(rounds):
            handle = yield from cluster.node(0).mcast.multicast_send(
                cluster.port(0), 1, size
            )
            yield handle.done

    def member(i):
        port = cluster.port(i)
        for _ in range(rounds):
            yield from port.receive()
            yield from port.provide_receive_buffer()

    KERNEL_COUNTERS.reset()
    procs = [cluster.spawn(root())] + [cluster.spawn(member(i)) for i in dests]
    cluster.run(until=cluster.sim.all_of(procs))
    snap = KERNEL_COUNTERS.snapshot()

    counts = {
        name: registry.value(f"proto.{name}")
        for name in (
            "timers_armed", "timers_scheduled", "timer_fires",
            "timer_stale_fires",
        )
    }
    assert counts == {name: snap[name] for name in counts}
    # The same 141 (re)arm requests as the old per-record callbacks...
    assert counts == {
        "timers_armed": 141,
        "timers_scheduled": 61,
        "timer_fires": 2,
        "timer_stale_fires": 1,
    }
    # ...and less heap traffic than the old 141 callbacks, 117 fires
    # and 116 stale fires.
    pre_refactor = {
        "timers_scheduled": 141, "timer_fires": 117, "timer_stale_fires": 116,
    }
    assert all(counts[name] < pre_refactor[name] for name in pre_refactor)

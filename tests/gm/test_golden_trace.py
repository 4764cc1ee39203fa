"""Golden-trace identity for GM unicast Go-back-N.

Counters alone cannot tell one retransmission order from another.  This
test pins the *complete* trace of a 2-node, 3-packet GM send in which
data seq 2 is lost once and the final ACK is lost once, so the timeout,
the Go-back-N sweep (seq 2 and every later unacked packet), the
out-of-order drop and the duplicate re-ack are all on the wire.  The
fixture is compared record for record.

Regenerate the fixture (only after deliberately changing the model)::

    PYTHONPATH=src python tests/gm/test_golden_trace.py
"""

from pathlib import Path

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.net.fault import ScriptedLoss
from repro.net.packet import PacketType

FIXTURE = Path(__file__).with_name("golden_unicast_trace.txt")


def _lose_once(*targets):
    """Loss predicate dropping each ``(ptype, seq)`` target once; an ACK
    is identified by the cumulative seq it acknowledges."""
    pending = set(targets)

    def match(pkt):
        h = pkt.header
        key = (h.ptype, h.ack_seq if h.ptype is PacketType.ACK else h.seq)
        if key in pending:
            pending.discard(key)
            return True
        return False

    return match


def golden_lines(size=12288, seed=0):
    """Full trace of a retransmitting 2-node GM send, one line per record.

    Packet uids and message ids come from process-global allocators;
    both are renumbered by first appearance so the fixture pins the
    *sequence*, not the allocator state.
    """
    cost = GMCostModel()
    # Data seq 2 is lost once (seq 3 arrives out of order and is
    # dropped, so the sweep resends both); the ACK covering seq 3 is
    # lost once too (the next timeout resends seq 3 as a duplicate that
    # the receiver re-acks).
    loss = ScriptedLoss(
        _lose_once((PacketType.DATA, 2), (PacketType.ACK, 3)), times=2
    )
    cluster = Cluster(
        ClusterConfig(n_nodes=2, cost=cost, seed=seed, trace=True), loss=loss
    )

    def sender():
        handle = yield from cluster.port(0).send(1, size)
        yield handle.done

    def receiver():
        yield from cluster.port(1).receive()

    procs = [cluster.spawn(sender()), cluster.spawn(receiver())]
    cluster.run(until=cluster.sim.all_of(procs))

    assert loss.dropped == 2, f"expected two forced drops, got {loss.dropped}"
    categories = [r.category for r in cluster.sim.trace]
    assert "retransmit" in categories, "golden run must exercise Go-back-N"
    assert "ooo_drop" in categories, "golden run must drop out of order"
    assert cluster.node(1).gm.duplicates_dropped >= 1

    renumber = {"uid": {}, "msg": {}}
    lines = []
    for rec in cluster.sim.trace:
        fields = dict(rec.fields)
        for key, seen in renumber.items():
            if key in fields:
                fields[key] = seen.setdefault(fields[key], len(seen))
        rendered = ",".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        lines.append(f"{rec.time:.6f} {rec.component} {rec.category} {rendered}")
    return lines


def test_unicast_golden_trace_identical_to_fixture():
    expected = FIXTURE.read_text().splitlines()
    actual = golden_lines()
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, f"trace diverges at record {i}:\n-{want}\n+{got}"
    assert len(actual) == len(expected), (
        f"trace length changed: fixture {len(expected)}, run {len(actual)}"
    )


if __name__ == "__main__":  # fixture regeneration entry point
    lines = golden_lines()
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE} ({len(lines)} records)")

"""GM token pools and NIC SRAM buffer pools are built on first use.

A fresh cluster holds no token or buffer objects, yet every pool reports
its full count, and scripted acquire/release sequences issue exactly
what an eagerly filled pool would: the same buffer indices, the same
reuse order, and the same exhaustion point.
"""

import gc
from collections import deque

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import TokenExhausted
from repro.gm.tokens import ReceiveToken, SendToken
from repro.nic.sram import BufferPool, SRAMBuffer
from repro.sim import Simulator

POOLED = (SendToken, ReceiveToken, SRAMBuffer)


def _instances():
    return {t: sum(type(o) is t for o in gc.get_objects()) for t in POOLED}


def test_fresh_cluster_builds_no_pool_objects():
    gc.collect()
    gc.disable()
    try:
        before = _instances()
        cluster = Cluster(ClusterConfig(n_nodes=64))
        after = _instances()
    finally:
        gc.enable()
    assert after == before
    cost = cluster.cost
    for i in range(64):
        port = cluster.port(i)
        assert port.free_send_tokens == cost.send_tokens_per_port
        assert port.free_recv_tokens == cluster.config.prepost_recv_tokens
        nic = cluster.node(i).nic
        for pool in (nic.send_buffers, nic.recv_buffers):
            assert pool.free == pool.size and pool.in_use == 0


class _EagerPool:
    """The buffer pool as it was when every buffer was built up front."""

    def __init__(self, size):
        self.size = size
        self.free = list(range(size))
        self.misses = 0
        self.max_in_use = 0

    def try_acquire(self):
        if not self.free:
            self.misses += 1
            return None
        index = self.free.pop()
        self.max_in_use = max(self.max_in_use, self.size - len(self.free))
        return index

    def release(self, index):
        self.free.append(index)


# (op, arg): "try" acquires, "wait" acquires blocking, "rel" releases the
# arg-th buffer still held (by acquisition order).
SCRIPT = [
    ("try", None), ("try", None), ("rel", 0), ("try", None), ("try", None),
    ("wait", None), ("try", None), ("try", None), ("rel", 2), ("rel", 0),
    ("wait", None), ("try", None), ("try", None), ("rel", 1), ("rel", 0),
    ("rel", 0), ("try", None), ("wait", None), ("try", None),
]


def test_buffer_pool_issues_like_eager_pool():
    sim = Simulator()
    pool, eager = BufferPool(sim, 5), _EagerPool(5)
    held, eager_held, issued, eager_issued = [], [], [], []
    for op, arg in SCRIPT:
        if op == "rel":
            held.pop(arg).release()
            eager.release(eager_held.pop(arg))
            continue
        if op == "try" or pool.free == 0:
            buf = pool.try_acquire()
        else:
            ev = pool.acquire()
            assert ev.triggered
            buf = ev.value
        index = eager.try_acquire()
        issued.append(None if buf is None else buf.index)
        eager_issued.append(index)
        if buf is not None:
            held.append(buf)
            eager_held.append(index)
    assert issued == eager_issued
    assert issued[:3] == [4, 3, 4]
    assert None in issued
    assert (pool.misses, pool.max_in_use) == (eager.misses, eager.max_in_use)
    assert pool.free == len(eager.free)


def test_blocked_acquire_gets_first_released_buffer():
    sim = Simulator()
    pool = BufferPool(sim, 2)
    a, b = pool.try_acquire(), pool.try_acquire()
    waiter = pool.acquire()
    assert not waiter.triggered
    b.release()
    assert waiter.triggered and waiter.value is b
    assert pool.free == 0 and a.index == 1


def _ordinals(objs):
    seen = {}
    return [seen.setdefault(id(o), len(seen)) for o in objs]


def test_send_tokens_lifo_and_exhaust_like_eager_pool():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    port = cluster.port(0)
    n = cluster.cost.send_tokens_per_port
    eager = [object() for _ in range(n)]
    taken, eager_taken, out, eager_out = [], [], [], []
    for step in range(3 * n):
        if step % 3 == 2:  # return the oldest token still out
            port.complete_send(out.pop(0))
            eager.append(eager_out.pop(0))
            continue
        if not eager:
            with pytest.raises(TokenExhausted, match="no free send tokens"):
                port.take_send_token()
            taken.append(None)
            eager_taken.append(None)
            continue
        token = port.take_send_token()
        out.append(token)
        taken.append(token)
        eager_out.append(eager.pop())
        eager_taken.append(eager_out[-1])
        assert port.free_send_tokens == len(eager)
    assert None in taken
    assert _ordinals(taken) == _ordinals(eager_taken)


def test_recv_tokens_fifo_preposted_first():
    cluster = Cluster(ClusterConfig(n_nodes=2, prepost_recv_tokens=3))
    port = cluster.port(0)
    eager = deque(ReceiveToken(0) for _ in range(3))
    claimed = [port.take_recv_token(), port.take_recv_token()]
    expected = [eager.popleft(), eager.popleft()]
    list(port.provide_receive_buffer(count=2, size=512))
    eager.extend(ReceiveToken(0, size=512) for _ in range(2))
    assert port.free_recv_tokens == len(eager) == 3
    while eager:
        claimed.append(port.take_recv_token())
        expected.append(eager.popleft())
    assert port.take_recv_token() is None
    assert [t.size for t in claimed] == [t.size for t in expected]
    assert [t.size for t in claimed] == [0, 0, 0, 512, 512]
    assert len({id(t) for t in claimed}) == 5

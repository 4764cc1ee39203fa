"""Source routes from the link-table search match a networkx oracle.

The oracle derives each route independently of the topology's search:
every shortest path on the cable graph minus failed switches and cables
(``networkx.restricted_view`` + all shortest paths), sorted, one picked
by the crc32 of the pair.  Every chosen route must be the same links,
and "no path" must agree between the oracle, :meth:`Topology.route`
and :meth:`Topology.has_path`.
"""

import itertools
import random
import zlib

import networkx as nx
import pytest

from repro.errors import RoutingError
from repro.net import clos, from_graph, line, single_switch
from repro.sim import Simulator

BW, LINK_LAT, HOP_LAT = 250.0, 0.1, 0.2
FAILURE_COUNTS = (0, 1, 3, 8)


def _oracle_routes(topo, pairs):
    """``{(src, dst): link names, or None without a path}`` for *pairs*.

    The graph minus failed switches and cables, as ``restricted_view``
    gave it, copied to a plain graph; all shortest paths per source from
    networkx (``single_source_all_shortest_paths`` is
    ``all_shortest_paths`` with one breadth-first pass per source),
    sorted, one picked by the crc32 of the pair.
    """
    graph = nx.Graph()
    graph.add_nodes_from(("nic", i) for i in range(topo.n_nodes))
    graph.add_nodes_from(("switch", s) for s in range(topo.switch_count()))
    graph.add_edges_from(topo.cables())
    graph = nx.Graph(nx.restricted_view(
        graph,
        [("switch", s) for s in topo._down_switches],
        list(topo._down_edges),
    ))
    by_source: dict[int, list[int]] = {}
    for src, dst in pairs:
        by_source.setdefault(src, []).append(dst)
    routes = {}
    for src, dsts in by_source.items():
        reach = dict(nx.single_source_all_shortest_paths(graph, ("nic", src)))
        for dst in dsts:
            paths = sorted(reach.get(("nic", dst), []))
            if not paths:
                routes[src, dst] = None
                continue
            nodes = paths[zlib.crc32(f"{src}->{dst}".encode()) % len(paths)]
            routes[src, dst] = [f"{u}->{v}" for u, v in zip(nodes, nodes[1:])]
    return routes


def _fail(topo, n_failures, seed):
    """Fail *n_failures* distinct cables and switches, chosen by *seed*."""
    rng = random.Random(seed)
    targets = [("cable", i) for i in range(len(topo.cables()))]
    targets += [("switch", s) for s in range(topo.switch_count())]
    for kind, idx in rng.sample(targets, min(n_failures, len(targets))):
        if kind == "cable":
            topo.set_link_state(idx, False)
        else:
            topo.set_switch_state(idx, False)


def _multipath_fabric(sim, seed):
    """A random connected switch graph: a ring plus chords, so most
    switch pairs have several equal-cost paths."""
    rng = random.Random(seed)
    n_switches = rng.randint(5, 9)
    edges = {(s, (s + 1) % n_switches) for s in range(n_switches)}
    for _ in range(n_switches):
        a, b = rng.sample(range(n_switches), 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    placement = {nic: rng.randrange(n_switches) for nic in range(24)}
    placement.update({s: s for s in range(n_switches)})  # no empty switch
    return from_graph(sim, placement, sorted(edges), BW, LINK_LAT, HOP_LAT)


FABRICS = {
    "single_switch16": lambda sim: single_switch(sim, 16, BW, LINK_LAT, HOP_LAT),
    "clos64": lambda sim: clos(sim, 64, BW, LINK_LAT, HOP_LAT),
    "clos200_radix8": lambda sim: clos(sim, 200, BW, LINK_LAT, HOP_LAT, radix=8),
    "line40": lambda sim: line(sim, 40, BW, LINK_LAT, HOP_LAT),
    **{
        f"multipath{seed}": (lambda sim, seed=seed: _multipath_fabric(sim, seed))
        for seed in range(6)
    },
}


def _check_pairs(topo, pairs):
    for (src, dst), expected in _oracle_routes(topo, pairs).items():
        if expected is None:
            with pytest.raises(RoutingError):
                topo.route(src, dst)
            assert not topo.has_path(src, dst)
        else:
            assert [link.name for link in topo.route(src, dst)] == expected
            assert topo.has_path(src, dst)


@pytest.mark.parametrize("n_failures", FAILURE_COUNTS)
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_every_pair_matches_oracle(fabric, n_failures):
    topo = FABRICS[fabric](Simulator())
    _fail(topo, n_failures, seed=n_failures)
    _check_pairs(topo, itertools.permutations(range(topo.n_nodes), 2))


@pytest.mark.parametrize("n_failures", FAILURE_COUNTS)
def test_clos1024_sampled_pairs_match_oracle(n_failures):
    topo = clos(Simulator(), 1024, BW, LINK_LAT, HOP_LAT)
    _fail(topo, n_failures, seed=100 + n_failures)
    # 3,000 sampled pairs over the four failure counts, grouped by source
    # so the oracle makes one breadth-first pass per source.
    rng = random.Random(n_failures)
    pairs = [
        (src, dst)
        for src in rng.sample(range(1024), 10)
        for dst in rng.sample([d for d in range(1024) if d != src], 75)
    ]
    _check_pairs(topo, pairs)


def test_multipath_fabrics_have_equal_cost_choices():
    """The random fabrics exercise the crc32 pick, not just one path."""
    for seed in range(6):
        topo = _multipath_fabric(Simulator(), seed)
        graph = nx.Graph(topo.cables())
        assert any(
            len(paths) > 1
            for src in range(topo.n_nodes)
            for dst, paths in nx.single_source_all_shortest_paths(
                graph, ("nic", src)
            )
            if dst[0] == "nic"
        )


def test_reroute_after_restore_matches_oracle():
    """Routes follow the live state through fail → restore cycles."""
    topo = clos(Simulator(), 64, BW, LINK_LAT, HOP_LAT)
    pairs = list(itertools.permutations(range(0, 64, 5), 2))
    _check_pairs(topo, pairs)
    _fail(topo, 3, seed=9)
    _check_pairs(topo, pairs)
    for i in range(len(topo.cables())):
        topo.set_link_state(i, True)
    for s in range(topo.switch_count()):
        topo.set_switch_state(s, True)
    _check_pairs(topo, pairs)

"""The flow kernel: pinned flow work and a differential check against networkx.

The work pins count ``_SplitFlow.max_flow`` calls, which are deterministic,
so a change that makes the connectivity scans do more (or different) flow
work fails here without relying on wall time.
"""

import random

import networkx as nx
import pytest

from keeptree.connectivity import (
    _SplitFlow,
    connectivity_at_least,
    find_pair_below,
    global_connectivity,
    set_connectivity,
)
from keeptree.families import complete_bipartite, petersen, random_bipartite, random_graph
from keeptree.graphs import Graph
from keeptree.triples import find_triple, validate_triple


def two_block_host(half: int, degree: int, seed: int) -> Graph:
    """Two random-bipartite blocks joined by two disjoint cross edges, labels
    shuffled: triangle-free with connectivity exactly 2."""
    a = random_bipartite(half, half, degree, seed)
    b = random_bipartite(half, half, degree, seed + 1)
    n1 = a.n
    edges = a.edges() + [(u + n1, v + n1) for u, v in b.edges()]
    edges += [(0, n1), (half, n1 + half)]
    perm = list(range(2 * n1))
    random.Random(seed).shuffle(perm)
    return Graph(2 * n1, [(perm[u], perm[v]) for u, v in edges])


HOSTS = {
    "k44": lambda: complete_bipartite(4, 4),
    "petersen": petersen,
    "random-bipartite": lambda: random_bipartite(8, 8, 5, 7),
    "two-block": lambda: two_block_host(6, 5, 3),
}

#: max_flow calls per (host, query).
WORK = {
    ("k44", "global"): 9,
    ("k44", "pair-below-all"): 9,
    ("k44", "pair-below-subset"): 3,
    ("k44", "set"): 3,
    ("petersen", "global"): 9,
    ("petersen", "pair-below-all"): 9,
    ("petersen", "pair-below-subset"): 6,
    ("petersen", "set"): 6,
    ("random-bipartite", "global"): 20,
    ("random-bipartite", "pair-below-all"): 20,
    ("random-bipartite", "pair-below-subset"): 15,
    ("random-bipartite", "set"): 15,
    ("two-block", "global"): 28,
    ("two-block", "pair-below-all"): 1,
    ("two-block", "pair-below-subset"): 2,
    ("two-block", "set"): 28,
}

QUERIES = {
    "global": global_connectivity,
    "pair-below-all": lambda g: find_pair_below(g, range(g.n), 3),
    "pair-below-subset": lambda g: find_pair_below(g, range(0, g.n, 3), 3),
    "set": lambda g: set_connectivity(g, range(0, g.n, 3)),
}


@pytest.fixture
def flow_calls(monkeypatch):
    calls = []
    original = _SplitFlow.max_flow

    def counted(self, u, v, limit):
        calls.append((u, v, limit))
        return original(self, u, v, limit)

    monkeypatch.setattr(_SplitFlow, "max_flow", counted)
    return calls


class TestFlowWork:
    @pytest.mark.parametrize("host, query", sorted(WORK))
    def test_connectivity_queries(self, flow_calls, host, query):
        QUERIES[query](HOSTS[host]())
        assert len(flow_calls) == WORK[host, query]

    def test_find_triple_cut_descent(self, flow_calls):
        g = HOSTS["two-block"]()
        t = find_triple(g, frozenset(), frozenset(range(g.n)), 2)
        # The whole host is only 2-connected, so the fragment had to descend.
        assert len(t.f) < g.n
        assert len(flow_calls) == 70
        assert validate_triple(g, t).passed


DIFFERENTIAL_HOSTS = [
    random_bipartite(10, 10, 4, 11),
    random_bipartite(15, 15, 6, 12),
    random_bipartite(20, 20, 5, 13),
    random_graph(20, 0.3, 21),
    random_graph(25, 0.1, 22),
    random_graph(30, 0.2, 23),
    random_graph(40, 0.15, 24),
    random_graph(60, 0.1, 25),
    two_block_host(10, 4, 31),
    two_block_host(15, 5, 32),
]


@pytest.mark.parametrize("g", DIFFERENTIAL_HOSTS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_matches_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    kappa = nx.node_connectivity(nxg)
    assert global_connectivity(g) == kappa
    for k in range(1, 5):
        assert connectivity_at_least(g, k) == (kappa >= k)

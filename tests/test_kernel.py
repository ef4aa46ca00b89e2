"""The flow kernel: pinned flow work and differential checks against a
one-path-per-BFS reference kernel on its own arc lists and networkx.

The work pins count ``_SplitFlow.max_flow`` calls, how many of them
pre-routing settles without allocating a flow, and ``_SplitFlow`` builds.
These are deterministic, so a change that makes the connectivity scans do
more (or different) flow work, loses the settling fast path, or builds
more networks fails here without relying on wall time.
"""

import random
import re
from collections import deque
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from networkx.algorithms.connectivity import local_node_connectivity

from keeptree.certificate import CaseSelector
from keeptree.connectivity import (
    _SplitFlow,
    _pair_below,
    _weaker_pair,
    connectivity_at_least,
    find_pair_below,
    global_connectivity,
    is_k_connected_after_removal,
    local_connectivity_value,
    min_separator,
)
from keeptree.families import (
    FamilySpec,
    complete_bipartite,
    gen_graph,
    petersen,
    random_bipartite,
    random_graph,
)
from keeptree.graphs import Graph, Tree, induced_subgraph, mask_bits
from keeptree.pipeline import find_keeping_tree
from keeptree.triples import ConnectedTriple, _descend_fragments, find_triple, validate_triple
from oracles import check_path_system, max_flow_paths


def two_block_labels(half: int, seed: int) -> list[int]:
    """The shuffled labels of :func:`two_block_host`: ``labels[:2 * half]`` is
    the first block, and its cross edges run from ``labels[0]`` and
    ``labels[half]`` to ``labels[2 * half]`` and ``labels[3 * half]``."""
    labels = list(range(4 * half))
    random.Random(seed).shuffle(labels)
    return labels


def two_block_host(half: int, degree: int, seed: int) -> Graph:
    """Two random-bipartite blocks joined by two disjoint cross edges, labels
    shuffled: triangle-free with connectivity exactly 2."""
    a = random_bipartite(half, half, degree, seed)
    b = random_bipartite(half, half, degree, seed + 1)
    n1 = a.n
    edges = a.edges() + [(u + n1, v + n1) for u, v in b.edges()]
    edges += [(0, n1), (half, n1 + half)]
    perm = two_block_labels(half, seed)
    return Graph(2 * n1, [(perm[u], perm[v]) for u, v in edges])


def lopsided_two_block_host(
    cross: list[tuple[int, int]], seed: int
) -> tuple[Graph, frozenset[int]]:
    """A random-bipartite block of minimum degree 8 and one of 6 vertices a
    side, labels shuffled, with the dense block's labels.  Each cross edge
    (i, j) joins the dense vertex of the i-th highest degree (ties by id) to
    sparse vertex j.  With at most one cross edge at a sparse vertex, every
    dense vertex has a higher degree than any sparse one."""
    a = random_bipartite(10, 10, 8, seed)
    b = random_bipartite(6, 6, 4, seed + 1)
    n1 = a.n
    by_degree = sorted(range(n1), key=lambda v: -a.masks[v].bit_count())
    edges = a.edges() + [(u + n1, v + n1) for u, v in b.edges()]
    edges += [(by_degree[i], n1 + j) for i, j in cross]
    perm = list(range(n1 + b.n))
    random.Random(seed).shuffle(perm)
    return Graph(n1 + b.n, [(perm[u], perm[v]) for u, v in edges]), frozenset(perm[:n1])


def degree_order(g: Graph, dense: frozenset[int]) -> list[int]:
    """Exact connectivity's vertex order on a lopsided host, highest degree
    first: the dense block, then the sparse one."""
    degree = [m.bit_count() for m in g.masks]
    assert min(degree[v] for v in dense) > max(degree[v] for v in range(g.n) if v not in dense)
    return sorted(range(g.n), key=lambda v: -degree[v])


def circulant(n: int, jumps: tuple[int, ...], seed: int) -> Graph:
    """The circulant graph C_n(jumps) with shuffled labels."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[i], perm[(i + j) % n]) for i in range(n) for j in jumps])


#: Built at import, before any counting fixture starts: building a random
#: bipartite host runs its own connectivity check.
HOSTS = {
    "k44": complete_bipartite(4, 4),
    "petersen": petersen(),
    "random-bipartite": random_bipartite(8, 8, 5, 7),
    "two-block": two_block_host(6, 5, 3),
    # Minimum degree 4 at v0, whose neighbourhood has two edges.
    "random-graph": random_graph(12, 0.5, 1),
}

#: max_flow calls per (host, query).  Every query runs Even's test: one flow
#: per pair of its head, then one fan per later vertex, and no witness flow
#: here, since no fan is short.  The head is the first b vertices at bound b,
#: which exact connectivity starts at delta.  On the two-block host its
#: first nonadjacent pair drops exact connectivity to 2, and the rerun at
#: bound 2 makes that pair's flow again and 22 fans.  On the whole vertex
#: set only its nonadjacent pairs run a flow; on a proper subset all of
#: them do.
WORK = {
    ("k44", "global"): 10,
    ("k44", "pair-below-all"): 8,
    ("k44", "pair-below-subset"): 3,
    ("petersen", "global"): 8,
    ("petersen", "pair-below-all"): 8,
    ("petersen", "pair-below-subset"): 4,
    ("random-bipartite", "global"): 15,
    ("random-bipartite", "pair-below-all"): 16,
    ("random-bipartite", "pair-below-subset"): 6,
    ("two-block", "global"): 24,
    ("two-block", "pair-below-all"): 1,
    ("two-block", "pair-below-subset"): 2,
    ("random-graph", "global"): 10,
    ("random-graph", "pair-below-all"): 10,
    ("random-graph", "pair-below-subset"): 4,
}

#: The calls of each WORK query that pre-routing settles, returning no flow;
#: the rest allocate one.  Petersen has girth 5, so its pairs have no common
#: neighbours, and the two-block host's cut leaves flows short of their caps.
SETTLED = {
    ("k44", "global"): 10,
    ("k44", "pair-below-all"): 8,
    ("k44", "pair-below-subset"): 3,
    ("petersen", "global"): 6,
    ("petersen", "pair-below-all"): 6,
    ("petersen", "pair-below-subset"): 3,
    ("random-bipartite", "global"): 15,
    ("random-bipartite", "pair-below-all"): 16,
    ("random-bipartite", "pair-below-subset"): 5,
    ("two-block", "global"): 23,
    ("two-block", "pair-below-all"): 0,
    ("two-block", "pair-below-subset"): 1,
    ("random-graph", "global"): 10,
    ("random-graph", "pair-below-all"): 10,
    ("random-graph", "pair-below-subset"): 4,
}

QUERIES = {
    "global": global_connectivity,
    "pair-below-all": lambda g: find_pair_below(g, range(g.n), 3),
    "pair-below-subset": lambda g: find_pair_below(g, range(0, g.n, 3), 3),
}


@pytest.fixture
def flow_calls(monkeypatch):
    """Every max_flow call as (u, v, limit, settled): ``settled`` is True
    when pre-routing met the limit and the call returned no flow."""
    calls = []
    original = _SplitFlow.max_flow

    def counted(self, u, v, limit):
        result = original(self, u, v, limit)
        calls.append((u, v, limit, result[1] is None))
        return result

    monkeypatch.setattr(_SplitFlow, "max_flow", counted)
    return calls


@pytest.fixture
def descent(monkeypatch):
    """Every threshold test as (bound, answer): the calls of ``_pair_below``,
    which exact connectivity makes once per round of its descent."""
    calls = []

    def spied(net, us, bound):
        answer = _pair_below(net, us, bound)
        calls.append((bound, answer))
        return answer

    monkeypatch.setattr("keeptree.connectivity._pair_below", spied)
    return calls


def check_descent(g: Graph, calls: list) -> int:
    """Exact connectivity of ``g`` against networkx, with its descent: the
    bounds start at delta, each later bound is the value the call before it
    reported, and the last call passes at kappa, or reports a disconnected
    pair when kappa = 0.  Returns kappa."""
    kappa = nx.node_connectivity(nx.Graph(g.edges()))
    calls.clear()
    assert global_connectivity(g) == kappa
    bounds = [bound for bound, _ in calls]
    assert bounds[0] == min(m.bit_count() for m in g.masks)
    assert bounds[1:] == [answer[2] for _, answer in calls[:-1]]
    assert bounds == sorted(set(bounds), reverse=True)
    last_bound, last = calls[-1]
    if kappa:
        assert (last_bound, last) == (kappa, None)
    else:
        assert last[2] == 0 < last_bound
    return kappa


@pytest.fixture
def net_builds(monkeypatch):
    builds = []
    original = _SplitFlow.__init__

    def counted(self, g, alive=None):
        builds.append(g.n)
        original(self, g, alive)

    monkeypatch.setattr(_SplitFlow, "__init__", counted)
    return builds


def pinned_triples() -> dict[str, tuple[Graph, ConnectedTriple, bool]]:
    """(host, triple, passes) with U = s2 u f a proper subset of the induced
    subgraph's vertices (s1 nonempty) or all of them (s1 empty)."""
    g = HOSTS["two-block"]
    labels = two_block_labels(6, 3)
    cut, f = frozenset({labels[12], labels[18]}), frozenset(labels[:12])
    k44 = HOSTS["k44"]
    return {
        "pass-subset": (g, ConnectedTriple(2, cut, frozenset(), f), True),
        "pass-whole-set": (k44, ConnectedTriple(3, frozenset(), frozenset({0}), frozenset(range(1, 8))), True),
        "fail-subset": (g, ConnectedTriple(5, cut, frozenset(), f), False),
        "fail-whole-set": (g, ConnectedTriple(5, frozenset(), cut, f), False),
    }


class TestFlowWork:
    @pytest.mark.parametrize("host, query", sorted(WORK))
    def test_connectivity_queries(self, flow_calls, host, query):
        QUERIES[query](HOSTS[host])
        assert len(flow_calls) == WORK[host, query]
        assert sum(call[3] for call in flow_calls) == SETTLED[host, query]

    def test_dense_remainder(self, flow_calls):
        """Exact connectivity of a dense host minus its first certificate's
        image: the 73 nonadjacent pairs among the first 17 vertices (of
        C(17, 2) = 136) and 52 - 17 fans, most settled before any
        allocation."""
        g = random_bipartite(28, 28, 19, 1)
        tree = Tree(gen_graph(FamilySpec("path", (4,))))
        image = find_keeping_tree(g, tree, 2, CaseSelector("triangle-free")).embedding.image()
        flow_calls.clear()
        assert global_connectivity(g, image) == 17
        settled = sum(call[3] for call in flow_calls)
        assert (settled, len(flow_calls) - settled) == (81, 27)
        assert len(flow_calls) == 73 + 52 - 17

    def test_dense_host_with_triangles(self, flow_calls):
        """Exact connectivity of a dense random graph: kappa = delta = 31, and
        only 99 of the C(31, 2) = 465 head pairs are nonadjacent, so the scan
        makes those 99 flows and 60 - 31 fans, all settled by pre-routing."""
        g = random_graph(60, 0.7, 0)
        degree = [m.bit_count() for m in g.masks]
        head = sorted(range(g.n), key=lambda v: -degree[v])[: min(degree)]
        nonadjacent = [(a, b) for a, b in combinations(head, 2) if not g.masks[a] >> b & 1]
        assert global_connectivity(g) == min(degree) == 31
        assert [call[:2] for call in flow_calls[: len(nonadjacent)]] == nonadjacent
        assert len(nonadjacent) == 99
        assert len(flow_calls) == sum(call[3] for call in flow_calls) == 99 + 60 - 31

    def test_find_triple_cut_descent(self, flow_calls):
        g = HOSTS["two-block"]
        t = find_triple(g, frozenset(), frozenset(range(g.n)), 2)
        # The whole host is only 2-connected, so the fragment had to descend.
        assert len(t.f) < g.n
        assert len(flow_calls) == 16
        assert validate_triple(g, t).passed

    def test_validate_triple_with_s1(self, flow_calls):
        # The first block, cut off by the second block's cross-edge ends.
        g = HOSTS["two-block"]
        labels = two_block_labels(6, 3)
        t = ConnectedTriple(2, frozenset({labels[12], labels[18]}), frozenset(), frozenset(labels[:12]))
        assert validate_triple(g, t).passed
        # Even's test: C(p+1, 2) pairs among the first p+1 vertices of
        # U = s2 u f, then one fan flow per remaining vertex of U.
        assert len(flow_calls) == 12 <= comb(t.p + 1, 2) + len(t.f) - (t.p + 1)


class TestNetworkBuilds:
    """Each threshold query builds one network and runs every flow on it;
    so does cut descent, whose cut is one more flow on the scan's network.
    Exact connectivity builds one per round: two on the two-block host."""

    @pytest.mark.parametrize("host, query", sorted(WORK))
    def test_connectivity_queries(self, net_builds, host, query):
        QUERIES[query](HOSTS[host])
        assert len(net_builds) == (2 if (host, query) == ("two-block", "global") else 1)

    def test_short_fan_witness(self, net_builds, flow_calls):
        # 0 and 1 lie on the 4-cycle 0-3-1-4; 2 hangs off 3.  The pair (0, 1)
        # passes, the fan from 2 is short, and the scan names (0, 2).
        g = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 0), (2, 3)])
        assert find_pair_below(g, [0, 1, 2], 2) == (0, 2, 1)
        assert [(u, v) for u, v, _, _ in flow_calls] == [(0, 1), (2, g.n), (0, 2)]
        assert len(net_builds) == 1

    @pytest.mark.parametrize("name", sorted(pinned_triples()))
    def test_validate_triple(self, net_builds, name):
        g, t, passes = pinned_triples()[name]
        assert validate_triple(g, t).passed == passes
        assert len(net_builds) == 1

    def test_descend_fragments_with_witness(self, net_builds):
        g = HOSTS["two-block"]
        assert _descend_fragments(g, (1 << g.n) - 1, 0, 2)
        assert len(net_builds) == 1  # the cut is read off the scan's network

    def test_descend_fragments_without_witness(self, net_builds):
        g = HOSTS["k44"]
        assert _descend_fragments(g, (1 << g.n) - 1, 0, 2) == []
        assert len(net_builds) == 1


@pytest.mark.parametrize("cut_in_s1", [True, False], ids=["subset", "whole-set"])
def test_validate_triple_witness(cut_in_s1):
    g = HOSTS["two-block"]
    labels = two_block_labels(6, 3)
    cut, f = frozenset({labels[12], labels[18]}), frozenset(labels[:12])
    s1, s2 = (cut, frozenset()) if cut_in_s1 else (frozenset(), cut)
    report = validate_triple(g, ConnectedTriple(5, s1, s2, f))
    assert [name for name, ok, _ in report.checks if not ok] == ["connectivity"]
    match = re.fullmatch(r"pair \((\d+), (\d+)\) has only (\d+) < p\+1 = 6 .*", report.checks[-1][2])
    a, b, value = map(int, match.groups())
    assert {a, b} <= s2 | f
    sub, kept = induced_subgraph(g, s1 | s2 | f)
    assert value == local_connectivity_value(sub, kept.index(a), kept.index(b))


@pytest.mark.parametrize("seed", range(6))
def test_find_pair_below_matches_all_pairs(seed):
    """Even's test against the all-pairs scan on small random graphs, subsets
    (the whole vertex set among them) and bounds."""
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(2, 16)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
        us = sorted(rng.sample(range(n), rng.randint(2, n)))
        bound = rng.randint(1, 6)
        expected = _weaker_pair(_SplitFlow(g), combinations(us, 2), bound)
        witness = find_pair_below(g, us, bound)
        assert (witness is None) == (expected is None)
        if witness is not None:
            a, b, value = witness
            assert a != b and {a, b} <= set(us)
            assert value < bound
            assert value == local_connectivity_value(g, a, b)


def test_subset_query_reports_an_adjacent_pair():
    """Only queries on the whole vertex set skip adjacent head pairs.  In
    G[W], W = {0, ..., 6}, the 0-1 paths are the edge and 0-2-1 (every other
    route from 0 enters 2), while (0, 2) and (1, 2) have four paths each; so
    on U = {0, 1, 2} at bound 3 the adjacent head pair (0, 1) is the answer.
    Vertex 7, outside W, adds the path 0-3-7-5-1, and then no pair is below."""
    g = Graph(
        8,
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)]
        + [(1, 5), (1, 6), (2, 5), (2, 6), (5, 6), (3, 7), (5, 7)],
    )
    assert find_pair_below(g, [0, 1, 2], 3, within=range(7)) == (0, 1, 2)
    assert find_pair_below(g, [0, 1, 2], 3) is None


@pytest.mark.parametrize("us", [[0, 1, 2], range(5)], ids=["subset", "whole-set"])
def test_witness_scan_reports_an_adjacent_pair(us):
    """0 and 1 lie on the 4-cycle 0-3-1-4 and 2 hangs off 0, so the head
    pair (0, 1) passes bound 2, the fan from 2 is short, and its witness
    scan checks the adjacent pair (0, 2) first, on every vertex set."""
    g = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 0), (0, 2)])
    assert find_pair_below(g, us, 2) == (0, 2, 1)


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
    # Masks past a machine word with high connectivity (21 and 12).
    random_bipartite(35, 35, 14, 71),
    random_graph(80, 0.3, 72),
    # Low connectivity (2-6) at n = 90-200, where networkx stays fast.
    circulant(90, (1, 5), 62),
    random_graph(100, 0.12, 65),
    random_graph(120, 0.07, 52),
    random_graph(200, 0.035, 67),
]


#: Dense hosts, most of whose head pairs are adjacent: random graphs with
#: triangles and bipartite hosts whose head spans both sides.  Exact and
#: whole-set threshold queries skip those pairs.
DENSE_HOSTS = [
    random_graph(20, 0.8, 1),
    random_graph(24, 0.7, 2),
    random_graph(30, 0.6, 3),
    random_graph(40, 0.5, 4),
    random_graph(40, 0.8, 8),
    random_graph(50, 0.4, 5),
    random_bipartite(12, 12, 9, 1),
    random_bipartite(20, 20, 15, 2),
]


@pytest.mark.parametrize(
    "g", DIFFERENTIAL_HOSTS + DENSE_HOSTS, ids=lambda g: f"n{g.n}-e{g.edge_count}"
)
def test_matches_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    kappa = nx.node_connectivity(nxg)
    assert global_connectivity(g) == kappa
    for k in sorted({1, 2, 3, 4, kappa, kappa + 1} - {0}):
        assert connectivity_at_least(g, k) == (kappa >= k)
        witness = find_pair_below(g, range(g.n), k)
        assert (witness is None) == (kappa >= k)
        if witness is not None:
            assert kappa <= witness[2] == local_connectivity_value(g, *witness[:2]) < k


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_exact_connectivity_past_the_head(flow_calls, descent, k, seed):
    """The head, the delta vertices of highest degree, lies in the dense
    block, so every head pair passes; the first round runs flows for its
    nonadjacent pairs only, then fans.  The first sparse vertex's fan is
    cut by the k cross edges, and its witness scan reports kappa, at which
    the second round passes.  Each round caps its flows at its bound."""
    g, dense = lopsided_two_block_host([(i, i) for i in range(k)], seed)
    us = degree_order(g, dense)
    delta = min(m.bit_count() for m in g.masks)
    flow_calls.clear()  # the generator's own connectivity checks
    assert check_descent(g, descent) == k
    assert [bound for bound, _ in descent] == [delta, k]
    a, b, _ = descent[0][1]
    assert b not in dense and us.index(a) < us.index(b)
    assert set(us[: us.index(b)]) == dense  # the first sparse vertex
    head = us[:delta]
    pairs = [(x, y) for x, y in combinations(head, 2) if not g.masks[x] >> y & 1]
    assert [(x, y) for x, y, _, _ in flow_calls[: len(pairs) + 1]] == pairs + [(us[len(head)], g.n)]
    limits = [limit for _, _, limit, _ in flow_calls]
    assert limits == sorted(limits, reverse=True)
    assert set(limits) == {delta, k} - {1}  # bound 1 passes on a connected graph unflowed


@pytest.mark.parametrize("seed", range(3))
def test_witness_scan_continues_past_its_first_drop(descent, seed):
    """The dense vertex of highest degree, first in the scan, is a cut vertex
    with two edges into the sparse block: the first round's witness scan
    meets it first, at 2.  Rerun at bound 2, the scan passes it and meets
    the next dense vertex, at 1, and the third round passes.  Exact
    connectivity that stopped at its first drop would answer 2."""
    g, dense = lopsided_two_block_host([(0, 0), (0, 1)], seed)
    us = degree_order(g, dense)
    u = next(v for v in us if v not in dense)
    assert check_descent(g, descent) == 1
    assert [answer for _, answer in descent] == [(us[0], u, 2), (us[1], u, 1), None]


@pytest.mark.parametrize("seed", range(3))
def test_witness_scan_stops_at_the_fan_value(flow_calls, descent, seed):
    """One cross edge, at the dense vertex of highest degree: the first
    sparse vertex's fan has one path, and so has its pair with that vertex,
    first in the witness scan.  The scan stops there, and bound 1 passes
    without a flow, so that pair is the last flow of the descent: the other
    dense vertices run no witness flow, and the later vertices no fan."""
    g, dense = lopsided_two_block_host([(0, 0)], seed)
    us = degree_order(g, dense)
    u = us[len(dense)]
    flow_calls.clear()
    assert check_descent(g, descent) == 1
    assert [answer for _, answer in descent] == [(us[0], u, 1), None]
    fan = [call[:2] for call in flow_calls].index((u, g.n))
    delta = min(m.bit_count() for m in g.masks)
    assert flow_calls[fan + 1 :] == [(us[0], u, delta, False)]


@pytest.mark.parametrize("seed, allocating", [(0, 2), (1, 3), (2, 2)])
def test_exact_connectivity_shrinks_the_head(flow_calls, net_builds, seed, allocating):
    """A 72-vertex two-block host of the clustered kind, delta 12 and kappa
    2: the first nonadjacent head pair lies across the cut and drops the
    bound to 2.  The rerun at bound 2, on a second network, has a head of
    two vertices, whose pair runs again unless it is adjacent (seed 1), and
    the other 70 vertices run one fan each, nearly all settled by
    pre-routing."""
    g = two_block_host(18, 12, seed)
    flow_calls.clear()
    net_builds.clear()
    assert global_connectivity(g) == 2
    degree = [m.bit_count() for m in g.masks]
    us = sorted(range(g.n), key=lambda v: -degree[v])
    assert flow_calls[0][2] == min(degree) == 12
    head = [] if g.masks[us[0]] >> us[1] & 1 else [(us[0], us[1], 2)]
    assert [call[:3] for call in flow_calls[1:]] == head + [(v, g.n, 2) for v in us[2:]]
    assert len(flow_calls) == {0: 72, 1: 71, 2: 72}[seed]
    assert sum(not call[3] for call in flow_calls) == allocating
    assert len(net_builds) == 2


def multi_block_host(rng: random.Random) -> Graph:
    """Two random-bipartite blocks of 10 to 40 vertices and minimum degree at
    least 5, joined by 0 to 4 cross edges, labels shuffled: kappa is at most
    the number of cross edges, below delta."""
    a, b = (
        random_bipartite(side, side, rng.randint(5, side), rng.randrange(1 << 30))
        for side in (rng.randint(5, 20), rng.randint(5, 20))
    )
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    cross = {(rng.randrange(a.n), a.n + rng.randrange(b.n)) for _ in range(rng.randint(0, 4))}
    perm = list(range(a.n + b.n))
    rng.shuffle(perm)
    return Graph(a.n + b.n, [(perm[u], perm[v]) for u, v in edges + sorted(cross)])


def test_exact_connectivity_below_delta_matches_networkx(descent):
    """Exact connectivity against networkx on multi-block hosts with kappa <
    delta, where the descent takes one round or more past the first.  The
    first drop falls inside the head on some hosts (a head pair across the
    blocks) and in a witness scan on others (a head inside one block)."""
    rng = random.Random(0)
    first_drops = {"head": 0, "witness": 0}
    for _ in range(30):
        g = multi_block_host(rng)
        degree = [m.bit_count() for m in g.masks]
        kappa = check_descent(g, descent)
        assert kappa < min(degree)
        if kappa:
            us = sorted(range(g.n), key=lambda v: -degree[v])
            first = descent[0][1]
            first_drops["head" if us.index(first[1]) < min(degree) else "witness"] += 1
    assert min(first_drops.values()) >= 3


def kept_sets(g: Graph, rng: random.Random) -> list[frozenset[int]]:
    """Vertex sets for the subset queries: random ones of every size, the
    host minus a vertex's neighbourhood (disconnected unless nothing else is
    left), at most four vertices, a greedy clique and the whole host."""
    n = g.n
    sets = [frozenset(rng.sample(range(n), rng.randint(2, n))) for _ in range(6)]
    sets.append(frozenset(range(n)) - g.neighbors(rng.randrange(n)))
    sets.append(frozenset(rng.sample(range(n), rng.randint(0, 4))))
    clique: list[int] = []
    for w in rng.sample(range(n), n):
        if all(g.has_edge(w, c) for c in clique):
            clique.append(w)
    sets.append(frozenset(clique))
    sets.append(frozenset(range(n)))
    return sets


@pytest.mark.parametrize("g", DIFFERENTIAL_HOSTS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_subset_queries_match_induced_copies(g):
    """Each query on a vertex subset of the host gives what the same query
    gives on an induced copy, witnesses and cuts mapped back to host ids."""
    rng = random.Random(g.n * 7919 + g.edge_count)
    for keep in kept_sets(g, rng):
        removed = frozenset(range(g.n)) - keep
        sub, kept = induced_subgraph(g, keep)
        kappa = global_connectivity(sub)
        assert global_connectivity(g, removed) == kappa
        for k in range(1, 5):
            expected = connectivity_at_least(sub, k)
            assert is_k_connected_after_removal(g, removed, k) == expected == (kappa >= k)
        index = {v: i for i, v in enumerate(kept)}
        for us in [kept] + [rng.sample(kept, rng.randint(0, sub.n)) for _ in range(3)]:
            bound = rng.randint(1, 6)
            expected = find_pair_below(sub, [index[u] for u in us], bound)
            if expected is not None:
                expected = (kept[expected[0]], kept[expected[1]], expected[2])
            assert find_pair_below(g, us, bound, within=keep) == expected
        pairs = [(a, b) for a, b in combinations(kept, 2) if not g.has_edge(a, b)]
        for a, b in rng.sample(pairs, min(3, len(pairs))):
            cut = min_separator(sub, index[a], index[b])
            assert min_separator(g, a, b, within=keep) == {kept[x] for x in cut}


def test_subset_queries_reject_vertices_outside():
    g = HOSTS["k44"]
    with pytest.raises(ValueError):
        find_pair_below(g, [0, 5], 2, within=range(4))
    with pytest.raises(ValueError):
        min_separator(g, 0, 1, within=[0, 4, 5])
    with pytest.raises(ValueError):
        global_connectivity(g, [8])


def bfs_max_flow(
    g: Graph, u: int, v: int, limit: int, joined=(), edge_cap: int = 1
) -> tuple[int, set[int]]:
    """Reference oracle, independent of the kernel: the vertex-split digraph
    as arc lists (in(w) = 2w, out(w) = 2w+1, a sink vertex n with in-copy 2n
    and arcs of capacity one from the out-copies of ``joined``, edge arcs of
    capacity ``edge_cap``), one BFS and one augmenting unit at a time.  It
    stops at ``limit``, so its value at any limit is min(limit, its value at
    limit n).  Returns the value and the split-node ids reachable from
    out(u) in the residual network."""
    n = g.n
    head: list[list[int]] = [[] for _ in range(2 * n + 1)]
    arc_to: list[int] = []
    cap: list[int] = []

    def add_arc(a: int, b: int, c: int) -> None:
        for tail, tip, residual in ((a, b, c), (b, a, 0)):
            head[tail].append(len(arc_to))
            arc_to.append(tip)
            cap.append(residual)

    for w in range(n):
        add_arc(2 * w, 2 * w + 1, 1)
    for x, y in g.edges():
        add_arc(2 * x + 1, 2 * y, edge_cap)
        add_arc(2 * y + 1, 2 * x, edge_cap)
    for w in joined:
        add_arc(2 * w + 1, 2 * n, 1)
    source, sink = 2 * u + 1, 2 * v

    def residual_tree() -> dict[int, int | None]:
        parent: dict[int, int | None] = {source: None}
        queue = deque([source])
        while queue:
            a = queue.popleft()
            for arc in head[a]:
                if cap[arc] > 0 and arc_to[arc] not in parent:
                    parent[arc_to[arc]] = arc
                    queue.append(arc_to[arc])
        return parent

    value = 0
    parent = residual_tree()
    while value < limit and sink in parent:
        node = sink
        while node != source:
            arc = parent[node]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            node = arc_to[arc ^ 1]
        value += 1
        parent = residual_tree()
    return value, set(parent)


def split_ids(seen_in: int, seen_out: int) -> set[int]:
    """A residual reach from the kernel in :func:`bfs_max_flow`'s node ids."""
    return {2 * w for w in mask_bits(seen_in)} | {2 * w + 1 for w in mask_bits(seen_out)}


def seeded_kernel_hosts(count: int, seed: int) -> list[Graph]:
    """``count`` seeded hosts with 6 to 40 vertices: random graphs of any
    density, random-bipartite hosts and two-block hosts of connectivity 2."""
    rng = random.Random(seed)
    hosts = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            g = random_graph(rng.randint(6, 40), rng.uniform(0.05, 0.9), rng.randrange(1 << 30))
        elif kind == 1:
            a, b = rng.randint(3, 20), rng.randint(3, 20)
            g = random_bipartite(a, b, rng.randint(1, min(a, b)), rng.randrange(1 << 30))
        else:
            half = rng.randint(2, 10)
            g = two_block_host(half, rng.randint(1, half), rng.randrange(1 << 30))
        hosts.append(g)
    return hosts


#: The seeded hosts, then two (connectivity 21 and 12) whose masks, the sink
#: bit n among them, run past a machine word.
KERNEL_HOSTS = seeded_kernel_hosts(300, 2024) + [
    random_bipartite(35, 35, 14, 73),
    random_graph(80, 0.3, 74),
]


@pytest.mark.parametrize("chunk", range(6))
def test_max_flow_matches_bfs_reference(chunk):
    """Values at every limit 0..n on a pair network and on a fan network
    (flows to the sink vertex n), the source side of the residual after a
    maximum pair flow and fan flow, and minimum separators, against
    :func:`bfs_max_flow`."""
    rng = random.Random(chunk)
    for g in KERNEL_HOSTS[chunk::6]:
        n = g.n
        u, v = rng.sample(range(n), 2)
        plain = _SplitFlow(g)
        fan = _SplitFlow(g)
        joined = rng.sample([w for w in range(n) if w != u], rng.randint(1, n - 1))
        for w in joined:
            fan.join_sink(w)
        for net, sink, js in ((plain, v, ()), (fan, n, joined)):
            top = bfs_max_flow(g, u, sink, n, js)[0]
            assert [net.max_flow(u, sink, limit)[0] for limit in range(n + 1)] == [
                min(limit, top) for limit in range(n + 1)
            ]
        # u joins too, so the fan flow has a direct arc into the sink vertex
        # and may reach n; at limit n + 1 every flow stops at its maximum.
        fan.join_sink(u)
        for sink in (v, n):
            value, _, (seen_in, seen_out) = fan.max_flow(u, sink, n + 1)
            ref_value, ref_reach = bfs_max_flow(g, u, sink, n + 1, joined + [u])
            assert value == ref_value
            assert split_ids(seen_in, seen_out) == ref_reach
            assert fan.max_flow(u, sink, value)[2] is None
        # The cut of a network with uncapacitated edge arcs, for nonadjacent pairs.
        for a, b in rng.sample(list(combinations(range(n), 2)), 4):
            if not g.has_edge(a, b):
                reach = bfs_max_flow(g, a, b, n, edge_cap=n)[1]
                cut = {w for w in range(n) if 2 * w in reach and 2 * w + 1 not in reach}
                assert min_separator(g, a, b) == cut


def test_network_reuse():
    """Every query runs many flows on one network: a flow leaves no state
    behind, so the adjacency masks never change and a repeated call returns
    the same value, flow and residual reach."""
    rng = random.Random(0)
    for g in KERNEL_HOSTS[::10]:
        net = _SplitFlow(g)
        for w in rng.sample(range(g.n), g.n // 2):
            net.join_sink(w)
        adj = net.adj.copy()
        seen = {}
        for _ in range(12):
            u, v = rng.sample(range(g.n + 1), 2)
            if u == g.n:
                u, v = v, u
            query = (u, v, rng.randint(0, g.n))
            result = net.max_flow(*query)
            assert net.adj == adj
            assert seen.setdefault(query, result) == result
        for query, result in seen.items():
            assert net.max_flow(*query) == result


def test_local_connectivity_path_systems():
    rng = random.Random(11)
    for i in range(200):
        g = KERNEL_HOSTS[i]
        u, v = rng.sample(range(g.n), 2)
        value, paths = max_flow_paths(g, u, v)
        assert check_path_system(g, u, v, paths) == []
        assert len(paths) == value == local_connectivity_value(g, u, v)


def test_path_system_after_a_cancelled_arc():
    """The only two disjoint 1-0 paths.  Pre-routing takes (1, 5, 3, 0) before
    the first phase; that phase reaches in(3) from 6 and leaves it back to
    out(5), cancelling the arc 5 -> 3, so decoding must follow 5's new
    successor."""
    g = Graph(7, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 5), (3, 6)])
    value, paths = max_flow_paths(g, 1, 0)
    assert value == 2
    assert sorted(paths) == [(1, 5, 2, 4, 0), (1, 6, 3, 0)]


def test_pre_routed_greedy_path_is_cancelled():
    """Pre-routing takes 0-1-3-5, the lowest end for x = 1, and then finds no
    free end for x = 2; the one phase left reaches in(3) from 2 and leaves it
    back to out(1), so the maximum uses 1-4 and 2-3 instead."""
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    value, paths = max_flow_paths(g, 0, 5)
    assert value == bfs_max_flow(g, 0, 5, g.n)[0] == 2
    assert check_path_system(g, 0, 5, paths) == []
    assert sorted(paths) == [(0, 1, 4, 5), (0, 2, 3, 5)]
    assert _SplitFlow(g).max_flow(0, 5, 1)[::2] == (1, None)


def test_common_neighbours_beyond_limit():
    """K_{2,5}: the pair (0, 1) has five common neighbours, so every limit up
    to five is met by counting them, and the call writes no flow.  Above
    five the flow is written in full, one path through each common
    neighbour, and the residual reach matches the reference."""
    g = complete_bipartite(2, 5)
    net = _SplitFlow(g)
    for limit in range(6):
        assert net.max_flow(0, 1, limit) == (limit, None, None)
    value, flow, (seen_in, seen_out) = net.max_flow(0, 1, 6)
    assert value == 5
    assert flow[0] == 0b1111100
    assert all(flow[y] == 1 << 1 for y in range(2, 7))
    assert split_ids(seen_in, seen_out) == bfs_max_flow(g, 0, 1, 6)[1]


@pytest.mark.parametrize("adjacent", [False, True], ids=["nonadjacent", "adjacent"])
def test_pair_flow_with_both_ends_joined(adjacent):
    """A pair flow on a fan network whose two ends are both joined to the
    sink vertex n, so both of their masks carry bit n.  Pre-routing counts
    the direct arc if any, the common neighbours 2 and 3 and the greedy
    paths 0-4-5-1 and 0-6-7-1, and nothing else: at one past the
    connectivity neither bit n nor a second count of the direct arc may
    settle the flow."""
    edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)]
    g = Graph(8, edges + [(0, 1)] * adjacent)
    top = 4 + adjacent
    joined = (0, 1, 2, 5)
    net = _SplitFlow(g)
    for w in joined:
        net.join_sink(w)
    assert (net.adj[0] & net.adj[1]) >> g.n & 1
    assert bfs_max_flow(g, 0, 1, g.n, joined)[0] == top
    for limit in range(g.n + 2):
        value, flow, _ = net.max_flow(0, 1, limit)
        assert value == min(limit, top)
        assert (flow is None) == (limit <= top)
    _, _, (seen_in, seen_out) = net.max_flow(0, 1, top + 1)
    assert split_ids(seen_in, seen_out) == bfs_max_flow(g, 0, 1, top + 1, joined)[1]


#: Near-complete bipartite hosts, n = 40-120: most flows are settled by
#: pre-routing even at caps close to the connectivity.
SETTLING_HOSTS = [
    random_bipartite(a, a, d, s)
    for a, d, s in ((20, 18, 81), (30, 27, 82), (40, 37, 83), (50, 46, 84), (60, 57, 85))
]


@pytest.mark.parametrize("g", SETTLING_HOSTS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_capped_values_where_pre_routing_settles(g):
    """At every limit 0..n+1, a pair flow is min(limit, c) with c from
    networkx: local connectivity for a nonadjacent pair, one more than it
    in G - uv for an adjacent one.  The pairs are one side's (nonadjacent,
    many common neighbours) and the two sides' (mostly adjacent, greedy
    u-x-y-v paths).  A fan flow with half the vertices joined matches
    :func:`bfs_max_flow` at every limit."""
    rng = random.Random(g.n)
    n, a = g.n, g.n // 2
    nxg = nx.Graph(g.edges())
    net = _SplitFlow(g)
    pairs = [tuple(rng.sample(range(a), 2)) for _ in range(2)]
    pairs += [(rng.randrange(a), rng.randrange(a, n)) for _ in range(3)]
    for u, v in pairs:
        if g.has_edge(u, v):
            rest = nxg.copy()
            rest.remove_edge(u, v)
            c = 1 + local_node_connectivity(rest, u, v)
        else:
            c = local_node_connectivity(nxg, u, v)
        assert [net.max_flow(u, v, limit)[0] for limit in range(n + 2)] == [
            min(limit, c) for limit in range(n + 2)
        ]
    u = rng.randrange(n)
    joined = rng.sample([w for w in range(n) if w != u], n // 2)
    fan = _SplitFlow(g)
    for w in joined:
        fan.join_sink(w)
    top = bfs_max_flow(g, u, n, n + 1, joined)[0]
    assert [fan.max_flow(u, n, limit)[0] for limit in range(n + 2)] == [
        min(limit, top) for limit in range(n + 2)
    ]


def test_fan_with_joined_neighbours():
    """A fan flow from u pre-routes u-y-n through its joined neighbours and
    u-x-y-n through joined vertices two steps away; every limit and the final
    residual reach match the reference."""
    g = HOSTS["random-bipartite"]
    n, u = g.n, 0
    nbrs = sorted(g.neighbors(u))
    second = sorted({y for x in nbrs for y in g.neighbors(x)} - {u})
    joined = nbrs[: len(nbrs) // 2] + second[:3]
    net = _SplitFlow(g)
    for w in joined:
        net.join_sink(w)
    top, ref_reach = bfs_max_flow(g, u, n, n + 1, joined)
    assert top > len(nbrs) // 2
    assert [net.max_flow(u, n, limit)[0] for limit in range(n + 2)] == [
        min(limit, top) for limit in range(n + 2)
    ]
    _, _, (seen_in, seen_out) = net.max_flow(u, n, n + 1)
    assert split_ids(seen_in, seen_out) == ref_reach

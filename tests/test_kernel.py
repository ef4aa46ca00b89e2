"""The flow kernel: pinned flow work and differential checks against a
one-path-per-BFS reference kernel on its own arc lists and networkx.

The work pins count ``_SplitFlow.max_flow`` calls and ``_SplitFlow`` builds,
which are deterministic, so a change that makes the connectivity scans do
more (or different) flow work, or build more networks for it, fails here
without relying on wall time.
"""

import random
import re
from collections import deque
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from keeptree.connectivity import (
    _even_drops,
    _SplitFlow,
    _weaker_pairs,
    connectivity_at_least,
    find_pair_below,
    global_connectivity,
    is_k_connected_after_removal,
    local_connectivity_value,
    min_separator,
)
from keeptree.families import complete_bipartite, petersen, random_bipartite, random_graph
from keeptree.graphs import Graph, induced_delete, induced_subgraph, mask_bits
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


def degree_scan(g: Graph, dense: frozenset[int]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Exact connectivity's vertex order on a lopsided host, highest degree
    first, and the drops of Even's scan from bound delta along it."""
    degree = [m.bit_count() for m in g.masks]
    assert min(degree[v] for v in dense) > max(degree[v] for v in range(g.n) if v not in dense)
    us = sorted(range(g.n), key=lambda v: -degree[v])
    return us, list(_even_drops(_SplitFlow(g), us, min(degree)))


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

#: max_flow calls per (host, query).  Exact connectivity scans the
#: designated pairs only on "random-graph", where they skip the two edges in
#: N(v0); the triangle-free hosts run Even's scan from bound delta, which
#: makes C(delta, 2) + n - delta flows when no fan is short, one more than
#: the designated pairs would.
WORK = {
    ("k44", "global"): 10,
    ("k44", "pair-below-all"): 8,
    ("k44", "pair-below-subset"): 3,
    ("petersen", "global"): 10,
    ("petersen", "pair-below-all"): 9,
    ("petersen", "pair-below-subset"): 4,
    ("random-bipartite", "global"): 21,
    ("random-bipartite", "pair-below-all"): 16,
    ("random-bipartite", "pair-below-subset"): 6,
    ("two-block", "global"): 29,
    ("two-block", "pair-below-all"): 1,
    ("two-block", "pair-below-subset"): 2,
    ("random-graph", "global"): 11,
    ("random-graph", "pair-below-all"): 11,
    ("random-graph", "pair-below-subset"): 4,
}

QUERIES = {
    "global": global_connectivity,
    "pair-below-all": lambda g: find_pair_below(g, range(g.n), 3),
    "pair-below-subset": lambda g: find_pair_below(g, range(0, g.n, 3), 3),
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
    """Each connectivity query builds one network and runs every flow on it;
    cut descent builds one more when it cuts."""

    @pytest.mark.parametrize("host, query", sorted(WORK))
    def test_connectivity_queries(self, net_builds, host, query):
        QUERIES[query](HOSTS[host])
        assert len(net_builds) == 1

    def test_short_fan_witness(self, net_builds, flow_calls):
        # 0 and 1 lie on the 4-cycle 0-3-1-4; 2 hangs off 3.  The pair (0, 1)
        # passes, the fan from 2 is short, and the scan names (0, 2).
        g = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 0), (2, 3)])
        assert find_pair_below(g, [0, 1, 2], 2) == (0, 2, 1)
        assert [(u, v) for u, v, _ in flow_calls] == [(0, 1), (2, g.n), (0, 2)]
        assert len(net_builds) == 1

    @pytest.mark.parametrize("name", sorted(pinned_triples()))
    def test_validate_triple(self, net_builds, name):
        g, t, passes = pinned_triples()[name]
        assert validate_triple(g, t).passed == passes
        assert len(net_builds) == 1

    def test_descend_fragments_with_witness(self, net_builds):
        g = HOSTS["two-block"]
        assert _descend_fragments(g, frozenset(range(g.n)), 2)
        assert len(net_builds) == 2  # the scan's network, then min_separator's

    def test_descend_fragments_without_witness(self, net_builds):
        g = HOSTS["k44"]
        assert _descend_fragments(g, frozenset(range(g.n)), 2) == []
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
        expected = next(_weaker_pairs(_SplitFlow(g), combinations(us, 2), bound), None)
        witness = find_pair_below(g, us, bound)
        assert (witness is None) == (expected is None)
        if witness is not None:
            a, b, value = witness
            assert a != b and {a, b} <= set(us)
            assert value < bound
            assert value == local_connectivity_value(g, a, b)


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


@pytest.mark.parametrize("g", DIFFERENTIAL_HOSTS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
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
def test_exact_connectivity_past_the_head(flow_calls, k, seed):
    """The head, the delta vertices of highest degree, lies in the dense
    block, so every head pair passes; the first sparse vertex's fan is cut
    by the k cross edges, and its witness scan drops the bound to kappa.
    Exact connectivity runs that scan, flow for flow, and its caps only
    fall: the fans past the drop are capped at kappa."""
    g, dense = lopsided_two_block_host([(i, i) for i in range(k)], seed)
    flow_calls.clear()  # the generator's own connectivity checks
    us, drops = degree_scan(g, dense)
    assert [value for _, _, value in drops] == [k]
    a, b, _ = drops[0]
    assert b not in dense and us.index(a) < us.index(b)
    assert set(us[: us.index(b)]) == dense  # the first sparse vertex
    scan = flow_calls[:]
    limits = [limit for _, _, limit in scan]
    assert limits == sorted(limits, reverse=True) and limits[-1] == k
    flow_calls.clear()
    assert global_connectivity(g) == nx.node_connectivity(nx.Graph(g.edges())) == k
    assert flow_calls == scan


@pytest.mark.parametrize("seed", range(3))
def test_witness_scan_continues_past_its_first_drop(seed):
    """The dense vertex of highest degree, first in the scan, is a cut vertex
    with two edges into the sparse block: the witness scan meets it first, at
    2, and the next dense vertex at 1."""
    g, dense = lopsided_two_block_host([(0, 0), (0, 1)], seed)
    us, drops = degree_scan(g, dense)
    u = next(v for v in us if v not in dense)
    assert drops == [(us[0], u, 2), (us[1], u, 1)]
    assert global_connectivity(g) == nx.node_connectivity(nx.Graph(g.edges())) == 1


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
        rest, _ = induced_delete(g, removed)
        kappa = global_connectivity(rest)
        assert global_connectivity(g, removed) == kappa
        for k in range(1, 5):
            expected = connectivity_at_least(rest, k)
            assert is_k_connected_after_removal(g, removed, k) == expected == (kappa >= k)
        sub, kept = induced_subgraph(g, keep)
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
            split_ids = {2 * w for w in mask_bits(seen_in)} | {2 * w + 1 for w in mask_bits(seen_out)}
            assert split_ids == ref_reach
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
    to five is met by pre-routing alone and reports no residual reach."""
    g = complete_bipartite(2, 5)
    net = _SplitFlow(g)
    for limit in range(6):
        value, flow, reach = net.max_flow(0, 1, limit)
        assert (value, reach) == (limit, None)
        assert flow[0].bit_count() == limit
    value, _, (seen_in, seen_out) = net.max_flow(0, 1, 6)
    assert value == 5
    ref_reach = bfs_max_flow(g, 0, 1, 6)[1]
    assert {2 * w for w in mask_bits(seen_in)} | {2 * w + 1 for w in mask_bits(seen_out)} == ref_reach


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
    assert {2 * w for w in mask_bits(seen_in)} | {2 * w + 1 for w in mask_bits(seen_out)} == ref_reach

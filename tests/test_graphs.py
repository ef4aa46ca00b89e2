"""Graph-core: construction invariants, basic quantities, and their oracles."""

import math
import pickle
import random
from collections import deque
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keeptree.families import (
    complete_bipartite,
    cycle,
    gen_tree,
    heawood,
    hoffman_singleton,
    petersen,
    projective_incidence,
    random_bipartite,
    random_graph,
    random_triangle_free,
)
from keeptree.graphs import (
    Graph,
    Tree,
    bipartition,
    components,
    degree_stats,
    girth,
    girth_at_least,
    induced_subgraph,
    is_triangle_free,
    mask_bits,
    mask_component,
    mask_components,
    mask_neighbours,
    odd_cycle,
    vertex_mask,
)
from oracles import small_connected_graphs


def random_graphs(count: int, max_n: int, base_seed: int):
    out = []
    for i in range(count):
        n = 2 + (i % (max_n - 1))
        p = (0.2, 0.4, 0.6, 0.8)[i % 4]
        out.append(random_graph(n, p, base_seed + i))
    return out


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_adjacency_symmetric(self, pete):
        for u, v in pete.edges():
            assert u in pete.neighbors(v) and v in pete.neighbors(u)

    def test_value_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])


class TestMasks:
    def test_masks_match_neighbors(self):
        for g in random_graphs(40, 20, 300) + [petersen(), Graph(0), Graph(3)]:
            assert len(g.masks) == g.n
            for v in g.vertices():
                assert g.masks[v] == sum(1 << w for w in g.neighbors(v))

    def test_value_independent_of_edge_order(self):
        for i, g in enumerate(random_graphs(20, 15, 700) + [petersen()]):
            edges = g.edges()
            shuffled = list(edges)
            random.Random(i).shuffle(shuffled)
            reversed_flipped = [(v, u) for u, v in reversed(edges)]
            for twin in (Graph(g.n, shuffled), Graph(g.n, reversed_flipped)):
                assert twin == g and g == twin and hash(twin) == hash(g)
                assert twin.edges() == edges and twin.edge_count == g.edge_count
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g and hash(copy) == hash(g)
            assert copy.masks == g.masks and copy.edge_count == g.edge_count

    def test_accessors_match_networkx(self):
        """Seeded G(n, p) against networkx, with masks wider than 64 bits."""
        cases = [(0, 0.5), (1, 0.5), (2, 1.0), (9, 0.4), (70, 0.1), (97, 0.3), (130, 0.05)]
        for i, (n, p) in enumerate(cases):
            rng = random.Random(3100 + i)
            edges = [
                (u, v) if rng.random() < 0.5 else (v, u)
                for u, v in combinations(range(n), 2)
                if rng.random() < p
            ]
            rng.shuffle(edges)
            g = Graph(n, edges)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(edges)
            assert g.edges() == sorted(tuple(sorted(e)) for e in ref.edges())
            assert g.edge_count == ref.number_of_edges()
            for u in range(n):
                assert g.degree(u) == ref.degree(u)
                assert g.neighbors(u) == frozenset(ref.neighbors(u))
                assert [g.has_edge(u, v) for v in range(n)] == [
                    ref.has_edge(u, v) for v in range(n)
                ]


class TestDegreeStats:
    def test_cycle_regular(self, c5):
        assert degree_stats(c5) == (2, 2)

    def test_biregular(self, k44):
        assert degree_stats(k44) == (4, 4)

    def test_star(self, star6):
        assert degree_stats(star6) == (1, 5)

    def test_empty_graph_undefined(self):
        assert degree_stats(Graph(0)) is None

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, seed):
        g = random_graph(3 + seed % 6, 0.5, seed)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count


class TestNeighborhoodOfSet:
    """``mask_neighbours`` on the mask of a checked vertex set."""

    def test_cycle_single(self, c5):
        assert mask_neighbours(c5.masks, vertex_mask(c5, {0})) == 0b10010

    def test_whole_vertex_set(self, c5):
        assert mask_neighbours(c5.masks, vertex_mask(c5, range(5))) == 0

    def test_petersen_outer_to_inner(self, pete):
        # Adjacency enumeration: every spoke i--i+5 leaves the outer cycle.
        assert mask_neighbours(pete.masks, vertex_mask(pete, range(5))) == 0b1111100000

    def test_invalid_vertex(self, c5):
        with pytest.raises(ValueError):
            vertex_mask(c5, {7})


def bfs_girth_oracle(g: Graph) -> int | None:
    """Exhaustive shortest-cycle search: BFS from every vertex, taking the
    best closing non-tree edge over all roots.  This is the implementation's
    method without its early stops; ``networkx.girth`` is the independent
    reference (see ``girth_corpus``)."""
    best = None
    for root in g.vertices():
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b in g.neighbors(a):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    queue.append(b)
                elif parent[a] != b:
                    cand = dist[a] + dist[b] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def random_forest(rng: random.Random) -> Graph:
    """Disjoint random trees plus isolated vertices, labels shuffled."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 4)):
        order = rng.randint(1, 12)
        edges += [(u + n, v + n) for u, v in gen_tree(order, rng.randrange(1 << 30)).graph.edges()]
        n += order
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def girth_corpus() -> list[Graph]:
    """324 seeded graphs: forests, trees with one or two chords (long
    cycles), sparse and dense random graphs, triangle-free and bipartite
    ones, and the named high-girth hosts."""
    rng = random.Random(2024)
    graphs = [random_forest(rng) for _ in range(40)]
    for _ in range(40):
        tree = gen_tree(rng.randint(4, 30), rng.randrange(1 << 30)).graph
        pairs = [(u, v) for u, v in combinations(range(tree.n), 2) if not tree.has_edge(u, v)]
        graphs.append(Graph(tree.n, tree.edges() + rng.sample(pairs, rng.randint(1, 2))))
    for _ in range(100):
        n = rng.randint(1, 30)
        graphs.append(random_graph(n, min(1.0, rng.uniform(0.5, 4.0) / n), rng.randrange(1 << 30)))
    for _ in range(80):
        graphs.append(random_triangle_free(rng.randint(4, 35), rng.uniform(0.05, 0.4), rng.randrange(1 << 30)))
    for _ in range(60):
        a, b = rng.randint(2, 10), rng.randint(2, 10)
        graphs.append(random_bipartite(a, b, rng.randint(1, min(a, b)), rng.randrange(1 << 30)))
    return graphs + [petersen(), heawood(), hoffman_singleton(), projective_incidence(3)]


def networkx_girth(g: Graph) -> int | None:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    value = nx.girth(nxg)
    return None if value == math.inf else value


class TestGirth:
    def test_cycle(self, c5):
        assert girth(c5) == 5

    def test_tree_acyclic(self):
        assert girth(Graph(4, [(0, 1), (1, 2), (1, 3)])) is None

    def test_petersen(self, pete):
        assert girth(pete) == 5
        assert bfs_girth_oracle(pete) == 5

    def test_acyclic_comparisons_always_hold(self):
        assert girth_at_least(None, 100)
        assert girth_at_least(5, 5)
        assert not girth_at_least(4, 5)

    def test_oracle_agreement_on_random_corpus(self):
        for g in random_graphs(120, 8, 900):
            assert girth(g) == bfs_girth_oracle(g)

    def test_matches_networkx(self):
        values = []
        for g in girth_corpus():
            values.append(girth(g))
            assert values[-1] == networkx_girth(g), g.edges()
        # The corpus reaches acyclic graphs, triangles and long cycles.
        assert None in values and 3 in values and max(v for v in values if v) >= 8

    def test_named_hosts(self, pete):
        forest = Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
        assert girth(forest) is None and networkx_girth(forest) is None
        assert girth(Graph(0)) is None and girth(Graph(1)) is None
        assert girth(pete) == 5
        assert girth(cycle(7)) == 7
        # C7 beside C4, and C7 beside a path: the shorter cycle of any part.
        c7_c4 = Graph(11, cycle(7).edges() + [(7 + u, 7 + v) for u, v in cycle(4).edges()])
        assert girth(c7_c4) == 4
        c7_path = Graph(10, cycle(7).edges() + [(7, 8), (8, 9)])
        assert girth(c7_path) == 7

    def test_matches_networkx_on_gnp(self):
        rng = random.Random(77)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 40)
            g = random_graph(n, min(1.0, rng.uniform(0.3, 3.0) / n), rng.randrange(1 << 30))
            if rng.random() < 0.3:  # a disconnected host: two parts side by side
                h = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.5), rng.randrange(1 << 30))
                g = Graph(g.n + h.n, g.edges() + [(g.n + u, g.n + v) for u, v in h.edges()])
            value = girth(g)
            assert value == networkx_girth(g), g.edges()
            seen.add(value)
        assert None in seen and {3, 4, 5} <= seen


class TestTriangleFree:
    def test_bipartite_is_triangle_free(self, k33):
        assert is_triangle_free(k33)

    def test_k4_has_triangle(self, k4):
        assert not is_triangle_free(k4)

    def test_petersen(self, pete):
        assert is_triangle_free(pete)

    def test_equivalent_to_girth_at_least_four(self):
        # Exhaustive over all labeled graphs on up to 5 vertices, every
        # connected isomorphism class on up to 7, and a seeded random
        # sample at 8.
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                gv = girth(g)
                assert is_triangle_free(g) == (gv is None or gv >= 4)
        for g in small_connected_graphs(7):
            gv = girth(g)
            assert is_triangle_free(g) == (gv is None or gv >= 4)
        for g in random_graphs(150, 8, 1700):
            gv = girth(g)
            assert is_triangle_free(g) == (gv is None or gv >= 4)


def has_odd_closed_walk(g: Graph) -> bool:
    """Parity-product reachability: independent non-bipartiteness oracle."""
    for start in g.vertices():
        seen = {(start, 0)}
        queue = deque([(start, 0)])
        while queue:
            v, par = queue.popleft()
            for w in g.neighbors(v):
                nxt = (w, par ^ 1)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if (start, 1) in seen:
            return True
    return False


class TestBipartition:
    def test_even_cycle(self, c4):
        assert bipartition(c4) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_odd_cycle_fails(self, c5):
        assert bipartition(c5) is None

    def test_hypercube_parity(self, q3):
        parts = bipartition(q3)
        assert parts is not None
        expect_even = frozenset(v for v in range(8) if bin(v).count("1") % 2 == 0)
        assert parts[0] == expect_even
        assert len(parts[0]) == len(parts[1]) == 4

    def test_every_edge_crosses(self, pete, q3, c6):
        for g in (q3, c6):
            parts = bipartition(g)
            for u, v in g.edges():
                assert (u in parts[0]) != (v in parts[0])

    def test_agreement_with_odd_walk_oracle(self):
        for g in small_connected_graphs(7):
            assert (bipartition(g) is None) == has_odd_closed_walk(g)
        for g in random_graphs(150, 8, 4100):
            assert (bipartition(g) is None) == has_odd_closed_walk(g)

    def test_odd_cycle_witness(self):
        for g in random_graphs(100, 8, 333):
            cyc = odd_cycle(g)
            if bipartition(g) is None:
                assert cyc is not None
                assert len(cyc) % 2 == 1 and len(cyc) >= 3
                assert len(set(cyc)) == len(cyc)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert g.has_edge(a, b)
            else:
                assert cyc is None

    def test_odd_cycle_in_a_later_component(self):
        # A 4-cycle on 0..3, then a 5-cycle on 4..8: the first level of the
        # second component's BFS from 4 that holds an edge is {6, 7}.
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
        assert odd_cycle(g) == [6, 5, 4, 8, 7]


class TestInducedDelete:
    """Vertex deletion: ``induced_subgraph`` on the complement."""

    def test_cycle_minus_vertex_is_path(self, c5):
        h, kept = induced_subgraph(c5, {1, 2, 3, 4})
        assert h.n == 4 and h.edge_count == 3
        degs = sorted(h.degree(v) for v in h.vertices())
        assert degs == [1, 1, 2, 2]
        assert kept == (1, 2, 3, 4)

    def test_delete_nothing_is_identity(self, pete):
        h, kept = induced_subgraph(pete, pete.vertices())
        assert h == pete
        assert kept == tuple(range(10))

    def test_k44_minus_one_per_side(self, k44):
        h, _ = induced_subgraph(k44, set(k44.vertices()) - {0, 4})
        assert h.n == 6 and h.edge_count == 9
        assert degree_stats(h) == (3, 3)

    def test_components_agree_with_scratch_traversal(self):
        for g in random_graphs(80, 8, 77):
            w = frozenset(v for v in g.vertices() if v % 3 == 0)
            h, kept = induced_subgraph(g, set(g.vertices()) - w)
            via_subgraph = sorted(
                sorted(kept[v] for v in comp) for comp in components(h)
            )
            alive = vertex_mask(g, None) & ~vertex_mask(g, w)
            via_masks = sorted(sorted(mask_bits(c)) for c in mask_components(g.masks, alive))
            assert via_subgraph == via_masks

    def test_invalid_vertex(self, c5):
        with pytest.raises(ValueError):
            induced_subgraph(c5, {0, 9})


class TestComponents:
    def test_two_triangles(self, two_triangles):
        comps = components(two_triangles)
        assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]

    def test_connected_is_single(self, pete):
        assert len(components(pete)) == 1

    def test_trivial_flagging(self, c5):
        comps = [frozenset(mask_bits(c)) for c in mask_components(c5.masks, 0b11010)]
        assert [sorted(c) for c in comps] == [[1], [3, 4]]
        assert [len(c) >= 2 for c in comps] == [False, True]

    def test_match_networkx_with_exclusions(self):
        rng = random.Random(5)
        for g in random_graphs(60, 30, 1200) + [petersen(), cycle(7)]:
            excluded = set(rng.sample(range(g.n), rng.randint(0, g.n // 2)))
            nxg = nx.Graph()
            nxg.add_nodes_from(v for v in range(g.n) if v not in excluded)
            nxg.add_edges_from((u, v) for u, v in g.edges() if u in nxg and v in nxg)
            expected = sorted((frozenset(c) for c in nx.connected_components(nxg)), key=min)
            alive = vertex_mask(g, None) & ~vertex_mask(g, excluded)
            assert [frozenset(mask_bits(c)) for c in mask_components(g.masks, alive)] == expected
            for comp in expected:
                for v in comp:
                    assert frozenset(mask_bits(mask_component(g.masks, v, alive))) == comp


class TestTree:
    def test_rejects_cycle(self, c4):
        with pytest.raises(ValueError, match="not a tree"):
            Tree(c4)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize(
        "graph",
        [Graph(4, [(1, 2), (2, 3), (1, 3)]), Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)])],
        ids=["triangle+isolated", "4-cycle+isolated"],
    )
    def test_rejects_disconnected_with_tree_edge_count(self, graph):
        # n - 1 edges, so only the connectivity half of the check rejects.
        assert graph.edge_count == graph.n - 1
        with pytest.raises(ValueError, match="not a tree"):
            Tree(graph)

    def test_single_vertex(self):
        t = Tree(Graph(1))
        assert t.order == 1
        assert t.part_x == {0} and t.part_y == frozenset()
        assert t.max_degree == 0

    def test_path_bipartition(self):
        t = Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert t.part_x == {0, 2} and t.part_y == {1, 3}
        assert t.max_degree == 2

    def test_star_parts(self):
        t = Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert t.part_x == {0} and t.part_y == {1, 2, 3}
        assert t.max_degree == 3

    def test_every_edge_crosses_parts(self):
        t = Tree.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        for u, v in t.graph.edges():
            assert (u in t.part_x) != (v in t.part_x)


class TestFamilyShapes:
    def test_hypercube(self, q3):
        assert q3.n == 8 and q3.edge_count == 12
        assert girth(q3) == 4

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.edge_count == 6

    def test_petersen_shape(self, pete):
        assert pete.n == 10 and pete.edge_count == 15

"""Disjoint-path connectivity, separators, and the Menger cross-check."""

from itertools import combinations

import pytest

from keeptree.connectivity import (
    connectivity_at_least,
    find_pair_below,
    global_connectivity,
    is_k_connected_after_removal,
    local_connectivity_value,
    min_separator,
)
from keeptree.errors import GuardExceeded
from keeptree.families import complete_bipartite, random_graph
from keeptree.graphs import Graph, degree_stats, induced_delete
from oracles import (
    brute_connectivity,
    brute_min_separator,
    check_path_system,
    max_flow_paths,
    small_connected_graphs,
)


def random_graphs(count: int, max_n: int, base_seed: int):
    out = []
    for i in range(count):
        n = 3 + (i % (max_n - 2))
        p = (0.25, 0.45, 0.65)[i % 3]
        out.append(random_graph(n, p, base_seed + i))
    return out


class TestLocalConnectivity:
    def test_cycle_nonadjacent(self, c5):
        value, paths = max_flow_paths(c5, 0, 2)
        assert value == 2 and len(paths) == 2
        assert not check_path_system(c5, 0, 2, paths)

    def test_path_endpoints(self, p3):
        value, paths = max_flow_paths(p3, 0, 2)
        assert value == 1 and paths == [(0, 1, 2)]

    def test_k33_same_side(self, k33):
        value, _ = max_flow_paths(k33, 0, 1)
        assert value == 3
        assert len(brute_min_separator(k33, 0, 1)) == 3

    def test_adjacent_pair_counts_direct_edge(self):
        g = Graph(2, [(0, 1)])
        value, paths = max_flow_paths(g, 0, 1)
        assert value == 1 and paths == [(0, 1)]

    def test_same_vertex_rejected(self, c5):
        with pytest.raises(ValueError):
            local_connectivity_value(c5, 1, 1)

    def test_witness_paths_always_validate(self):
        for g in random_graphs(60, 8, 50):
            for u, v in combinations(range(g.n), 2):
                value, paths = max_flow_paths(g, u, v)
                assert not check_path_system(g, u, v, paths)
                assert len(paths) == value


class TestSetConnectivity:
    def test_singleton_unbounded(self, c5):
        # A set with no pair has no pair below any bound.
        assert find_pair_below(c5, {3}, c5.n) is None
        assert find_pair_below(c5, set(), c5.n) is None

    def test_k44_whole_set(self, k44):
        # Brute force: no subset of size < 4 separates any pair.
        assert find_pair_below(k44, range(8), 5)[2] == 4
        for u, v in combinations(range(8), 2):
            if not k44.has_edge(u, v):
                assert len(brute_min_separator(k44, u, v)) == 4

    def test_find_pair_below(self, c5, k44):
        assert find_pair_below(k44, range(8), 4) is None
        witness = find_pair_below(c5, range(5), 3)
        assert witness is not None and witness[2] == 2


class TestGlobalConnectivity:
    def test_k2_complete_convention(self):
        assert global_connectivity(Graph(2, [(0, 1)])) == 1

    def test_cycle(self, c5):
        assert global_connectivity(c5) == 2

    def test_petersen_exhaustive(self, pete):
        assert global_connectivity(pete) == 3
        # No 2-subset disconnects; some 3-subset does.
        for pair in combinations(range(10), 2):
            h, _ = induced_delete(pete, pair)
            assert len([c for c in _comps(h)]) == 1
        assert any(
            len(_comps(induced_delete(pete, triple)[0])) > 1
            for triple in combinations(range(10), 3)
        )

    def test_complete_graph(self, k4):
        assert global_connectivity(k4) == 3

    def test_disconnected_and_tiny(self, two_triangles):
        assert global_connectivity(two_triangles) == 0
        assert global_connectivity(Graph(1)) == 0
        assert global_connectivity(Graph(0)) == 0

    def test_never_exceeds_min_degree(self):
        for g in random_graphs(80, 8, 210):
            stats = degree_stats(g)
            assert global_connectivity(g) <= stats[0]

    def test_equals_pair_minimum(self):
        for g in random_graphs(60, 7, 500):
            kappa = global_connectivity(g)
            if g.n < 2:
                continue
            pair_min = min(
                local_connectivity_value(g, u, v)
                for u, v in combinations(range(g.n), 2)
                if not g.has_edge(u, v)
            ) if any(
                not g.has_edge(u, v) for u, v in combinations(range(g.n), 2)
            ) else g.n - 1
            assert kappa == pair_min

    def test_small_graphs_match_brute(self):
        # Every connected graph on up to 7 vertices, whole and with each
        # vertex removed: both the designated pairs and Even's scan.
        for g in small_connected_graphs(7):
            for removed in [frozenset()] + [frozenset({v}) for v in range(g.n)]:
                assert global_connectivity(g, removed) == brute_connectivity(g, removed), (
                    g.edges(),
                    removed,
                )

    def test_threshold_consistency(self):
        for g in random_graphs(60, 8, 321):
            kappa = global_connectivity(g)
            for k in range(0, 6):
                assert connectivity_at_least(g, k) == (kappa >= k if k > 0 else True)


def _comps(g: Graph):
    from keeptree.graphs import components

    return components(g)


class TestRemoval:
    def test_k44_keeps_three(self, k44):
        assert is_k_connected_after_removal(k44, {0, 4}, 3)

    def test_c4_adjacent_pair_fails_two(self, c4):
        assert not is_k_connected_after_removal(c4, {0, 1}, 2)

    def test_empty_removal_identity(self, pete):
        assert is_k_connected_after_removal(pete, set(), 3)

    def test_monotone_under_deletion(self):
        # Local connectivity never increases when a vertex is deleted.
        for g in random_graphs(40, 7, 808):
            if g.n < 4:
                continue
            victim = g.n - 1
            h, kept = induced_delete(g, {victim})
            back = {old: new for new, old in enumerate(kept)}
            for u, v in combinations(range(g.n - 1), 2):
                assert local_connectivity_value(
                    h, back[u], back[v]
                ) <= local_connectivity_value(g, u, v)


class TestSeparators:
    def test_path_middle(self, p3):
        assert brute_min_separator(p3, 0, 2) == {1}

    def test_cycle_pair(self, c5):
        assert len(brute_min_separator(c5, 0, 2)) == 2

    def test_adjacent_rejected(self, c5):
        with pytest.raises(ValueError, match="adjacent"):
            brute_min_separator(c5, 0, 1)
        with pytest.raises(ValueError, match="adjacent"):
            min_separator(c5, 0, 1)

    def test_guard(self):
        big = complete_bipartite(8, 8)
        with pytest.raises(GuardExceeded):
            brute_min_separator(big, 0, 1, guard=12)

    def test_flow_cut_matches_brute(self):
        for g in random_graphs(50, 7, 1234):
            for u, v in combinations(range(g.n), 2):
                if g.has_edge(u, v):
                    continue
                cut = min_separator(g, u, v)
                assert len(cut) == len(brute_min_separator(g, u, v))
                h, _ = induced_delete(g, cut)
                from keeptree.graphs import component_containing

                assert v not in component_containing(g, u, cut)

    def test_menger_smoke(self):
        # The exhaustive run lives in the acceptance suite; this is a quick gate.
        for g in random_graphs(60, 8, 4242):
            for u, v in combinations(range(g.n), 2):
                if g.has_edge(u, v):
                    continue
                assert local_connectivity_value(g, u, v) == len(
                    brute_min_separator(g, u, v)
                )

"""Family generators: shapes, declared properties, reproducibility."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keeptree.connectivity import global_connectivity
from keeptree.errors import GuardExceeded
from keeptree.families import (
    FamilySpec,
    complete_bipartite,
    cycle,
    double_broom,
    enumerate_trees,
    gen_graph,
    gen_tree,
    grid,
    heawood,
    hoffman_singleton,
    hypercube,
    path_graph,
    petersen,
    projective_incidence,
    prufer_decode,
    random_bipartite,
    random_graph,
    random_triangle_free,
    spider,
    star,
    tree_canonical,
)
from keeptree.graphs import (
    Tree,
    bipartition,
    degree_stats,
    girth,
    is_triangle_free,
)


class TestStructuredFamilies:
    def test_complete_bipartite_kappa(self):
        # kappa(K_{a,b}) = min(a, b), brute-checked at small sizes.
        for a, b in ((2, 3), (3, 3), (2, 5), (4, 4)):
            assert global_connectivity(complete_bipartite(a, b)) == min(a, b)

    def test_hypercube(self):
        q3 = hypercube(3)
        assert q3.n == 8 and q3.edge_count == 12 and girth(q3) == 4
        parts = bipartition(q3)
        assert parts is not None and degree_stats(q3) == (3, 3)
        assert global_connectivity(q3) == 3

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.edge_count == 15
        assert girth(g) == 5 and global_connectivity(g) == 3

    def test_heawood(self):
        g = heawood()
        assert g.n == 14 and g.edge_count == 21
        assert degree_stats(g) == (3, 3) and girth(g) == 6

    def test_projective_incidence_fano_matches_heawood_parameters(self):
        g = projective_incidence(2)
        assert g.n == 14 and degree_stats(g) == (3, 3) and girth(g) == 6

    def test_projective_incidence_q3(self):
        g = projective_incidence(3)
        assert g.n == 26 and degree_stats(g) == (4, 4) and girth(g) == 6
        assert bipartition(g) is not None

    def test_projective_incidence_rejects_composites(self):
        with pytest.raises(ValueError):
            projective_incidence(4)

    def test_hoffman_singleton(self):
        g = hoffman_singleton()
        assert g.n == 50 and g.edge_count == 175
        assert degree_stats(g) == (7, 7) and girth(g) == 5
        assert global_connectivity(g) == 7

    def test_grid_and_paths(self):
        assert girth(grid(3, 3)) == 4
        assert girth(grid(1, 5)) is None
        assert path_graph(1).n == 1
        with pytest.raises(ValueError):
            cycle(2)

    def test_tree_shapes(self):
        assert degree_stats(star(6)) == (1, 5)
        sp = spider(2, 2, 1)
        assert sp.n == 6 and Tree(sp).max_degree == 3
        db = double_broom(3, 2, 2)
        assert db.n == 7 and Tree(db).max_degree == 3


class TestRandomFamilies:
    def test_reproducible(self):
        a = random_graph(10, 0.4, 99)
        b = random_graph(10, 0.4, 99)
        assert a == b
        assert a != random_graph(10, 0.4, 100)

    def test_bipartite_keeps_floor(self):
        for seed in range(25):
            g = random_bipartite(6, 6, 4, seed)
            assert degree_stats(g)[0] >= 4
            assert bipartition(g) is not None
            assert global_connectivity(g) >= 2

    def test_bipartite_rejects_impossible_floor(self):
        with pytest.raises(ValueError):
            random_bipartite(3, 3, 4, 0)

    def test_triangle_free_verified(self):
        for seed in range(15):
            g = random_triangle_free(12, 0.5, seed)
            assert is_triangle_free(g)

    def test_triangle_free_reproducible(self):
        assert random_triangle_free(12, 0.5, 3) == random_triangle_free(12, 0.5, 3)


class TestTreeProperties:
    @given(st.integers(1, 10), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_generated_tree_invariants(self, m, seed):
        t = gen_tree(m, seed)
        assert t.graph.edge_count == m - 1
        assert t.part_x | t.part_y == frozenset(range(m))
        assert not t.part_x & t.part_y
        for u, v in t.graph.edges():
            assert (u in t.part_x) != (v in t.part_x)
        assert t.max_degree == max(t.graph.degree(v) for v in range(m))

    @given(st.integers(2, 7), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_relabeling_invariant(self, m, seed):
        t = gen_tree(m, seed)
        perm = list(range(m))
        random.Random(seed ^ 0xC0FFEE).shuffle(perm)
        relabeled = Tree.from_edges(
            m, [(perm[u], perm[v]) for u, v in t.graph.edges()]
        )
        assert tree_canonical(t) == tree_canonical(relabeled)


class TestTrees:
    def test_gen_tree_small_orders(self):
        t1 = gen_tree(1, 0)
        assert t1.order == 1 and t1.part_x == {0} and not t1.part_y
        t2 = gen_tree(2, 0)
        assert len(t2.part_x) == len(t2.part_y) == 1

    def test_gen_tree_is_tree_and_reproducible(self):
        for m in range(3, 9):
            t = gen_tree(m, 42)
            assert t.graph.edge_count == m - 1
            assert gen_tree(m, 42) == t

    def test_prufer_decode_known(self):
        # Sequence (0, 0) is the star on 4 vertices centered at 0.
        edges = prufer_decode([0, 0], 4)
        assert sorted(edges) == [(0, 1), (0, 2), (0, 3)]

    def test_enumerate_counts(self):
        # Isomorphism classes of trees on 1..7 vertices.
        for m, count in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)):
            assert len(enumerate_trees(m)) == count

    def test_enumerate_m4_classes(self):
        classes = enumerate_trees(4)
        degrees = sorted(t.max_degree for t in classes)
        assert degrees == [2, 3]  # the path and the star

    def test_enumerate_labeled(self):
        # The 4^2 decoding sequences of order 4 give 16 distinct labeled trees
        # (Cayley), which fall into the two classes above.
        decoded = {
            frozenset(map(frozenset, prufer_decode(list(seq), 4)))
            for seq in product(range(4), repeat=2)
        }
        assert len(decoded) == 16

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_trees(8)

    def test_canonical_separates_path_from_star(self):
        path = Tree(path_graph(4))
        s = Tree(star(4))
        assert tree_canonical(path) != tree_canonical(s)
        relabeled = Tree.from_edges(4, [(2, 1), (1, 0), (0, 3)])
        assert tree_canonical(relabeled) == tree_canonical(path)


class TestFamilySpecDispatch:
    def test_deterministic_family(self):
        g = gen_graph(FamilySpec("complete-bipartite", (4, 4)))
        assert g.n == 8 and degree_stats(g) == (4, 4)

    def test_seeded_family(self):
        g1 = gen_graph(FamilySpec("random-bipartite", (5, 5, 3), seed=7))
        g2 = gen_graph(FamilySpec("random-bipartite", (5, 5, 3), seed=7))
        assert g1 == g2

    def test_random_tree_family(self):
        g = gen_graph(FamilySpec("random-tree", (5,), seed=3))
        assert g.edge_count == 4

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_graph(FamilySpec("mystery"))

    def test_bad_arity(self):
        with pytest.raises(ValueError, match="parameters"):
            gen_graph(FamilySpec("cycle", (3, 4)))

"""Tree embeddings: greedy, bipartition-respecting, sparse search, oracle."""

from itertools import permutations

import pytest

from keeptree.embed import (
    Embedding,
    _anchored_search,
    _bfs_order,
    bipartite_embed,
    embedding_errors,
    exhaustive_embed,
    greedy_embed,
    iter_embeddings,
    sparse_embed,
)
from keeptree.errors import GuardExceeded, PreconditionError
from keeptree.families import (
    complete_bipartite,
    cycle,
    enumerate_trees,
    path_graph,
    petersen,
    random_graph,
    spider,
    star,
)
from keeptree.graphs import Graph, Tree, bipartition, degree_stats
from oracles import side_errors


def validate(host, tree, emb, sides=None):
    """Assert a valid embedding; with ``sides`` (x_to, y_to), also that the
    tree's parts land on those host sides."""
    problems = embedding_errors(host, tree, emb)
    if sides is not None:
        problems += side_errors(tree, emb, *sides)
    assert not problems, problems


class TestGreedyEmbed:
    def test_p3_into_c5(self, c5, tree_p3):
        validate(c5, tree_p3, greedy_embed(c5, tree_p3))

    def test_single_vertex_maps_to_zero(self, c5, tree_single):
        emb = greedy_embed(c5, tree_single)
        assert emb.as_dict() == {0: 0}

    def test_star_into_k44(self, k44):
        t = Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        emb = greedy_embed(k44, t)
        validate(k44, t, emb)
        d = emb.as_dict()
        # Center lands on one side, all leaves on the other.
        sides = bipartition(k44)
        center_side = 0 if d[0] in sides[0] else 1
        assert all(d[leaf] in sides[1 - center_side] for leaf in range(1, 5))

    def test_precondition_reports_offender(self, c5):
        t = Tree(path_graph(4))
        with pytest.raises(PreconditionError, match="vertex"):
            greedy_embed(c5, t)

    def test_succeeds_wherever_exhaustive_does(self):
        trees = [t for m in range(1, 6) for t in enumerate_trees(m)]
        for seed in range(40):
            host = random_graph(4 + seed % 5, 0.7, seed + 31)
            stats = degree_stats(host)
            for t in trees:
                if stats is None or stats[0] < t.order - 1:
                    continue
                emb = greedy_embed(host, t)
                validate(host, t, emb)
                assert exhaustive_embed(host, t) is not None


def oriented_sides(host, tree, emb):
    """The host sides, ordered so that the first holds the image of X."""
    parts = bipartition(host)
    return parts if emb.as_dict()[0] in parts[0] else parts[::-1]


class TestBipartiteEmbed:
    def test_asymmetric_tree_into_k33(self, k33):
        # |X| = 2, |Y| = 3 spider; delta = 3 = max{|X|,|Y|}.
        t = Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert (len(t.part_x), len(t.part_y)) in {(2, 3), (3, 2)}
        emb = bipartite_embed(k33, t)
        validate(k33, t, emb, oriented_sides(k33, t, emb))
        assert exhaustive_embed(k33, t) is not None

    def test_single_edge_into_k2(self):
        g = Graph(2, [(0, 1)])
        t = Tree.from_edges(2, [(0, 1)])
        emb = bipartite_embed(g, t)
        validate(g, t, emb)

    def test_p4_into_c4(self, c4, tree_p4):
        emb = bipartite_embed(c4, tree_p4)
        validate(c4, tree_p4, emb, oriented_sides(c4, tree_p4, emb))
        # Exhaustive search over the candidate maps agrees it exists.
        assert exhaustive_embed(c4, tree_p4) is not None

    def test_orientation_swap_used_when_needed(self):
        # K_{4,2}: the star K_{1,3} centre must land on the degree-4 side,
        # which is the second side of the bipartition.
        g = complete_bipartite(4, 2)
        assert bipartition(g)[1] == frozenset({4, 5})
        t = Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        d = bipartite_embed(g, t).as_dict()
        assert d[0] == 4
        assert sorted(d[leaf] for leaf in (1, 2, 3)) == [0, 1, 2]

    def test_fails_both_orientations(self):
        g = complete_bipartite(1, 1)
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="both orientations"):
            bipartite_embed(g, t)

    def test_rejects_non_bipartite_host(self, c5, tree_k2):
        with pytest.raises(PreconditionError, match="not bipartite"):
            bipartite_embed(c5, tree_k2)


class TestSparseEmbed:
    def test_p5_into_petersen(self, pete):
        t = Tree(path_graph(5))
        validate(pete, t, sparse_embed(pete, t))
        # Independent check: an explicit length-4 path exists.
        assert exhaustive_embed(pete, t) is not None

    def test_single_edge_into_c5(self, c5, tree_k2):
        validate(c5, tree_k2, sparse_embed(c5, tree_k2))

    def test_degree_obstruction(self, pete):
        t = Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(PreconditionError, match="maximum host degree"):
            sparse_embed(pete, t)

    def test_girth_precondition(self, c4, tree_k2):
        with pytest.raises(PreconditionError, match="girth"):
            sparse_embed(c4, tree_k2)

    def test_generalized_girth_hypothesis(self):
        # Heawood graph has girth 6 >= 2*2+1; paths of 5 vertices embed.
        from keeptree.families import heawood

        t = Tree(path_graph(5))
        validate(heawood(), t, sparse_embed(heawood(), t))

    def test_t_above_two_needs_minimum_degree_at_least_tree_degree(self):
        # For t > 2 the minimum-degree bound is max((m-1)/t, max tree degree):
        # C9 (girth 9 >= 2*3+1, degree 2) cannot host the star K1,3 ...
        star4 = Tree(star(4))
        with pytest.raises(PreconditionError, match="minimum degree 2 is below 3"):
            sparse_embed(cycle(9), star4, 3)
        # ... but does host the path on three vertices.
        p3 = Tree(path_graph(3))
        validate(cycle(9), p3, sparse_embed(cycle(9), p3, 3))

    def test_all_hypothesis_pairs_succeed_small(self):
        hosts = [cycle(n) for n in range(5, 11)] + [petersen()]
        trees = [t for m in range(1, 6) for t in enumerate_trees(m)]
        for host in hosts:
            stats = degree_stats(host)
            for t in trees:
                if 2 * stats[0] < t.order - 1 or stats[1] < t.max_degree:
                    continue
                validate(host, t, sparse_embed(host, t))

    def test_degree_prune_keeps_the_first_map(self):
        # Petersen minus the edge 0-1: vertices 0 and 1 have degree 2, below
        # the centre's 3, so the prune skips them as images of the centre.
        # It only skips vertices that cannot host, so these are the first
        # maps of the search without it.
        host = Graph(10, [e for e in petersen().edges() if e != (0, 1)])
        assert sparse_embed(host, Tree(star(4))).mapping == ((0, 2), (1, 1), (2, 3), (3, 7))
        assert sparse_embed(host, Tree(spider(1, 1, 2))).mapping == (
            (0, 2), (1, 3), (2, 7), (3, 1), (4, 6)
        )


class TestExhaustiveEmbed:
    def test_too_small_host(self):
        t = Tree(path_graph(4))
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert exhaustive_embed(g, t) is None

    def test_identity_path(self, p3, tree_p3):
        emb = exhaustive_embed(p3, tree_p3)
        assert emb is not None
        validate(p3, tree_p3, emb)

    def test_guard(self):
        big = complete_bipartite(8, 8)
        with pytest.raises(GuardExceeded, match="16 > 12"):
            exhaustive_embed(big, Tree(Graph(1)))

    def test_iterator_counts_labeled_embeddings(self, c4, tree_k2):
        # Each of the 4 edges in both directions.
        assert len(list(iter_embeddings(c4, tree_k2))) == 8

    @pytest.mark.parametrize(
        "host", [cycle(5), petersen(), complete_bipartite(2, 3)], ids=["C5", "Petersen", "K2,3"]
    )
    def test_iterator_order_is_lexicographic_along_bfs(self, host):
        # Every injective map that keeps the tree's edges, ordered by the
        # images of the BFS order from tree vertex 0.
        for tree in [t for m in range(1, 5) for t in enumerate_trees(m)]:
            order, _ = _bfs_order(tree, 0)
            maps = [
                dict(zip(order, images))
                for images in permutations(range(host.n), tree.order)
                if all(host.has_edge(images[order.index(a)], images[order.index(b)])
                       for a, b in tree.graph.edges())
            ]
            assert list(iter_embeddings(host, tree)) == [Embedding.from_dict(d) for d in maps]

    def test_search_depth_is_not_bounded_by_recursion(self):
        # One loop, no recursion: a tree of order 3,000 is deeper than the
        # interpreter's default recursion limit.
        host = path_graph(3000)
        tree = Tree(host)
        order, parent = _bfs_order(tree, 0)
        emb = next(_anchored_search(host.masks, tree, order, parent, 1))
        assert emb.mapping == tuple((v, v) for v in range(3000))


class TestValidator:
    def test_non_injective_rejected(self, c4, tree_k2):
        emb = Embedding.from_dict({0: 1, 1: 1})
        assert any("injective" in p for p in embedding_errors(c4, tree_k2, emb))

    def test_non_edge_rejected(self, c4, tree_k2):
        emb = Embedding.from_dict({0: 0, 1: 2})
        assert any("non-edge" in p for p in embedding_errors(c4, tree_k2, emb))

    def test_side_respect(self, c4, tree_k2):
        emb = Embedding.from_dict({0: 0, 1: 1})
        assert not side_errors(tree_k2, emb, frozenset({0, 2}), frozenset({1, 3}))
        assert side_errors(tree_k2, emb, frozenset({1, 3}), frozenset({0, 2}))

    def test_wrong_domain(self, c4, tree_p3):
        emb = Embedding.from_dict({0: 0, 1: 1})
        assert embedding_errors(c4, tree_p3, emb)

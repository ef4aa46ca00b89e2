"""Connected triples: validation, enumeration, search, refinement, removal."""

import random
import sys
from itertools import combinations

import pytest

from keeptree.connectivity import is_k_connected_after_removal
from keeptree.errors import GuardExceeded, PreconditionError
from keeptree.families import complete_bipartite, random_graph
from keeptree.graphs import Graph
from keeptree.matching import Matching
from keeptree.triples import (
    ConnectedTriple,
    SaturatedTriple,
    enumerate_triples,
    find_triple,
    hall_refine,
    validate_triple,
)
from oracles import components_without


@pytest.fixture
def two_c4_bridge():
    # Two 4-cycles 0-1-2-3 and 4-5-6-7 joined by the bridge edge 0-4.
    return Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)],
    )


@pytest.fixture
def glued_blobs():
    # Two complete bipartite blocks sharing only vertex 7.
    edges = [(i, j) for i in range(4) for j in range(4, 8)]
    edges += [(i, j) for i in (7, 8, 9, 10) for j in (11, 12, 13, 14)]
    return Graph(15, edges)


class TestValidateTriple:
    def test_k44_whole_graph(self, k44):
        t = ConnectedTriple(3, frozenset(), frozenset(), frozenset(range(8)))
        report = validate_triple(k44, t)
        assert report.passed, report.first_failure()

    def test_overlap_fails_disjointness(self, k44):
        t = ConnectedTriple(3, frozenset({0}), frozenset({0}), frozenset(range(1, 8)))
        report = validate_triple(k44, t)
        assert not report.get("disjoint")

    def test_escaping_edge_fails_component(self, c6):
        # {2, 3} is connected but the edge 3-4 leaves it without entering s1/s2.
        t = ConnectedTriple(2, frozenset({1}), frozenset(), frozenset({2, 3}))
        report = validate_triple(c6, t)
        assert not report.get("component")

    def test_size_bound(self, k44):
        t = ConnectedTriple(
            1, frozenset({0}), frozenset({1, 2}), frozenset({4, 5, 6, 7})
        )
        report = validate_triple(k44, t)
        assert not report.get("size")

    def test_s1_degree_witness(self, k44):
        # Vertex 0 has 4 > p = 2 neighbors in the fragment.
        t = ConnectedTriple(2, frozenset({0}), frozenset({1}), frozenset(range(2, 8)))
        report = validate_triple(k44, t)
        assert not report.get("s1-degree")
        assert "vertex 0" in dict(
            (name, detail) for name, _, detail in report.checks
        )["s1-degree"]

    def test_trivial_fragment_rejected(self, c6):
        t = ConnectedTriple(2, frozenset({1, 3}), frozenset(), frozenset({2}))
        report = validate_triple(c6, t)
        assert not report.get("nontrivial")

    def test_low_connectivity_witnessed(self, two_c4_bridge):
        # The whole graph has a bridge, so the trivial triple fails (iii).
        t = ConnectedTriple(1, frozenset(), frozenset(), frozenset(range(8)))
        report = validate_triple(two_c4_bridge, t)
        assert not report.get("connectivity")

    def test_invalid_ids_raise(self, c6):
        with pytest.raises(ValueError):
            validate_triple(c6, ConnectedTriple(1, frozenset({9}), frozenset(), frozenset({1, 2})))


class TestEnumerateTriples:
    def test_c6_p1_census(self, c6):
        found, truncated = enumerate_triples(c6, 1)
        assert not truncated
        # The whole cycle, plus one triple per single vertex moved to s2.
        expected = {(frozenset(), frozenset(), frozenset(range(6)))} | {
            (frozenset(), frozenset({v}), frozenset(range(6)) - {v}) for v in range(6)
        }
        assert {(t.s1, t.s2, t.f) for t in found} == expected

    def test_s1_excluded_on_c6(self, c6):
        # Any cycle vertex has two fragment neighbors, above p = 1.
        found, _ = enumerate_triples(c6, 1)
        assert all(not t.s1 for t in found)

    def test_truncation_flag(self, c6):
        found, truncated = enumerate_triples(c6, 1, limit=3)
        assert len(found) == 3 and truncated

    @pytest.mark.parametrize("limit, truncated", [(0, True), (6, True), (7, False), (8, False)])
    def test_limit_is_exact(self, c6, limit, truncated):
        # C6 has 7 triples for p = 1: the flag means a further one exists.
        everything, _ = enumerate_triples(c6, 1)
        found, flag = enumerate_triples(c6, 1, limit=limit)
        assert found == everything[:limit] and flag == truncated

    @pytest.mark.parametrize("limit", [-1, -2])
    def test_negative_limit_rejected(self, c6, limit):
        with pytest.raises(ValueError, match="limit"):
            enumerate_triples(c6, 1, limit=limit)

    def test_fragments_always_nontrivial(self):
        g = Graph(2, [(0, 1)])
        found, _ = enumerate_triples(g, 2)
        assert all(len(t.f) >= 2 for t in found)

    def test_isolated_vertex_never_fragment(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        found, _ = enumerate_triples(g, 1)
        assert all(4 not in t.f for t in found)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_triples(complete_bipartite(6, 6), 1)

    def test_agreement_with_validator(self, c6):
        # Everything listed validates; nearby non-listed candidates do not.
        found, _ = enumerate_triples(c6, 1)
        for t in found:
            assert validate_triple(c6, t).passed
        unlisted = ConnectedTriple(1, frozenset({0}), frozenset(), frozenset(range(1, 6)))
        assert not validate_triple(c6, unlisted).passed

    def test_exhaustive_agreement_small_graphs(self, c6, k33, two_c4_bridge):
        # A candidate is listed iff the validator passes: re-derive the full
        # candidate space independently and compare.
        cases = [(c6, 1), (c6, 2), (k33, 1), (k33, 2), (two_c4_bridge, 1)]
        for g, p in cases:
            listed = {
                (t.s1, t.s2, t.f) for t in enumerate_triples(g, p)[0]
            }
            rederived = set()
            for size in range(min(2 * p - 1, g.n) + 1):
                for subset in combinations(range(g.n), size):
                    fragments = components_without(g, subset)
                    for mask in range(1 << size):
                        s1 = frozenset(subset[i] for i in range(size) if mask >> i & 1)
                        s2 = frozenset(subset) - s1
                        for f in fragments:
                            cand = ConnectedTriple(p, s1, s2, f)
                            if validate_triple(g, cand).passed:
                                rederived.add((s1, s2, f))
            assert listed == rederived


@pytest.mark.parametrize("seed", range(4))
def test_widest_split_rule(seed):
    """The split with every eligible vertex of S in s1 passes validation
    exactly when some split of S does, by brute force over all 2^|S| splits
    on random graphs with n <= 10, p <= 3 and |S| <= 2p-1."""
    rng = random.Random(seed)
    cases = valid = 0
    while cases < 300:
        n, p = rng.randint(3, 10), rng.randint(1, 3)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
        s = frozenset(rng.sample(range(n), rng.randint(0, min(2 * p - 1, n - 2))))
        for f in components_without(g, s):
            if len(f) < 2:
                continue
            widest = frozenset(v for v in s if len(g.neighbors(v) & f) <= p)
            some = any(
                validate_triple(g, ConnectedTriple(p, frozenset(s1), s - frozenset(s1), f)).passed
                for size in range(len(s) + 1)
                for s1 in combinations(sorted(s), size)
            )
            assert validate_triple(g, ConnectedTriple(p, widest, s - widest, f)).passed == some
            cases += 1
            valid += some
    assert 0 < valid < cases


class TestFindTriple:
    def test_k44_trivial(self, k44):
        t = find_triple(k44, frozenset(), frozenset(range(8)), 2)
        assert validate_triple(k44, t).passed

    def test_k44_p3_needs_relaxed_degree(self, k44):
        # delta = 4 < 2p = 6: the search has no degree precondition (the
        # pipeline's hypothesis gate stands in for it) and still finds the
        # certified trivial triple.
        t = find_triple(k44, frozenset(), frozenset(range(8)), 3)
        assert t == ConnectedTriple(3, frozenset(), frozenset(), frozenset(range(8)))
        assert validate_triple(k44, t).passed

    def test_s0_too_big(self, c6):
        with pytest.raises(PreconditionError, match="2p-1"):
            find_triple(c6, frozenset({0, 1}), frozenset(range(2, 6)), 1)

    def test_component_precondition(self, c6):
        with pytest.raises(PreconditionError, match="component"):
            find_triple(c6, frozenset({0}), frozenset({1, 2}), 1)

    def test_descends_through_cut_vertex(self, glued_blobs):
        t = find_triple(glued_blobs, frozenset(), frozenset(range(15)), 2)
        assert validate_triple(glued_blobs, t).passed
        # The whole graph fails the connectivity condition, so the fragment
        # must have descended into one of the blocks.
        assert len(t.f) < 15

    def test_respects_component_restriction(self, c6):
        t = find_triple(c6, frozenset({0}), frozenset(range(1, 6)), 1)
        assert validate_triple(c6, t).passed
        assert t.f <= frozenset(range(1, 6))

    def test_found_triples_appear_in_enumeration(self, c6):
        found, _ = enumerate_triples(c6, 1)
        t = find_triple(c6, frozenset(), frozenset(range(6)), 1)
        assert (t.s1, t.s2, t.f) in {(x.s1, x.s2, x.f) for x in found}


class TestHallRefine:
    """``hall_refine(g, s0, c, p)`` starts from ``find_triple(g, s0, c, p)``;
    each test names the refinement branch its instance takes."""

    def test_fixed_point_empty_s1(self, k44):
        everything = frozenset(range(8))
        st = hall_refine(k44, frozenset(), everything, 2)
        assert st.triple == ConnectedTriple(2, frozenset(), frozenset(), everything)
        assert st.matching.size == 0 and st.f_m == frozenset()

    def test_fixed_point_with_matching(self):
        # The first triple's matching saturates s1 = {0, 3} with no tight set.
        g = Graph(6, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)])
        s0, c = frozenset({0, 3}), frozenset({1, 2, 4, 5})
        first = find_triple(g, s0, c, 2)
        assert first.s1 == s0
        st = hall_refine(g, s0, c, 2)
        assert st.triple == first
        assert st.matching.left_vertices() == s0
        assert st.f_m < st.triple.f
        assert len(st.triple.f) > len(st.triple.s1)

    def test_tight_set_triggers_descent(self, two_c4_bridge):
        # Vertex 0 attaches to the far cycle only through 4: {0} is tight,
        # so the fragment must shrink past it.
        s0, c = frozenset({0}), frozenset({4, 5, 6, 7})
        assert find_triple(two_c4_bridge, s0, c, 1) == ConnectedTriple(1, s0, frozenset(), c)
        st = hall_refine(two_c4_bridge, s0, c, 1)
        assert len(st.triple.f) < 4
        assert validate_triple(two_c4_bridge, st.triple).passed
        assert st.matching.left_vertices() == st.triple.s1
        assert st.f_rest

    def test_hall_violator_triggers_descent(self):
        # s1 = {4, 5} has the single fragment neighbour 0, a strict Hall
        # violator: the fragment shrinks to the component past 0.
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)])
        s0, c = frozenset({4, 5}), frozenset({0, 1, 2, 3})
        assert find_triple(g, s0, c, 2).s1 == s0
        st = hall_refine(g, s0, c, 2)
        assert st.triple == ConnectedTriple(2, frozenset(), frozenset({0}), frozenset({1, 2, 3}))
        assert validate_triple(g, st.triple).passed

    def test_search_below_the_entry_takes_masks(self, monkeypatch, two_c4_bridge, glued_blobs):
        # Past find_triple's entry checks, cut descent and the refinement loop
        # call no set-level helper, and the loop re-runs the search without
        # re-entering find_triple.
        from keeptree import connectivity, graphs, triples

        def banned(*args, **kwargs):
            raise AssertionError("set-level helper called below the entry")

        helpers = (
            connectivity.min_separator,
            connectivity.local_connectivity_value,
            graphs.induced_subgraph,
            graphs.components,
        )
        for name, module in list(sys.modules.items()):
            if name == "keeptree" or name.startswith("keeptree."):
                for attr, value in list(vars(module).items()):
                    if any(value is helper for helper in helpers):
                        monkeypatch.setattr(module, attr, banned)
        entries = []
        find = triples.find_triple
        monkeypatch.setattr(triples, "find_triple", lambda *args: entries.append(args) or find(*args))
        st = hall_refine(two_c4_bridge, frozenset({0}), frozenset({4, 5, 6, 7}), 1)
        assert len(st.triple.f) < 4 and len(entries) == 1  # refined past the first triple
        assert validate_triple(glued_blobs, find(glued_blobs, (), range(15), 2)).passed

    def test_contradiction_branch_surfaces_loudly(self):
        # K4 minus the edge 0-1: a valid triple whose refinement swallows the
        # whole fragment.  That can only happen off-hypotheses (the graph has
        # a triangle), and it must surface as a diagnostic, never silently.
        from keeptree.errors import TheoremViolation

        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(TheoremViolation, match="whole fragment"):
            hall_refine(g, frozenset({0, 1}), frozenset({2, 3}), 2)

    def test_bad_inputs(self, c6):
        with pytest.raises(PreconditionError, match="2p-1"):
            hall_refine(c6, frozenset({0, 1}), frozenset(range(2, 6)), 1)
        with pytest.raises(PreconditionError, match="component"):
            hall_refine(c6, frozenset({0}), frozenset({1, 2}), 1)

    def test_outputs_always_validate(self, c6, k44, pete):
        cases = [
            (c6, frozenset({0}), frozenset(range(1, 6)), 1),
            (k44, frozenset(), frozenset(range(8)), 2),
            (pete, frozenset(), frozenset(range(10)), 1),
        ]
        for g, s0, c, p in cases:
            st = hall_refine(g, s0, c, p)
            assert validate_triple(g, st.triple).passed
            assert len(st.triple.f) > len(st.triple.s1)
            assert st.f_rest
            assert st.matching.left_vertices() == st.triple.s1


class TestRemovalSafety:
    def test_single_vertex_removal_keeps_k(self, k44):
        st = hall_refine(k44, frozenset(), frozenset(range(8)), 2)
        for v in sorted(st.f_rest):
            assert is_k_connected_after_removal(k44, {v}, 2)

    def test_random_conforming_instances_hold(self, two_c4_bridge):
        st = hall_refine(two_c4_bridge, frozenset(), frozenset(range(8)), 1)
        for v in sorted(st.f_rest):
            assert is_k_connected_after_removal(two_c4_bridge, {v}, 1)


class TestSaturatedTriple:
    def test_f_rest(self):
        t = ConnectedTriple(2, frozenset({0}), frozenset(), frozenset({1, 2, 3}))
        st = SaturatedTriple(t, Matching(((0, 1),)), frozenset({1}))
        assert st.f_rest == {2, 3}

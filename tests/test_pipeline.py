"""Case selection, hypothesis checks, the full pipeline, and verification."""

import json
import sys
import time
from fractions import Fraction

import pytest

from keeptree import certificate, embed, graphs, pipeline, triples
from keeptree.certificate import (
    CASE_BIPARTITE,
    CASE_GIRTH,
    CASE_TRIANGLE_FREE,
    CaseSelector,
    Certificate,
    compute_beta,
    degree_threshold,
    parse_case,
    verify_certificate,
)
from keeptree.connectivity import connectivity_at_least
from keeptree.errors import GuardExceeded, HypothesisFailure, SearchExhausted, TheoremViolation
from keeptree.families import (
    complete_bipartite,
    cycle,
    enumerate_trees,
    heawood,
    hypercube,
    random_bipartite,
)
from keeptree.graphs import (
    Graph,
    Tree,
    bipartition,
    degree_stats,
    find_triangle,
    girth,
    is_triangle_free,
    mask_bits,
)
from keeptree.matching import Matching
from keeptree.harness import full_suite, oracle_exists
from keeptree.pipeline import check_hypotheses, find_keeping_tree
from keeptree.triples import ConnectedTriple, SaturatedTriple, enumerate_triples, validate_triple
from oracles import small_connected_graphs


def star_tree(m):
    return Tree.from_edges(m, [(0, i) for i in range(1, m)])


def path_tree(m):
    return Tree.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def c5_blowup(t):
    """C5[t]: each vertex of C5 becomes an independent t-set, joined to the
    two neighbouring sets.  2t-regular, triangle-free, girth 4, not bipartite."""
    return Graph(
        5 * t,
        [(t * i + a, t * ((i + 1) % 5) + b) for i in range(5) for a in range(t) for b in range(t)],
    )


def expected_case(g):
    """The auto case rule, restated: bipartite, else the girth case with the
    largest t when the girth is at least 5, else triangle-free."""
    if bipartition(g) is not None:
        return CaseSelector(CASE_BIPARTITE)
    gv = girth(g)
    if gv >= 5:
        return CaseSelector(CASE_GIRTH, (gv - 1) // 2)
    return CaseSelector(CASE_TRIANGLE_FREE)


def bridged_blocks(seed):
    """Two random_bipartite(6, 6, 5) blocks and one bridge vertex joined to
    two vertices of the first block and five of the second, each on one
    side of its block, so the host stays triangle-free."""
    first, second = random_bipartite(6, 6, 5, seed), random_bipartite(6, 6, 5, seed + 1)
    n = first.n
    bridge = 2 * n
    edges = first.edges() + [(u + n, v + n) for u, v in second.edges()]
    edges += [(bridge, v) for v in range(2)] + [(bridge, n + v) for v in range(5)]
    return Graph(bridge + 1, edges)


class TestCaseSelector:
    def test_girth_t_validated(self):
        with pytest.raises(ValueError):
            CaseSelector(CASE_GIRTH, 1)
        assert CaseSelector(CASE_GIRTH, 3).label() == "girth:3"

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            CaseSelector("chordal")

    def test_parse_case(self):
        assert parse_case("auto") is None
        assert parse_case("triangle-free") == CaseSelector(CASE_TRIANGLE_FREE)
        assert parse_case("bipartite") == CaseSelector(CASE_BIPARTITE)
        assert parse_case("girth") == CaseSelector(CASE_GIRTH, 2)
        assert parse_case("girth:3") == CaseSelector(CASE_GIRTH, 3)

    @pytest.mark.parametrize("token", ["girthy", "girth:", "girth:1", "girth:x", "bipartite:2", "Auto", ""])
    def test_parse_case_rejects(self, token):
        with pytest.raises(ValueError):
            parse_case(token)

    @staticmethod
    def auto(g):
        """The case the gate picks with no selector given."""
        report = check_hypotheses(g, Tree.from_edges(1, []), 1)
        return report.sel

    def test_auto_prefers_bipartite(self, k44, pete, c5):
        assert self.auto(k44).case == CASE_BIPARTITE
        assert self.auto(pete) == CaseSelector(CASE_GIRTH, 2)
        # C5 is bipartite? No: odd cycle, girth 5 -> girth case.
        assert self.auto(c5).case == CASE_GIRTH

    def test_auto_falls_back_to_triangle_free(self):
        # Girth 4, not bipartite: C4 plus a chordless C5 sharing a vertex.
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
        assert self.auto(g).case == CASE_TRIANGLE_FREE

    def test_auto_girth_parameter_maximal(self):
        # Odd girth g picks t = (g-1)/2 so the budget (m-1)/t is smallest.
        assert self.auto(cycle(7)) == CaseSelector(CASE_GIRTH, 3)
        assert self.auto(cycle(9)) == CaseSelector(CASE_GIRTH, 4)


class TestBeta:
    def test_triangle_free_m4(self, tree_p4):
        assert compute_beta(CaseSelector(CASE_TRIANGLE_FREE), tree_p4) == 3

    def test_bipartite_p4(self, tree_p4):
        assert compute_beta(CaseSelector(CASE_BIPARTITE), tree_p4) == 2

    def test_girth_star(self):
        t = star_tree(4)
        beta = compute_beta(CaseSelector(CASE_GIRTH, 2), t)
        assert beta == max(Fraction(3, 2), Fraction(3)) == 3

    def test_girth_fraction_kept_exact(self):
        t = Tree.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        beta = compute_beta(CaseSelector(CASE_GIRTH, 2), t)
        assert beta == Fraction(5, 2)

    def test_single_vertex(self, tree_single):
        assert compute_beta(CaseSelector(CASE_TRIANGLE_FREE), tree_single) == 0
        assert compute_beta(CaseSelector(CASE_BIPARTITE), tree_single) == 1
        assert compute_beta(CaseSelector(CASE_GIRTH, 2), tree_single) == 0

    def test_threshold_matches_closed_form(self, tree_p4):
        # 2k + 2m + (m-1) - 3 == 2k + 3m - 4 in the triangle-free case.
        for k in (1, 2, 3):
            assert degree_threshold(
                CaseSelector(CASE_TRIANGLE_FREE), tree_p4, k
            ) == 2 * k + 3 * 4 - 4


class TestCheckHypotheses:
    def test_k44_single_edge_passes(self, k44, tree_k2):
        report = check_hypotheses(k44, tree_k2, 1, CaseSelector(CASE_BIPARTITE))
        assert report.beta == 1 and report.threshold == 4 and report.delta == 4
        assert report.passed and not report.failures

    def test_k4_fails_triangle_free(self, k4, tree_k2):
        report = check_hypotheses(k4, tree_k2, 1, CaseSelector(CASE_TRIANGLE_FREE))
        assert not report.structural_ok
        assert any("triangle" in f for f in report.failures)

    def test_c6_degree_fail(self, c6, tree_p3):
        report = check_hypotheses(c6, tree_p3, 2, CaseSelector(CASE_TRIANGLE_FREE))
        assert report.kappa_ok  # kappa(C6) = 2 >= 2
        assert not report.degree_ok and report.threshold == 9

    def test_bipartite_case_names_an_odd_cycle(self, tree_k2):
        report = check_hypotheses(cycle(7), tree_k2, 1, CaseSelector(CASE_BIPARTITE))
        assert not report.structural_ok and not report.passed
        assert any(f.startswith("odd cycle [") for f in report.failures)

    def test_kappa_failure_fails(self, two_triangles, tree_k2):
        hard = check_hypotheses(
            two_triangles, tree_k2, 1, CaseSelector(CASE_TRIANGLE_FREE)
        )
        assert not hard.passed and not hard.kappa_ok
        assert "connectivity below k = 1" in hard.failures

    @pytest.mark.parametrize("case", [CASE_TRIANGLE_FREE, CASE_GIRTH])
    def test_order_below_k_plus_m_plus_one_fails(self, tree_single, case):
        # K2 with k = m = 1 meets the case thresholds, but G - v = K1 is not
        # 1-connected: no answer exists, so the report must not pass.
        k2 = Graph(2, [(0, 1)])
        report = check_hypotheses(k2, tree_single, 1, CaseSelector(case))
        assert report.kappa_ok and report.structural_ok and report.degree_ok
        assert not report.passed
        assert report.failures == ("n = 2 below k + m + 1 = 3",)
        with pytest.raises(HypothesisFailure):
            find_keeping_tree(k2, tree_single, 1, CaseSelector(case))

    def test_matches_direct_recomputation(self):
        for g in small_connected_graphs(5):
            for m in (1, 2, 3):
                for tree in enumerate_trees(m):
                    for k in (1, 2):
                        report = check_hypotheses(g, tree, k)
                        sel = expected_case(g)
                        assert report.sel == sel
                        assert report.delta == degree_stats(g)[0]
                        assert report.threshold == degree_threshold(sel, tree, k)
                        assert report.triangle_free == is_triangle_free(g)
                        assert report.kappa_ok == connectivity_at_least(g, k)


class TestFindKeepingTree:
    def test_k44_single_edge(self, k44, tree_k2):
        cert = find_keeping_tree(k44, tree_k2, 1)
        assert cert.case.case == CASE_BIPARTITE
        image = cert.embedding.image()
        assert len(image) == 2
        assert cert.connectivity_after_removal == 3
        assert verify_certificate(k44, cert).passed
        # Brute-force confirmation.
        assert oracle_exists(k44, tree_k2, 1) is not None

    def test_q4_hypercube_edge(self, monkeypatch, tree_k2):
        q4 = hypercube(4)
        report = check_hypotheses(q4, tree_k2, 1, CaseSelector(CASE_BIPARTITE))
        assert report.threshold == 4 and report.passed
        cert = find_keeping_tree(q4, tree_k2, 1)
        assert verify_certificate(q4, cert).passed
        monkeypatch.setattr(embed, "BRUTE_GUARD", 16)
        assert oracle_exists(q4, tree_k2, 1) is not None

    def test_below_threshold_raises(self, c6, tree_p3):
        with pytest.raises(HypothesisFailure) as failure:
            find_keeping_tree(c6, tree_p3, 2)
        assert failure.value.report == check_hypotheses(c6, tree_p3, 2)

    def test_force_below_threshold(self, tree_p4):
        # Threshold for m=4 triangle-free is 2+12-4 = 10 > 8 = delta.
        g = complete_bipartite(8, 8)
        cert = find_keeping_tree(
            g, tree_p4, 1, CaseSelector(CASE_TRIANGLE_FREE), force=True
        )
        assert verify_certificate(g, cert).passed

    def test_force_can_fail_with_stage_report(self, k44, c5, tree_p4):
        # K_{4,4} admits no parameter-4 triple at all (kappa of any induced
        # subgraph stays below p+1 = 5), so the triple stage is reported.
        with pytest.raises(SearchExhausted, match="triple stage"):
            find_keeping_tree(
                k44, tree_p4, 1, CaseSelector(CASE_TRIANGLE_FREE), force=True
            )
        with pytest.raises(SearchExhausted, match="stage"):
            find_keeping_tree(c5, tree_p4, 2, CaseSelector(CASE_GIRTH, 2), force=True)

    def test_forced_fallback_obeys_brute_guard(self, monkeypatch, q3, tree_k2):
        # The girth embedder rejects Q3 (girth 4), so the forced run falls
        # back to exhaustive search over the 8-vertex fragment host.
        sel = CaseSelector(CASE_GIRTH, 2)
        cert = find_keeping_tree(q3, tree_k2, 1, sel, force=True)
        assert verify_certificate(q3, cert).passed
        monkeypatch.setattr(embed, "BRUTE_GUARD", 5)
        with pytest.raises(SearchExhausted, match=r"embedding stage \(forced\)"):
            find_keeping_tree(q3, tree_k2, 1, sel, force=True)

    def test_guards_ignore_environment(self, monkeypatch, q3, tree_k2):
        # No guard reads the environment: the fallback and the enumeration
        # keep their fixed bounds whatever KEEPTREE_GUARD says.
        monkeypatch.setenv("KEEPTREE_GUARD", "5")
        cert = find_keeping_tree(q3, tree_k2, 1, CaseSelector(CASE_GIRTH, 2), force=True)
        assert verify_certificate(q3, cert).passed
        monkeypatch.setenv("KEEPTREE_GUARD", "12")
        with pytest.raises(GuardExceeded, match="12 > 10"):
            enumerate_triples(complete_bipartite(6, 6), 1)

    def test_auto_case_costs_one_host_pass(self, monkeypatch, k44, tree_k2):
        # The gate picks the case from the bipartition and girth it computes
        # anyway: one call of each on the whole host per run.  The embedding
        # stage's calls name f - f_m as a vertex mask, another vertex set.
        calls = []
        for fn in (graphs.bipartition, graphs.girth):
            def counted(g, *args, _fn=fn, **kwargs):
                calls.append((_fn.__name__, g, args))
                return _fn(g, *args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("keeptree") and vars(module).get(fn.__name__) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)
        for host, case in ((c5_blowup(4), CASE_TRIANGLE_FREE), (k44, CASE_BIPARTITE)):
            calls.clear()
            cert = find_keeping_tree(host, tree_k2, 1)
            assert cert.case == CaseSelector(case)
            on_host = sorted(name for name, g, args in calls if g is host and not args)
            assert on_host == ["bipartition", "girth"], case

    def test_exhaustive_stage_obeys_enumeration_guard(self, monkeypatch, tree_k2):
        # Forced on Heawood, cut descent finds no triple and the exhaustive
        # stage's closure is the whole 14-vertex host.
        def enumerated(*args):
            raise AssertionError("enumeration ran above the guard")

        with monkeypatch.context() as patched:
            patched.setattr(triples, "_valid_triples", enumerated)
            with pytest.raises(
                SearchExhausted,
                match=r"^triple stage: triple enumeration guard: 14-vertex closure > 10",
            ):
                find_keeping_tree(heawood(), tree_k2, 2, force=True)
        monkeypatch.setattr(triples, "ENUM_GUARD", 14)
        with pytest.raises(
            SearchExhausted,
            match=r"^triple stage: no connected triple inside the restricted search space",
        ):
            find_keeping_tree(heawood(), tree_k2, 2, force=True)

    def test_fragment_degree_violation_names_the_minimum(self, monkeypatch, k44, tree_k2):
        # f - f_m = {0, 1}, one side of K4,4: minimum degree 0 < beta = 1.
        def refined(g, s0, c, p):
            return SaturatedTriple(
                ConnectedTriple(p, frozenset(), frozenset(), frozenset({0, 1})),
                Matching(()),
                frozenset(),
            )

        monkeypatch.setattr(pipeline, "hall_refine", refined)
        with pytest.raises(
            TheoremViolation, match=r"^fragment minimum degree 0 fell below beta = 1 "
        ):
            find_keeping_tree(k44, tree_k2, 1)

    def test_forced_refinement_failure_is_search_exhausted(self, monkeypatch, tree_p4):
        # Below the threshold, Hall refinement consumes the whole fragment of
        # most of these hosts, and the forced run reports the triple stage
        # as exhausted.  Host 1002 has no triple left after refinement, and
        # host 1005 fails at the embedder.  The pinned validation counts
        # hold the enumeration to one widest split per (subset, fragment).
        refined = r"triple stage \(forced\): refinement consumed the whole fragment"
        expected = {
            1000: (refined, 797),
            1001: (refined, 730),
            1002: (r"triple stage: no connected triple inside the restricted search space", 945),
            1003: (refined, 752),
            1004: (refined, 751),
            1005: (r"embedding stage \(forced\): degree conditions fail in both orientations", 297),
            1006: (refined, 885),
            1007: (refined, 749),
        }
        calls = []

        def counted(g, t):
            calls.append(t)
            return validate_triple(g, t)

        monkeypatch.setattr(triples, "validate_triple", counted)
        monkeypatch.setattr(certificate, "validate_triple", counted)
        for seed, (message, validations) in expected.items():
            calls.clear()
            with pytest.raises(SearchExhausted, match=f"^{message}"):
                find_keeping_tree(random_bipartite(5, 5, 4, seed), tree_p4, 1, force=True)
            assert len(calls) == validations, seed

    def test_triple_stage_violation_raises_unless_forced(self, monkeypatch, k44, tree_k2):
        def violated(*args, **kwargs):
            raise TheoremViolation("refinement consumed the whole fragment")

        monkeypatch.setattr(pipeline, "hall_refine", violated)
        with pytest.raises(TheoremViolation, match="consumed"):
            find_keeping_tree(k44, tree_k2, 1)
        with pytest.raises(SearchExhausted, match=r"^triple stage \(forced\): refinement consumed"):
            find_keeping_tree(k44, tree_k2, 1, force=True)

    def test_failures_past_the_gate_carry_the_report(self, monkeypatch, k44, tree_k2, tree_p4):
        sel = CaseSelector(CASE_TRIANGLE_FREE)
        with pytest.raises(SearchExhausted, match="triple stage") as exhausted:
            find_keeping_tree(k44, tree_p4, 1, sel, force=True)
        assert exhausted.value.report == check_hypotheses(k44, tree_p4, 1, sel)

        def violated(*args, **kwargs):
            raise TheoremViolation("refinement consumed the whole fragment")

        monkeypatch.setattr(pipeline, "hall_refine", violated)
        with pytest.raises(TheoremViolation) as violation:
            find_keeping_tree(k44, tree_k2, 1)
        assert violation.value.report.passed and violation.value.report.sel.case == CASE_BIPARTITE

    def test_triple_validated_by_search_and_self_verification_only(
        self, monkeypatch, k44, tree_k2
    ):
        # find_triple certifies the triple that hall_refine starts from, and
        # the self-verification re-checks the refined one: two validations.
        calls = []

        def counted(g, t):
            calls.append(t)
            return validate_triple(g, t)

        monkeypatch.setattr(triples, "validate_triple", counted)
        monkeypatch.setattr(certificate, "validate_triple", counted)
        find_keeping_tree(k44, tree_k2, 1)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "force, error, prefix",
        [(False, TheoremViolation, ""), (True, SearchExhausted, r"final check \(forced\): ")],
        ids=["unforced", "forced"],
    )
    def test_final_check_failure(self, monkeypatch, tree_single, force, error, prefix):
        # The gate passes on the bridged host, but the embedding is forced
        # onto its bridge vertex, a cut vertex: the remainder is
        # disconnected, which only the final connectivity check catches.
        g = bridged_blocks(1000)
        bridge = g.n - 1
        monkeypatch.setattr(
            pipeline, "_case_embed", lambda *args: embed.Embedding.from_dict({0: bridge})
        )
        sel = CaseSelector(CASE_TRIANGLE_FREE)
        assert check_hypotheses(g, tree_single, 1, sel).passed
        with pytest.raises(error, match=f"^{prefix}removal drops connectivity to 0 < k = 1$"):
            find_keeping_tree(g, tree_single, 1, sel, force=force)

    def test_single_vertex_tree_uniform_path(self, k33, tree_single):
        # delta = 3 = 2k-1 < 2p for k = 2: the triple search has no degree
        # precondition of its own and still applies.
        cert = find_keeping_tree(k33, tree_single, 2, CaseSelector(CASE_TRIANGLE_FREE))
        assert cert.p == 2 and cert.m == 1
        assert len(cert.embedding.image()) == 1
        assert verify_certificate(k33, cert).passed

    @pytest.mark.xfail(strict=True, raises=SearchExhausted, reason="ROADMAP item 12")
    @pytest.mark.parametrize(
        "sel", [None, CaseSelector(CASE_TRIANGLE_FREE)], ids=["auto", "triangle-free"]
    )
    def test_single_vertex_tree_on_a_passing_host(self, tree_single, sel):
        # A 5-cycle 1-2-3-4-6 with pendant vertices 0 at 1 and 5 at 4: kappa
        # = 1, the gate passes (the auto case picks girth:2) and removing
        # vertex 0 keeps the rest connected, yet the triple stage finds no
        # connected triple.
        g = Graph(7, [(0, 1), (1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6)])
        assert oracle_exists(g, tree_single, 1) == embed.Embedding(((0, 0),))
        report = check_hypotheses(g, tree_single, 1, sel)
        assert report.passed
        assert report.sel == (sel or CaseSelector(CASE_GIRTH, 2))
        cert = find_keeping_tree(g, tree_single, 1, sel)
        assert verify_certificate(g, cert).passed

    def test_girth_case_petersen(self, pete, tree_single):
        cert = find_keeping_tree(pete, tree_single, 1, CaseSelector(CASE_GIRTH, 2))
        assert cert.connectivity_after_removal >= 1
        assert verify_certificate(pete, cert).passed

    def test_removed_size_equals_tree_order(self, tree_p3):
        g = complete_bipartite(7, 7)
        cert = find_keeping_tree(g, tree_p3, 1)
        assert len(cert.embedding.image()) == cert.m == cert.p - cert.k + 1

    def test_fragment_degree_bound_holds(self, tree_p3):
        # The unmatched fragment keeps minimum induced degree >= beta.
        from keeptree.graphs import induced_subgraph, degree_stats

        g = complete_bipartite(7, 7)
        cert = find_keeping_tree(g, tree_p3, 1, CaseSelector(CASE_TRIANGLE_FREE))
        host, _ = induced_subgraph(g, cert.triple.f_rest)
        assert Fraction(degree_stats(host)[0]) >= cert.beta

    def test_passed_hypotheses_give_triple_preconditions(self):
        # The triple search has no degree or triangle check of its own: a
        # passed report with m >= 2 must imply both.
        checked = 0
        for inst in full_suite():
            report = check_hypotheses(inst.graph, inst.tree, inst.k, inst.sel)
            if not report.passed or inst.tree.order < 2:
                continue
            p = inst.k + inst.tree.order - 1
            assert degree_stats(inst.graph)[0] >= 2 * p, inst.instance_id
            assert find_triangle(inst.graph) is None, inst.instance_id
            checked += 1
        assert checked > 0


class TestVerifyCertificate:
    def _cert(self, k44, tree_k2):
        return find_keeping_tree(k44, tree_k2, 1)

    def test_round_trip(self, k44, tree_k2):
        cert = self._cert(k44, tree_k2)
        data = json.loads(cert.canonical_json())
        report = verify_certificate(k44, data)
        assert report.passed

    def test_moved_image_vertex_fails(self, k44, tree_k2):
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        # Map both tree vertices onto the same side: breaks edge preservation
        # and, depending on the pair, fragment membership.
        data["tree_image"] = [[0, 0], [1, 1]]
        report = verify_certificate(k44, data)
        assert not report.passed
        assert not report.get("embedding-valid")

    def test_image_outside_fragment_fails(self, k44, tree_k2):
        cert = self._cert(k44, tree_k2)
        data = json.loads(cert.canonical_json())
        data["triple"]["f"] = sorted(set(data["triple"]["f"]) - cert.embedding.image())
        report = verify_certificate(k44, data)
        assert not report.passed
        assert not report.get("image-in-fragment")

    def test_tampered_matching_fails(self, k44):
        # A certificate whose matching reuses an endpoint.
        t = Tree.from_edges(2, [(0, 1)])
        cert = find_keeping_tree(k44, t, 1)
        data = json.loads(cert.canonical_json())
        data["triple"]["s1"] = [0, 1]
        data["triple"]["matching"] = [[0, 4], [1, 4]]
        data["triple"]["f_m"] = [4]
        report = verify_certificate(k44, data)
        assert not report.passed
        assert not report.get("matching-valid")

    def test_image_id_beyond_host_fails_connectivity_check(self, k44, tree_k2):
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data["tree_image"][0][1] = k44.n
        report = verify_certificate(k44, data)
        assert not report.passed
        assert not report.get("connectivity-after-removal")
        assert not report.get("embedding-valid")

    def test_wrong_threshold_alone_fails(self, k44, tree_k2):
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data["threshold"] = str(Fraction(data["threshold"]) + 1)
        report = verify_certificate(k44, data)
        assert [name for name, ok, _ in report.checks if not ok] == ["arith-threshold"]

    def test_image_filling_the_unmatched_fragment_is_inside_it(self, k44, tree_k2):
        # f - f_m equal to the image: the triple is no longer valid, but the
        # image lies inside the unmatched fragment.
        cert = self._cert(k44, tree_k2)
        data = json.loads(cert.canonical_json())
        data["triple"]["f"] = sorted(cert.embedding.image())
        report = verify_certificate(k44, data)
        assert not report.get("triple-valid")
        assert report.get("image-in-fragment")

    def test_tree_of_host_order_is_built(self, k44, tree_k2):
        # A path on all 8 vertices is a tree the host could hold; the
        # certificate then fails on the order and the image instead.
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data["tree"] = {"order": k44.n, "edges": [[v, v + 1] for v in range(k44.n - 1)]}
        report = verify_certificate(k44, data)
        assert report.get("tree-shape")
        assert not report.get("tree-order") and not report.get("embedding-valid")

    def test_wrong_graph_fails(self, k44, k33, tree_k2):
        cert = self._cert(k44, tree_k2)
        report = verify_certificate(complete_bipartite(5, 5), cert)
        assert not report.passed

    def test_wrong_connectivity_value_fails(self, k44, tree_k2):
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data["connectivity_after_removal"] += 1
        assert not verify_certificate(k44, data).passed

    @pytest.mark.parametrize("order", [9, 10**9])  # K4,4 has 8 vertices
    def test_tree_order_above_host_order_fails(self, k44, tree_k2, order):
        # Rejected before the tree is built, whose cost grows with the order.
        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data["tree"]["order"] = order
        report = verify_certificate(k44, data)
        details = {name: detail for name, _, detail in report.checks}
        assert not report.get("tree-shape")
        assert details["tree-shape"] == f"tree order {order} exceeds the host order 8"
        for name in ("arith-threshold", "tree-order", "embedding-valid"):
            assert details[name] == "skipped: tree malformed"

    def test_schema_errors_raise(self, k44):
        from keeptree.errors import ParseError

        with pytest.raises(ParseError):
            Certificate.from_json_dict({"schema": "other/9"})
        with pytest.raises(ParseError):
            Certificate.from_json_dict({"schema": "keeptree-cert/1"})

    @pytest.mark.parametrize("field", ["s1", "s2", "f", "f_m", "tree_image"])
    def test_repeated_entries_raise_parse_error(self, k44, tree_k2, field):
        # A repeated entry would give one claim a second byte form; with the
        # first f vertex or tree_image pair appended again it verified.
        from keeptree.errors import ParseError

        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        node = data if field == "tree_image" else data["triple"]
        entries = node[field] or data["triple"]["f"][:1]  # s1, s2, f_m are empty here
        node[field] = entries + entries[:1]
        with pytest.raises(ParseError, match=f": {field} repeats an entry"):
            verify_certificate(k44, data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", "1/0"),
            ("connectivity_after_removal", float("inf")),
            # Fraction() also takes exponents, whose integers take seconds
            # to build and then fail in the verifier's messages.
            ("beta", "1e10000000"),
            ("threshold", "1e-10000000"),
            ("beta", "3.5"),
            ("threshold", 4),
            # Tree vertex 0 listed twice: read as a map, its last pair won
            # and the certificate verified.
            ("tree_image", [[0, 0], [0, 4], [1, 0]]),
            # A list of pairs, which dict() turned into an object.
            ("hypothesis_report", [["passed", False]]),
        ],
    )
    def test_arithmetic_errors_raise_parse_error(self, k44, tree_k2, field, value):
        from keeptree.errors import ParseError

        data = json.loads(self._cert(k44, tree_k2).canonical_json())
        data[field] = value
        start = time.perf_counter()
        with pytest.raises(ParseError):
            Certificate.from_json_dict(data)
        assert time.perf_counter() - start < 1.0

    def test_byte_determinism(self, k44, tree_k2):
        a = find_keeping_tree(k44, tree_k2, 1).canonical_json()
        b = find_keeping_tree(k44, tree_k2, 1).canonical_json()
        assert a == b


class TestSaturatedMatchingEndToEnd:
    """Certificates with a nonempty s1 and f_m, so that Hall refinement's
    matching, the f - f_m embedding host and the verifier's matching checks
    see nonempty sets.  On these hosts the bridge vertex goes into s1."""

    @pytest.mark.parametrize("seed", [1000, 1001])
    @pytest.mark.parametrize("order", [2, 3])
    def test_certificate_and_mutations(self, seed, order):
        g = bridged_blocks(seed)
        assert find_triangle(g) is None
        cert = find_keeping_tree(
            g, path_tree(order), 1, CaseSelector(CASE_TRIANGLE_FREE), force=True
        )
        t = cert.triple
        assert t.triple.s1 and t.f_m
        assert cert.embedding.image() <= t.f_rest
        data = json.loads(cert.canonical_json())
        assert verify_certificate(g, data).passed

        def mutated(field, value):
            changed = json.loads(cert.canonical_json())
            changed["triple"][field] = value
            return verify_certificate(g, changed)

        edges = data["triple"]["matching"]
        report = mutated("matching", edges[1:])
        assert not report.get("matching-saturates")
        a, b = edges[0]
        off = min(v for v in data["triple"]["f"] if not g.masks[a] >> v & 1)
        report = mutated("matching", [[a, off]] + edges[1:])
        assert not report.get("matching-valid")
        report = mutated("f_m", data["triple"]["f_m"][1:])
        assert not report.get("f-m-consistent")
        # The first edge moved to a neighbour outside f, f_m moved with it:
        # a valid edge whose right endpoint only the right-set check rejects.
        outside = min(v for v in mask_bits(g.masks[a]) if v not in data["triple"]["f"])
        changed = json.loads(cert.canonical_json())
        changed["triple"]["matching"] = [[a, outside]] + edges[1:]
        changed["triple"]["f_m"] = sorted(set(data["triple"]["f_m"]) - {b} | {outside})
        report = verify_certificate(g, changed)
        assert [name for name, ok, _ in report.checks if not ok] == ["matching-valid"]
        assert f"right endpoint {outside} outside the right set" in report.first_failure()

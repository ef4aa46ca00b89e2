"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The canonical suite (both theorem corpora, the girth smoke cells,
and the forced below-threshold probes) is executed once per session and
shared across criteria; the determinism criterion executes it a second time
and compares bytes.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from keeptree.certificate import Certificate
from keeptree.connectivity import _SplitFlow, is_k_connected_after_removal
from keeptree.embed import bipartite_embed, embedding_errors, greedy_embed, sparse_embed
from keeptree.families import (
    complete_bipartite,
    cycle,
    enumerate_trees,
    grid,
    hypercube,
    petersen,
    random_bipartite,
    random_graph,
)
from keeptree.graphs import (
    Graph,
    bipartition,
    degree_stats,
    girth,
    girth_at_least,
)
from keeptree.harness import full_suite, run_suite
from keeptree.matching import Matching, saturating_matching_or_violator
from oracles import brute_min_separator, max_matching_size, side_errors, small_connected_graphs


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{name}]: {status} ({detail})", flush=True)


@pytest.fixture(scope="session")
def suite_run():
    instances = full_suite()
    report = run_suite(instances)
    by_id = {inst.instance_id: inst for inst in instances}
    return by_id, report


def _certificates(report, prefix: str) -> dict[str, Certificate]:
    import json

    return {
        instance_id: Certificate.from_json_dict(json.loads(text))
        for instance_id, text in report.certificates.items()
        if instance_id.startswith(prefix)
    }


def test_criterion_01_triangle_free_suite(suite_run):
    by_id, report = suite_run
    records = [r for r in report.records if r["instance_id"].startswith("tf-")]
    total = len(records)
    certified = [r for r in records if r["status"] == "certified" and r["verified"]]
    slowest = max(report.timings[r["instance_id"]] for r in records)
    ok = total >= 60 and len(certified) == total and slowest <= 10_000
    report_line(
        1,
        "triangle-free theorem suite",
        ok,
        f"{len(certified)}/{total} certified+verified, slowest {slowest:.0f} ms",
    )
    assert ok, [r for r in records if r["status"] != "certified"]


def test_criterion_02_bipartite_suite(suite_run):
    by_id, report = suite_run
    records = [r for r in report.records if r["instance_id"].startswith("bip-")]
    certified = [r for r in records if r["status"] == "certified" and r["verified"]]
    # Bipartite thresholds never exceed the triangle-free ones (equality for
    # trees whose larger part has m-1 vertices, strictly below otherwise).
    never_larger = all(
        Fraction(r["threshold"]) <= 2 * r["k"] + 3 * r["m"] - 4
        for r in records
        if r["m"] >= 2
    )
    ok = len(records) >= 60 and len(certified) == len(records) and never_larger
    report_line(
        2,
        "bipartite theorem suite",
        ok,
        f"{len(certified)}/{len(records)} certified+verified",
    )
    assert ok


def test_criterion_03_girth_smoke(suite_run):
    by_id, report = suite_run
    records = [r for r in report.records if r["instance_id"].startswith("g5-")]
    certified = [r for r in records if r["status"] == "certified" and r["verified"]]
    ok = len(records) == 3 and len(certified) == 3
    report_line(3, "girth-5 smoke", ok, f"{len(certified)}/{len(records)} certified")
    assert ok


def test_criterion_04_menger_equivalence():
    checked = 0
    for g in small_connected_graphs(7):
        for u, v in combinations(range(g.n), 2):
            if g.has_edge(u, v):
                continue
            flow = _SplitFlow(g).max_flow(u, v, g.n)[0]
            cut = brute_min_separator(g, u, v)
            assert flow == len(cut), (g.edges(), u, v)
            checked += 1
    for i in range(500):
        n = 4 + (i % 5)
        g = random_graph(n, (0.3, 0.5, 0.7)[i % 3], 9_000 + i)
        for u, v in combinations(range(n), 2):
            if g.has_edge(u, v):
                continue
            flow = _SplitFlow(g).max_flow(u, v, g.n)[0]
            cut = brute_min_separator(g, u, v)
            assert flow == len(cut), (g.edges(), u, v)
            checked += 1
    report_line(
        4,
        "flow/separator equivalence",
        True,
        f"{checked} nonadjacent pairs, zero mismatches",
    )


def _brute_matching_size(g: Graph, left: list[int], right: set[int]) -> int:
    def best(i: int, used: frozenset[int]) -> int:
        if i == len(left):
            return 0
        score = best(i + 1, used)
        for b in g.neighbors(left[i]) & right:
            if b not in used:
                score = max(score, 1 + best(i + 1, used | {b}))
        return score

    return best(0, frozenset())


def test_criterion_05_hall_equivalence():
    saturated = violated = 0
    for i in range(500):
        rng = random.Random(20_000 + i)
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.3, 0.5, 0.7))
        edges = [
            (x, a + y) for x in range(a) for y in range(b) if rng.random() < density
        ]
        g = Graph(a + b, edges)
        left, right = list(range(a)), set(range(a, a + b))
        result = saturating_matching_or_violator(g, left, right)
        brute = _brute_matching_size(g, left, right)
        if isinstance(result, Matching):
            assert brute == a
            saturated += 1
        else:
            assert brute < a
            recount = {b for a in result.subset for b in g.neighbors(a)} & right
            assert len(recount) == result.neighborhood_size < len(result.subset)
            violated += 1
        assert max_matching_size(g, left, right) == brute
    report_line(
        5,
        "Hall certification",
        True,
        f"500 instances ({saturated} saturated, {violated} violators), zero disagreements",
    )


def test_criterion_06_fragment_surplus_property(suite_run):
    by_id, report = suite_run
    checked = 0
    for prefix in ("tf-", "bip-", "g5-"):
        for instance_id, cert in _certificates(report, prefix).items():
            t = cert.triple.triple
            assert len(t.f) > len(t.s1), instance_id
            assert cert.triple.matching.left_vertices() == t.s1, instance_id
            assert t.f - cert.triple.f_m, instance_id
            checked += 1
    report_line(
        6,
        "saturated-fragment surplus",
        True,
        f"{checked} saturated triples, zero violations",
    )


def test_criterion_07_safe_removal_property(suite_run):
    by_id, report = suite_run
    certs = _certificates(report, "tf-")
    samples = 0
    for idx, (instance_id, cert) in enumerate(sorted(certs.items())):
        g = by_id[instance_id].graph
        k, p = cert.k, cert.p
        rest = sorted(cert.triple.f_rest)
        size = p - k + 1
        rng = random.Random(7_000 + idx)
        for _ in range(100):
            removal = frozenset(rng.sample(rest, size))
            assert is_k_connected_after_removal(g, removal, k), (instance_id, sorted(removal))
            samples += 1
    report_line(
        7,
        "safe removal",
        True,
        f"{samples} sampled removals across {len(certs)} triples, zero violations",
    )


def _lemma21_hosts():
    hosts = small_connected_graphs(7)
    hosts += [complete_bipartite(5, 5), petersen(), hypercube(3), grid(3, 3)]
    hosts += [cycle(n) for n in range(5, 9)]
    hosts += [random_graph(8 + i % 3, 0.7, 30_000 + i) for i in range(20)]
    return hosts


def test_criterion_08_embedding_lemma_suites():
    trees = [t for m in range(1, 6) for t in enumerate_trees(m)]

    greedy_count = 0
    for host in _lemma21_hosts():
        stats = degree_stats(host)
        for tree in trees:
            if stats is None or stats[0] < tree.order - 1:
                continue
            emb = greedy_embed(host, tree)
            assert not embedding_errors(host, tree, emb)
            greedy_count += 1

    bipartite_hosts = [
        complete_bipartite(a, b) for a in range(2, 6) for b in range(a, 6)
    ]
    bipartite_hosts += [hypercube(3), grid(2, 3), grid(3, 3), grid(2, 5)]
    bipartite_hosts += [cycle(n) for n in (4, 6, 8, 10)]
    for i in range(30):
        side = 3 + i % 3
        bipartite_hosts.append(random_bipartite(side, side, 2, 31_000 + i))
    side_count = 0
    for host in bipartite_hosts:
        parts = bipartition(host)
        assert parts is not None
        for tree in trees:
            du = min((host.degree(v) for v in parts[0]), default=0)
            dv = min((host.degree(v) for v in parts[1]), default=0)
            nx, ny = len(tree.part_x), len(tree.part_y)
            if not ((du >= ny and dv >= nx) or (dv >= ny and du >= nx)):
                continue
            emb = bipartite_embed(host, tree)
            u, v = parts if emb.as_dict()[0] in parts[0] else parts[::-1]
            assert not embedding_errors(host, tree, emb) + side_errors(tree, emb, u, v)
            side_count += 1

    sparse_hosts = [cycle(n) for n in range(5, 13)] + [petersen()]
    sparse_count = 0
    for host in sparse_hosts:
        stats = degree_stats(host)
        assert girth_at_least(girth(host), 5)
        for tree in trees:
            if 2 * stats[0] < tree.order - 1 or stats[1] < tree.max_degree:
                continue
            emb = sparse_embed(host, tree)
            assert not embedding_errors(host, tree, emb)
            sparse_count += 1

    report_line(
        8,
        "embedding suites",
        True,
        f"greedy {greedy_count}, side-respecting {side_count}, sparse {sparse_count} pairs",
    )


def test_criterion_09_oracle_dominance_and_forced_runs(suite_run):
    by_id, report = suite_run
    both_ran = [r for r in report.records if r["oracle"] != "guard"]
    assert report.aggregate["dominance_violations"] == 0
    force_records = [r for r in report.records if r["instance_id"].startswith("force-")]
    force_certified = [r for r in force_records if r["status"] == "certified"]
    assert len(force_records) == 50
    assert all(r["verified"] for r in force_certified)
    certified = [r for r in report.records if r["status"] == "certified"]
    assert all(r["verified"] for r in certified)
    ok = len(force_certified) > 0
    report_line(
        9,
        "oracle dominance + forced runs",
        ok,
        f"{len(both_ran)} oracle cross-checks, 0 dominance violations, "
        f"{len(force_certified)}/50 forced successes all verified",
    )
    assert ok


def test_criterion_10_determinism(suite_run):
    by_id, report = suite_run
    second = run_suite(full_suite())
    same_json = report.to_json() == second.to_json()
    same_csv = report.to_csv() == second.to_csv()
    same_certs = report.certificates == second.certificates
    ok = same_json and same_csv and same_certs
    report_line(
        10,
        "determinism",
        ok,
        f"report json identical: {same_json}, csv: {same_csv}, "
        f"{len(second.certificates)} certificates identical: {same_certs}",
    )
    assert ok


#: sha256 of the canonical suite outputs.  Criterion 10 compares two runs of
#: the same code; these digests pin the outputs across kernel changes.
SUITE_DIGESTS = {
    "json": "47941b2b8335e32c692c1c7dba2c5ff86825df172efb6a8af44339219a9fa52c",
    "csv": "1724c5c9c1a9cca83d28f03354f5fb746e1663114525d3b3164568f8111251f9",
    "certificates": "b727c3ed20c678ebcec360cda243a20b0fb7094bc1a6004f48c8d42ba7c9c840",
}


def test_suite_outputs_match_golden_digests(suite_run):
    _, report = suite_run
    certs = "".join(f"{i}\n{text}\n" for i, text in sorted(report.certificates.items()))
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in (("json", report.to_json()), ("csv", report.to_csv()), ("certificates", certs))
    }
    assert len(report.certificates) == 192
    assert digests == SUITE_DIGESTS

"""Adversarial certificates: whatever JSON arrives, parsing raises only
ParseError, and verification either rejects the input as malformed or
returns a report.  A valid certificate stays valid under a relabelling of
the host that maps every host id it names."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keeptree.certificate import CASE_TRIANGLE_FREE, CaseSelector, Certificate, verify_certificate
from keeptree.errors import ParseError
from keeptree.families import complete_bipartite
from keeptree.graphs import Graph, Tree
from keeptree.harness import full_suite, run_suite
from keeptree.pipeline import find_keeping_tree
from keeptree.report import CheckReport
from test_pipeline import bridged_blocks, path_tree

K44 = complete_bipartite(4, 4)
VALID = json.loads(find_keeping_tree(K44, Tree.from_edges(2, [(0, 1)]), 1).canonical_json())

TEXT = st.text("ab019/-.e ", max_size=8)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | TEXT
    | st.sampled_from(["1/0", "1e10000000", "3/2", "-7", "keeptree-cert/1", "girth"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=6,
)

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


def field_paths(node, prefix=()):
    """Every key or index path in ``node``, interior nodes included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


PATHS = sorted(field_paths(VALID), key=repr)


def replaced(path, value):
    data = json.loads(json.dumps(VALID))
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return data


@PROPERTY
@given(
    # Arbitrary JSON, or the valid certificate with up to three fields replaced.
    JSON
    | st.dictionaries(st.sampled_from(sorted(VALID)), JSON, max_size=3).map(
        lambda fields: {**VALID, **fields}
    )
)
def test_arbitrary_json_raises_only_parse_error(data):
    try:
        Certificate.from_json_dict(data)
    except ParseError:
        pass


@PROPERTY
@given(st.sampled_from(PATHS), JSON)
def test_single_field_replacement_is_rejected_or_reported(path, value):
    try:
        report = verify_certificate(K44, replaced(path, value))
    except ParseError:
        return
    assert isinstance(report, CheckReport)


@pytest.mark.parametrize("data", [[1, 2], "s", 3, None])
def test_verifier_rejects_non_object_json(data):
    with pytest.raises(ParseError, match="^malformed certificate: not a JSON object$"):
        verify_certificate(K44, data)


def relabelled(data: dict, perm: list[int]) -> dict:
    """The certificate JSON ``data`` with every host id v written as perm[v]."""
    data = json.loads(json.dumps(data))
    data["tree_image"] = [[a, perm[v]] for a, v in data["tree_image"]]
    triple = data["triple"]
    for name in ("s1", "s2", "f", "f_m"):
        triple[name] = sorted(perm[v] for v in triple[name])
    triple["matching"] = sorted([perm[a], perm[b]] for a, b in triple["matching"])
    return data


def test_certificates_verify_after_relabelling_the_host():
    instances = [inst for inst in full_suite() if inst.graph.n <= 26]
    hosts = {inst.instance_id: inst.graph for inst in instances}
    cases = [(instance_id, hosts[instance_id], json.loads(text))
             for instance_id, text in sorted(run_suite(instances).certificates.items())]
    assert len(cases) == 191
    # Every suite certificate has an empty s1; these have a nonempty matching.
    for seed in (1000, 1001):
        g = bridged_blocks(seed)
        for order in (2, 3):
            cert = find_keeping_tree(g, path_tree(order), 1, CaseSelector(CASE_TRIANGLE_FREE),
                                     force=True)
            cases.append((f"bridged-{seed}-{order}", g, json.loads(cert.canonical_json())))
    rng = random.Random(2011)
    moved = 0
    for label, g, data in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        host = Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
        check = verify_certificate(host, relabelled(data, perm))
        assert check.passed, (label, check.first_failure())
        moved += not verify_certificate(host, data).passed
    # Unmapped, most certificates fail on the relabelled host, so the shuffles
    # move the ids the checks read.  The rest sit on hosts like K_{a,b}, where
    # a shuffle can keep every claim the certificate makes true.
    assert 2 * moved > len(cases), moved

"""Adversarial certificates: whatever JSON arrives, parsing raises only
ParseError, and verification either rejects the input as malformed or
returns a report."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from keeptree.errors import ParseError
from keeptree.families import complete_bipartite
from keeptree.graphs import Tree
from keeptree.pipeline import Certificate, find_keeping_tree, verify_certificate
from keeptree.report import CheckReport

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

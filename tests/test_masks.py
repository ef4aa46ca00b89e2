"""Host facts and embedders on vertex masks: the same answers as on induced
copies, and the work the mask path saves."""

import math
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from keeptree import pipeline
from keeptree.embed import (
    Embedding,
    _first_embedding,
    bipartite_embed,
    exhaustive_embed,
    greedy_embed,
    iter_embeddings,
    sparse_embed,
)
from keeptree.errors import TheoremViolation
from keeptree.families import (
    complete_bipartite,
    enumerate_trees,
    path_graph,
    petersen,
    random_bipartite,
)
from keeptree.graphs import (
    Graph,
    Tree,
    bipartition,
    degree_stats,
    girth,
    induced_subgraph,
    mask_bits,
)
from keeptree.harness import full_suite
from keeptree.pipeline import check_hypotheses, find_keeping_tree
from test_kernel import two_block_host
from test_pipeline import c5_blowup

HOSTS = (
    [random_bipartite(a, b, d, s) for a, b, d, s in ((3, 4, 2, 1), (5, 5, 3, 2), (6, 6, 4, 3))]
    + [random_bipartite(4, 4, 3, s) for s in range(4, 8)]
    + [c5_blowup(1), c5_blowup(2), c5_blowup(3), c5_blowup(4), petersen()]
)
TREES = [t for m in range(1, 5) for t in enumerate_trees(m)]
EMBEDDERS = {
    "greedy": greedy_embed,
    "bipartite": bipartite_embed,
    "sparse": sparse_embed,
    "sparse-t3": lambda g, tree, alive=None: sparse_embed(g, tree, 3, alive=alive),
    "exhaustive": exhaustive_embed,
    "iter": lambda g, tree, alive=None: list(iter_embeddings(g, tree, alive)),
}


@st.composite
def masked_hosts(draw):
    """A host and a vertex mask of it, from every vertex (level 0) to
    about a quarter of them (level 3)."""
    g = draw(st.sampled_from(HOSTS))
    level = draw(st.integers(0, 3))
    draws = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    return g, sum(1 << v for v, d in enumerate(draws) if d >= level)


def outcome(call):
    """The value of ``call()``, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def mapped_back(value, kept):
    """An embedder's outcome on an induced copy, in the host's numbering."""
    if isinstance(value, Embedding):
        return Embedding.from_dict({tv: kept[hv] for tv, hv in value.mapping})
    if isinstance(value, list):
        return [mapped_back(v, kept) for v in value]
    return value


@settings(max_examples=300, derandomize=True, deadline=None)
@given(masked_hosts(), st.sampled_from(TREES), st.sampled_from(sorted(EMBEDDERS)))
@example((c5_blowup(4), (1 << 13) - 1), TREES[0], "exhaustive")  # above the guard
@example((c5_blowup(4), (1 << 13) - 1), TREES[0], "iter")
def test_embedders_on_masks_match_induced_copies(host_alive, tree, name):
    g, alive = host_alive
    copy, kept = induced_subgraph(g, mask_bits(alive))
    embed = EMBEDDERS[name]
    on_mask = outcome(lambda: embed(g, tree, alive=alive))
    assert on_mask == mapped_back(outcome(lambda: embed(copy, tree)), kept)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(masked_hosts())
def test_host_facts_on_masks_match_induced_copies(host_alive):
    g, alive = host_alive
    copy, kept = induced_subgraph(g, mask_bits(alive))
    assert degree_stats(g, alive) == degree_stats(copy)
    parts = bipartition(copy)
    if parts is None:
        assert bipartition(g, alive) is None
    else:
        assert bipartition(g, alive) == tuple(frozenset(kept[v] for v in p) for p in parts)
        assert girth(g, alive, floor=4) == girth(copy)
    assert girth(g, alive) == girth(copy)


def test_masks_outside_the_host_are_refused(c5):
    for alive in (1 << 5, -1):
        with pytest.raises(ValueError, match="outside 0..4"):
            degree_stats(c5, alive)


def test_first_embedding_rejects_an_image_outside_the_mask(c5, tree_single):
    # A one-vertex tree has no edge to catch a stray image.
    maps = iter([Embedding.from_dict({0: 3})])
    with pytest.raises(TheoremViolation, match="host vertex 3 is outside the mask"):
        _first_embedding(c5, tree_single, 0b00111, maps)


def gate_hosts():
    """Every graph of networkx's atlas (up to 7 vertices), then every
    ``full_suite()`` host, as (graph, networkx graph)."""
    for nxg in graph_atlas_g():
        yield Graph(nxg.number_of_nodes(), nxg.edges()), nxg
    for inst in full_suite():
        nxg = nx.Graph()
        nxg.add_nodes_from(inst.graph.vertices())
        nxg.add_edges_from(inst.graph.edges())
        yield inst.graph, nxg


def test_gate_girth_and_bipartition_match_networkx(tree_single):
    seen = set()
    for g, nxg in gate_hosts():
        report = check_hypotheses(g, tree_single, 1)
        expected = nx.girth(nxg)
        assert report.girth_value == (None if expected == math.inf else expected), g.edges()
        assert (report.bipartition_sizes is not None) == nx.is_bipartite(nxg), g.edges()
        seen.add((report.bipartition_sizes is not None, report.girth_value))
    # Bipartite hosts with 4-cycles, longer even cycles and none, and
    # non-bipartite ones with triangles and longer odd girth.
    assert {(True, 4), (True, 6), (True, None), (False, 3), (False, 5)} <= seen


class TestWork:
    def test_find_builds_no_graph_but_the_verifiers_tree(self, monkeypatch):
        # The embedding stage reads f - f_m as a mask: on the dense host it
        # is every vertex, on the two-block host a proper subset.
        built = []
        init = Graph.__init__

        def counted(self, n, edges=()):
            built.append(n)
            init(self, n, edges)

        tree = Tree(path_graph(4))
        for host, whole in ((random_bipartite(28, 28, 19, 1000), True),
                            (two_block_host(18, 12, 1), False)):
            monkeypatch.setattr(Graph, "__init__", counted)
            built.clear()
            cert = find_keeping_tree(host, tree, 2)
            monkeypatch.undo()
            assert built == [tree.order]
            assert (cert.triple.f_rest == frozenset(host.vertices())) == whole

    def test_bipartite_gate_girth_visits_one_root(self, monkeypatch, tree_single):
        # K6,6 is bipartite, so the first 4-cycle, found from root 0, ends
        # the search: no other root's mask is read.
        k66 = complete_bipartite(6, 6)
        read = set()

        class Masks(tuple):
            def __getitem__(self, v):
                read.add(v)
                return tuple.__getitem__(self, v)

        def counted_girth(g, *args, **kwargs):
            return girth(SimpleNamespace(n=g.n, masks=Masks(g.masks)), *args, **kwargs)

        monkeypatch.setattr(pipeline, "girth", counted_girth)
        assert check_hypotheses(k66, tree_single, 1).girth_value == 4
        assert read == {0} | set(mask_bits(k66.masks[0]))
        read.clear()
        assert counted_girth(k66) == 4 and read == set(k66.vertices())

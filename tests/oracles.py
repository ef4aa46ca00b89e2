"""Test oracles: for the flow kernel an exhaustive minimum separator and
vertex connectivity, a check of disjoint-path witnesses and a decoder for
``_SplitFlow.max_flow`` flows;
for embeddings a check that the tree's parts land on given host sides; and
every small connected graph, from the networkx graph atlas."""

from itertools import combinations

import networkx as nx

from keeptree.connectivity import _SplitFlow
from keeptree.embed import Embedding
from keeptree.errors import DEFAULT_BRUTE_GUARD, GuardExceeded, resolve_guard
from keeptree.graphs import Graph, Tree, component_containing, is_connected, mask_bits


def small_connected_graphs(max_n: int = 7) -> list[Graph]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class.

    Backed by the graph atlas shipped with networkx (complete up to 7
    vertices); atlas node labels are already 0..n-1.
    """
    if max_n > 7:
        raise GuardExceeded("the atlas only covers graphs up to 7 vertices")
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if n == 0 or n > max_n:
            continue
        g = Graph(n, list(nxg.edges()))
        if is_connected(g):
            out.append(g)
    return out


def brute_min_separator(g: Graph, u: int, v: int, guard: int | None = None) -> frozenset[int]:
    """Minimum {u, v}-separating set of a nonadjacent pair: the first of the
    subsets, in increasing size, whose removal separates u from v."""
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) are adjacent: no separating set exists")
    limit = resolve_guard(guard, DEFAULT_BRUTE_GUARD)
    if g.n > limit:
        raise GuardExceeded(f"brute separator guard: {g.n} > {limit}")
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(len(others) + 1):
        for cut in map(frozenset, combinations(others, size)):
            if v not in component_containing(g, u, cut):
                return cut
    raise AssertionError(f"no separating set found for nonadjacent ({u}, {v})")


def brute_connectivity(g: Graph, removed: frozenset[int] = frozenset()) -> int:
    """Vertex connectivity of G - ``removed`` by exhaustion: the size of the
    first subset, in increasing size, whose deletion leaves at least two
    vertices in more than one component; one less than the vertex count
    (0 at most one vertex) when none does."""
    rest = [v for v in range(g.n) if v not in removed]
    for size in range(len(rest) - 1):
        for cut in map(frozenset, combinations(rest, size)):
            left = [v for v in rest if v not in cut]
            if len(component_containing(g, left[0], removed | cut)) < len(left):
                return size
    return max(len(rest) - 1, 0)


def check_path_system(g: Graph, u: int, v: int, paths) -> list[str]:
    """Structural problems of internally disjoint u-v paths (empty when valid)."""
    problems: list[str] = []
    internal_seen: set[int] = set()
    for idx, path in enumerate(paths):
        if len(path) < 2 or path[0] != u or path[-1] != v:
            problems.append(f"path {idx} does not run from {u} to {v}")
            continue
        if len(set(path)) != len(path):
            problems.append(f"path {idx} repeats a vertex")
            continue
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                problems.append(f"path {idx} uses the non-edge ({a}, {b})")
                break
        interior = set(path[1:-1])
        overlap = interior & internal_seen
        if overlap:
            problems.append(f"path {idx} shares internal vertex {min(overlap)}")
        internal_seen |= interior
    return problems


def max_flow_paths(g: Graph, u: int, v: int) -> tuple[int, list[tuple[int, ...]]]:
    """The value of ``_SplitFlow(g).max_flow(u, v, g.n)`` and its flow decoded
    into vertex paths, one per unit, by following each successor mask."""
    value, flow, _ = _SplitFlow(g).max_flow(u, v, g.n)
    paths = []
    for y in mask_bits(flow[u]):
        path = [u]
        while y != v:
            path.append(y)
            y = flow[y].bit_length() - 1
        paths.append((*path, v))
    return value, paths


def side_errors(tree: Tree, emb: Embedding, x_to: frozenset[int], y_to: frozenset[int]) -> list[str]:
    """The tree vertices whose image leaves its designated host side:
    ``part_x`` must land inside ``x_to`` and ``part_y`` inside ``y_to``."""
    d = emb.as_dict()
    return [
        f"image of {a} leaves the designated side"
        for part, side in ((tree.part_x, x_to), (tree.part_y, y_to))
        for a in sorted(part)
        if d[a] not in side
    ]

"""Immutable undirected simple graphs, trees, and basic structure queries.

Vertices are dense integer ids ``0..n-1``.  Derived graphs (vertex deletion,
induced subgraphs) are new values returned together with an id remapping, so
anything computed downstream can be translated back into the original
graph's numbering.  All functions here are pure and safe to call from any
number of threads.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

__all__ = [
    "Graph",
    "Tree",
    "degree_stats",
    "neighborhood_of_set",
    "girth",
    "girth_at_least",
    "is_triangle_free",
    "find_triangle",
    "bipartition",
    "odd_cycle",
    "induced_delete",
    "induced_subgraph",
    "components",
    "components_excluding",
    "component_containing",
    "is_connected",
]


class Graph:
    """Undirected simple graph on vertices ``0..n-1`` with frozen adjacency.

    Construction rejects self-loops, duplicate edges, and out-of-range
    endpoints.  Instances are immutable values: equality and hashing are
    structural.
    """

    __slots__ = ("n", "_adj", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            count += 1
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._edge_count = count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(self.n)

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} out of range for n={self.n}")

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def check_vertex_set(g: Graph, w: Iterable[int]) -> frozenset[int]:
    """Validate that every id in ``w`` belongs to ``g`` and return it frozen."""
    ws = frozenset(w)
    for v in ws:
        g.check_vertex(v)
    return ws


def degree_stats(g: Graph) -> tuple[int, int] | None:
    """Minimum and maximum degree, or None for the empty graph."""
    if g.n == 0:
        return None
    degrees = [g.degree(v) for v in g.vertices()]
    return min(degrees), max(degrees)


def neighborhood_of_set(g: Graph, w: Iterable[int]) -> frozenset[int]:
    """Union of the neighborhoods of ``w``, excluding ``w`` itself."""
    ws = check_vertex_set(g, w)
    out: set[int] = set()
    for v in ws:
        out |= g.neighbors(v)
    return frozenset(out - ws)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None when the graph is acyclic.

    Computed exactly by one BFS per root: a non-tree edge (a, b) closes a
    cycle of length at most dist(a) + dist(b) + 1, and a root on a shortest
    cycle attains the girth.  A non-tree edge to an earlier level was already
    seen from its other end, so each vertex a looks only at neighbors b with
    dist(b) >= dist(a), and a root's BFS stops at the first a with
    2 dist(a) + 1 >= best.  A triangle ends the search at once.
    """
    best: int | None = None
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            a = queue.popleft()
            if best is not None and 2 * dist[a] + 1 >= best:
                break
            for b in g.neighbors(a):
                if dist[b] == -1:
                    dist[b] = dist[a] + 1
                    queue.append(b)
                elif dist[b] >= dist[a]:
                    cand = dist[a] + dist[b] + 1
                    if best is None or cand < best:
                        best = cand
                        if best == 3:
                            return best
    return best


def girth_at_least(girth_value: int | None, bound: int | float) -> bool:
    """Compare a girth against a bound; acyclic (None) compares as infinite."""
    return girth_value is None or girth_value >= bound


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle as a sorted vertex triple, or None."""
    for u, v in g.edges():
        common = g.neighbors(u) & g.neighbors(v)
        if common:
            return tuple(sorted((u, v, min(common))))  # type: ignore[return-value]
    return None


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    return find_triangle(g) is None


def _two_color(g: Graph) -> tuple[list[int], list[int], tuple[int, int] | None]:
    """BFS 2-coloring (component minimum gets color 0) with the BFS parents.

    Stops at the first edge whose endpoints share a color and returns it as
    the third item (None when the coloring is proper).
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in sorted(g.neighbors(a)):
                if color[b] == -1:
                    color[b] = color[a] ^ 1
                    parent[b] = a
                    queue.append(b)
                elif color[b] == color[a]:
                    return color, parent, (a, b)
    return color, parent, None


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-coloring as a pair of parts, or None when no odd cycle-free split exists.

    Within each connected component the coloring is unique up to swapping
    parts; canonically, the minimum vertex id of each component lands in the
    first part.
    """
    color, _, clash = _two_color(g)
    if clash is not None:
        return None
    part0 = frozenset(v for v in range(g.n) if color[v] == 0)
    part1 = frozenset(v for v in range(g.n) if color[v] == 1)
    return part0, part1


def odd_cycle(g: Graph) -> list[int] | None:
    """Vertices of some odd cycle, or None when the graph is bipartite."""
    _, parent, clash = _two_color(g)
    return None if clash is None else _cycle_through(parent, *clash)


def _cycle_through(parent: list[int], a: int, b: int) -> list[int]:
    """Close the cycle formed by BFS-tree paths to a and b plus the edge ab."""
    seen_at = {}
    pa: list[int] = []
    x = a
    while x != -1:
        seen_at[x] = len(pa)
        pa.append(x)
        x = parent[x]
    pb: list[int] = []
    y = b
    while y not in seen_at:
        pb.append(y)
        y = parent[y]
    return pa[: seen_at[y] + 1] + list(reversed(pb))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep`` plus the remap (new id -> original id)."""
    kept = sorted(check_vertex_set(g, keep))
    index = {old: new for new, old in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u in kept
        for v in sorted(g.neighbors(u))
        if u < v and v in index
    ]
    return Graph(len(kept), edges), tuple(kept)


def induced_delete(g: Graph, w: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Graph minus ``w`` plus the remap (new id -> original id)."""
    ws = check_vertex_set(g, w)
    return induced_subgraph(g, set(g.vertices()) - ws)


def component_containing(g: Graph, v: int, excluded: Iterable[int] = ()) -> frozenset[int]:
    """Connected component of ``v`` in the graph minus ``excluded`` (original ids)."""
    ex = check_vertex_set(g, excluded)
    g.check_vertex(v)
    if v in ex:
        raise ValueError(f"vertex {v} is excluded")
    seen = {v}
    queue = deque([v])
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b not in seen and b not in ex:
                seen.add(b)
                queue.append(b)
    return frozenset(seen)


def components_excluding(g: Graph, excluded: Iterable[int] = ()) -> list[frozenset[int]]:
    """Connected components of the graph minus ``excluded``, in original ids.

    Components are sorted by their minimum vertex id.
    """
    ex = check_vertex_set(g, excluded)
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in range(g.n):
        if start in ex or start in seen:
            continue
        comp = component_containing(g, start, ex)
        seen |= comp
        out.append(comp)
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by minimum vertex id."""
    return components_excluding(g, ())


def is_connected(g: Graph) -> bool:
    """True when the graph has at most one connected component."""
    return len(components(g)) <= 1


class Tree:
    """A tree on ``0..m-1`` with its bipartition and maximum degree.

    ``part_x`` is the bipartition part containing vertex 0; for the
    single-vertex tree ``part_y`` is empty.
    """

    __slots__ = ("graph", "order", "part_x", "part_y", "max_degree")

    def __init__(self, graph: Graph):
        if graph.n == 0:
            raise ValueError("a tree has at least one vertex")
        if graph.edge_count != graph.n - 1 or not is_connected(graph):
            raise ValueError("not a tree: need a connected graph with n-1 edges")
        parts = bipartition(graph)
        assert parts is not None  # trees are acyclic, hence bipartite
        self.graph = graph
        self.order = graph.n
        self.part_x, self.part_y = parts
        self.max_degree = max(graph.degree(v) for v in graph.vertices())

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        return cls(Graph(order, edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"Tree(order={self.order}, max_degree={self.max_degree})"

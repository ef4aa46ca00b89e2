"""Immutable undirected simple graphs, trees, and basic structure queries.

Vertices are dense integer ids ``0..n-1``.  A graph is its neighbour
bitmasks: bit y of ``Graph.masks[x]`` is set iff xy is an edge, built once
at construction and the only adjacency kept.  Host facts take an optional
vertex mask ``alive`` and answer for the subgraph it induces from the host's
masks, in the host's numbering, as an induced copy (which keeps the vertex
order) would answer mapped back.  The 2-colouring, the odd cycle and
``Tree``'s connectivity check and parts read one BFS that grows a level
at a time on these masks.  All functions here are pure and safe to call
from any number of threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "Tree",
    "degree_stats",
    "girth",
    "girth_at_least",
    "is_triangle_free",
    "find_triangle",
    "bipartition",
    "odd_cycle",
    "induced_subgraph",
    "components",
]


class Graph:
    """Undirected simple graph on vertices ``0..n-1`` held as one neighbour
    bitmask per vertex.

    Construction rejects self-loops, duplicate edges, and out-of-range
    endpoints.  Instances are immutable values: equality and hashing are
    structural.
    """

    __slots__ = ("n", "masks", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            count += 1
        self.n = n
        self.masks = tuple(masks)
        self.edge_count = count

    def vertices(self) -> range:
        return range(self.n)

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} out of range for n={self.n}")

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        return frozenset(mask_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        return [
            (u, v) for u, m in enumerate(self.masks) for v in mask_bits(m >> (u + 1) << (u + 1))
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def vertex_mask(g: Graph, vertices: Iterable[int] | None) -> int:
    """The mask of ``vertices`` (all of ``g`` when None), ids checked in order."""
    if vertices is None:
        return (1 << g.n) - 1
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def mask_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_component(masks: Sequence[int], v: int, alive: int) -> int:
    """Mask of the component of ``v`` among the vertices of the mask
    ``alive`` (which holds v), by a BFS one level at a time."""
    seen = frontier = 1 << v
    while frontier:
        reach = 0
        for x in mask_bits(frontier):
            reach |= masks[x]
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen


def mask_components(masks: Sequence[int], alive: int) -> list[int]:
    """Masks of the components among the vertices of the mask ``alive``,
    by their lowest vertex."""
    out: list[int] = []
    while alive:
        comp = mask_component(masks, (alive & -alive).bit_length() - 1, alive)
        alive ^= comp
        out.append(comp)
    return out


def mask_neighbours(masks: Sequence[int], w: int) -> int:
    """Mask of the vertices outside the mask ``w`` adjacent to one in it."""
    out = 0
    for v in mask_bits(w):
        out |= masks[v]
    return out & ~w


def alive_masks(g: Graph, alive: int | None) -> tuple[int, Sequence[int]]:
    """The vertex mask ``alive`` (all of ``g`` when None) and the neighbour
    masks of the subgraph it induces; ValueError for a bit outside 0..n-1."""
    full = (1 << g.n) - 1
    if alive is None or alive == full:
        return full, g.masks
    if alive & ~full:
        raise ValueError(f"alive mask has a vertex outside 0..{g.n - 1}")
    return alive, [m & alive for m in g.masks]


def degree_stats(g: Graph, alive: int | None = None) -> tuple[int, int] | None:
    """Minimum and maximum degree within the mask ``alive``; None when empty."""
    alive, masks = alive_masks(g, alive)
    if not alive:
        return None
    degrees = [masks[v].bit_count() for v in mask_bits(alive)]
    return min(degrees), max(degrees)


def girth(g: Graph, alive: int | None = None, *, floor: int = 3) -> int | None:
    """Length of a shortest cycle within the mask ``alive``; None if acyclic.

    Computed exactly by one BFS per root on the neighbour masks, a level at
    a time.  A level-d vertex with a neighbour in its own level gives a
    closed walk of length 2d + 1 through the root, and a new level-(d + 1)
    vertex reached from two level-d vertices one of length 2d + 2; either
    walk holds a cycle at least that short, and a root on a shortest cycle
    meets the first of them at exactly the girth.  So a root's BFS ends at
    its first such level, or once 2d + 1 >= best.

    ``floor`` is a length no cycle is shorter than, as the caller has shown
    (3 for any graph, 4 for a bipartite one): a cycle that short is final.
    """
    alive, masks = alive_masks(g, alive)
    best = max(alive.bit_count(), floor) + 1  # longer than any cycle and the floor
    for root in mask_bits(alive):
        seen = frontier = 1 << root
        depth = 0
        while frontier and 2 * depth + 1 < best:
            reach = twice = 0
            for x in mask_bits(frontier):
                twice |= reach & masks[x]
                reach |= masks[x]
            if reach & frontier:
                best = 2 * depth + 1
                break
            if twice & ~seen:
                best = 2 * depth + 2
                break
            frontier = reach & ~seen
            seen |= frontier
            depth += 1
        if best <= floor:
            return best
    return None if best > alive.bit_count() else best


def girth_at_least(girth_value: int | None, bound: int | float) -> bool:
    """Compare a girth against a bound; acyclic (None) compares as infinite."""
    return girth_value is None or girth_value >= bound


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle as a sorted vertex triple, or None."""
    masks = g.masks
    for u, v in g.edges():
        common = masks[u] & masks[v]
        if common:
            return tuple(sorted((u, v, next(mask_bits(common)))))  # type: ignore[return-value]
    return None


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    return find_triangle(g) is None


def _levels(masks: Sequence[int], v: int, alive: int) -> tuple[list[int], tuple[int, int] | None]:
    """BFS levels of the component of ``v`` among the vertices of the mask
    ``alive`` (which holds v), one mask per level, grown as in
    :func:`mask_component`.  Stops at the first level that holds an edge and
    returns that edge too, lower end first; None when no level holds one,
    and then the even and the odd levels 2-colour the component."""
    levels: list[int] = []
    seen = frontier = 1 << v
    while frontier:
        levels.append(frontier)
        reach = 0
        for x in mask_bits(frontier):
            near = masks[x]
            if near & frontier:
                return levels, (x, next(mask_bits(near & frontier)))
            reach |= near
        frontier = reach & alive & ~seen
        seen |= frontier
    return levels, None


def bipartition(
    g: Graph, alive: int | None = None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-coloring within the mask ``alive`` as a pair of parts; None on an odd cycle.

    Within each connected component the coloring is unique up to swapping
    parts; canonically, the minimum vertex id of each component lands in the
    first part, with the component's even BFS levels from it.
    """
    alive, masks = alive_masks(g, alive)
    sides = [0, 0]
    while alive:
        levels, clash = _levels(masks, (alive & -alive).bit_length() - 1, alive)
        if clash is not None:
            return None
        for depth, level in enumerate(levels):
            sides[depth & 1] |= level
            alive ^= level
    return frozenset(mask_bits(sides[0])), frozenset(mask_bits(sides[1]))


def odd_cycle(g: Graph) -> list[int] | None:
    """Vertices of some odd cycle, or None when the graph is bipartite: from
    both ends of the first edge inside a BFS level, walks step to the lowest
    neighbour one level up until they meet."""
    for comp in mask_components(g.masks, vertex_mask(g, None)):
        levels, clash = _levels(g.masks, (comp & -comp).bit_length() - 1, comp)
        if clash is not None:
            a, b = clash
            up_a, up_b, depth = [a], [b], len(levels) - 1
            while a != b:
                depth -= 1
                a = next(mask_bits(g.masks[a] & levels[depth]))
                b = next(mask_bits(g.masks[b] & levels[depth]))
                up_a.append(a)
                up_b.append(b)
            return up_a + up_b[-2::-1]
    return None


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep`` plus the remap (new id -> original id)."""
    above = vertex_mask(g, keep)
    kept = tuple(mask_bits(above))
    index = {old: new for new, old in enumerate(kept)}
    edges: list[tuple[int, int]] = []
    for u in kept:
        above ^= 1 << u  # the kept vertices after u
        edges += [(index[u], index[v]) for v in mask_bits(g.masks[u] & above)]
    return Graph(len(kept), edges), kept


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by minimum vertex id."""
    return [frozenset(mask_bits(c)) for c in mask_components(g.masks, vertex_mask(g, None))]


class Tree:
    """A tree on ``0..m-1`` with its bipartition and maximum degree.

    ``part_x`` is the bipartition part containing vertex 0; for the
    single-vertex tree ``part_y`` is empty.
    """

    __slots__ = ("graph", "order", "part_x", "part_y", "max_degree")

    def __init__(self, graph: Graph):
        if graph.n == 0:
            raise ValueError("a tree has at least one vertex")
        # One BFS from vertex 0.  With n-1 edges the graph is a tree iff its
        # levels cover every vertex (a cycle would leave one out), and then
        # its even and odd levels are the parts.
        sides = [0, 0]
        for depth, level in enumerate(_levels(graph.masks, 0, (1 << graph.n) - 1)[0]):
            sides[depth & 1] |= level
        if graph.edge_count != graph.n - 1 or (sides[0] | sides[1]).bit_count() != graph.n:
            raise ValueError("not a tree: need a connected graph with n-1 edges")
        self.graph = graph
        self.order = graph.n
        self.part_x, self.part_y = (frozenset(mask_bits(side)) for side in sides)
        self.max_degree = max(m.bit_count() for m in graph.masks)

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

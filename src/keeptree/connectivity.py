"""Vertex connectivity: disjoint-path maxima, separators, and brute oracles.

Local connectivity between two vertices is a unit-capacity maximum flow on
the vertex-split digraph: every vertex other than the two endpoints becomes
an in->out arc of capacity one.  Adjacent pairs are handled uniformly (the
direct edge counts as one path with no internal vertices).  The brute-force
separator search is an independent oracle realizing the min-cut side of the
max-flow/min-cut equality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import (
    DEFAULT_BRUTE_GUARD,
    GuardExceeded,
    TheoremViolation,
    resolve_guard,
)
from .graphs import (
    Graph,
    check_vertex_set,
    components,
    induced_delete,
    is_complete,
    is_connected,
)

__all__ = [
    "PathSystem",
    "Separator",
    "check_path_system",
    "local_connectivity",
    "local_connectivity_value",
    "set_connectivity",
    "find_pair_below",
    "global_connectivity",
    "connectivity_at_least",
    "is_k_connected_after_removal",
    "min_separator",
    "brute_min_separator",
]


@dataclass(frozen=True)
class PathSystem:
    """Internally vertex-disjoint paths witnessing a local connectivity value."""

    u: int
    v: int
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Separator:
    """A vertex set whose removal puts u and v in different components."""

    u: int
    v: int
    cut: frozenset[int]


def check_path_system(g: Graph, ps: PathSystem) -> list[str]:
    """Structural problems of a path system (empty list when valid)."""
    problems: list[str] = []
    internal_seen: set[int] = set()
    for idx, path in enumerate(ps.paths):
        if len(path) < 2 or path[0] != ps.u or path[-1] != ps.v:
            problems.append(f"path {idx} does not run from {ps.u} to {ps.v}")
            continue
        if len(set(path)) != len(path):
            problems.append(f"path {idx} repeats a vertex")
            continue
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                problems.append(f"path {idx} uses the non-edge ({a}, {b})")
                break
        interior = set(path[1:-1])
        if ps.u in interior or ps.v in interior:
            problems.append(f"path {idx} passes through an endpoint")
        overlap = interior & internal_seen
        if overlap:
            problems.append(f"path {idx} shares internal vertex {min(overlap)}")
        internal_seen |= interior
    return problems


class _SplitFlow:
    """Reusable unit-capacity flow network over the vertex-split digraph.

    Node 2w is the in-copy of vertex w and node 2w+1 its out-copy; the
    internal arc in(w) -> out(w) has capacity one.  Sources/sinks bypass
    their own internal arc, so endpoint vertices are uncapacitated.

    Edge arcs carry capacity one by default, which never constrains the
    flow value for internally disjoint paths in a simple graph.  Separator
    extraction passes a large ``edge_cap`` instead so that minimum cuts are
    realized on internal arcs only (sound for nonadjacent endpoints).
    """

    __slots__ = ("n", "size", "head", "arc_to", "base_cap")

    def __init__(self, g: Graph, edge_cap: int = 1):
        n = g.n
        self.n = n
        self.size = 2 * n
        head: list[list[int]] = [[] for _ in range(2 * n)]
        arc_to: list[int] = []
        base_cap: list[int] = []

        def add(a: int, b: int, c: int) -> None:
            head[a].append(len(arc_to))
            arc_to.append(b)
            base_cap.append(c)
            head[b].append(len(arc_to))
            arc_to.append(a)
            base_cap.append(0)

        for w in range(n):
            add(2 * w, 2 * w + 1, 1)
        for u, v in g.edges():
            add(2 * u + 1, 2 * v, edge_cap)
            add(2 * v + 1, 2 * u, edge_cap)
        self.head = head
        self.arc_to = arc_to
        self.base_cap = base_cap

    def max_flow(self, u: int, v: int, limit: int) -> tuple[int, list[int]]:
        """Max flow from out(u) to in(v), capped at limit; returns residual caps."""
        cap = self.base_cap.copy()
        source, sink = 2 * u + 1, 2 * v
        head, arc_to = self.head, self.arc_to
        value = 0
        while value < limit:
            parent = [-1] * self.size
            parent[source] = -2
            queue = deque([source])
            reached = False
            while queue:
                a = queue.popleft()
                if a == sink:
                    reached = True
                    break
                for arc in head[a]:
                    b = arc_to[arc]
                    if cap[arc] > 0 and parent[b] == -1:
                        parent[b] = arc
                        queue.append(b)
            if not reached:
                break
            # Augment one unit; internal arcs bound every path's bottleneck.
            node = sink
            while node != source:
                arc = parent[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = arc_to[arc ^ 1]
            value += 1
        return value, cap

    def decode_paths(self, u: int, v: int, cap: list[int]) -> list[tuple[int, ...]]:
        """Decompose an integral flow into vertex paths from u to v."""
        out: list[list[int]] = [[] for _ in range(self.size)]
        for a in range(self.size):
            arcs = [
                arc
                for arc in self.head[a]
                if self.base_cap[arc] > 0 and self.base_cap[arc] - cap[arc] > 0
            ]
            arcs.sort(key=lambda arc: self.arc_to[arc], reverse=True)
            out[a] = arcs
        source, sink = 2 * u + 1, 2 * v
        paths: list[tuple[int, ...]] = []
        while out[source]:
            arc = out[source].pop()
            node = self.arc_to[arc]
            verts = [u]
            while node != sink:
                w = node // 2
                verts.append(w)
                inner = out[node].pop()  # in(w) -> out(w)
                step = out[self.arc_to[inner]].pop()
                node = self.arc_to[step]
            verts.append(v)
            paths.append(tuple(verts))
        return paths

    def residual_reachable(self, u: int, cap: list[int]) -> set[int]:
        source = 2 * u + 1
        seen = {source}
        queue = deque([source])
        while queue:
            a = queue.popleft()
            for arc in self.head[a]:
                b = self.arc_to[arc]
                if cap[arc] > 0 and b not in seen:
                    seen.add(b)
                    queue.append(b)
        return seen


def _check_pair(g: Graph, u: int, v: int) -> None:
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("local connectivity needs two distinct vertices")


def local_connectivity(g: Graph, u: int, v: int) -> tuple[int, PathSystem]:
    """Maximum number of internally vertex-disjoint u-v paths, with witnesses."""
    _check_pair(g, u, v)
    net = _SplitFlow(g)
    value, cap = net.max_flow(u, v, g.n)
    paths = net.decode_paths(u, v, cap)
    ps = PathSystem(u, v, tuple(paths))
    problems = check_path_system(g, ps)
    if problems or len(paths) != value:
        raise TheoremViolation(f"invalid path system for ({u}, {v}): {problems}")
    return value, ps


def local_connectivity_value(g: Graph, u: int, v: int, limit: int | None = None) -> int:
    """Path count only; optionally capped at ``limit`` for threshold checks."""
    _check_pair(g, u, v)
    cap = g.n if limit is None else limit
    return _SplitFlow(g).max_flow(u, v, cap)[0]


def _weaker_pairs(
    g: Graph, pairs: Iterable[tuple[int, int]], bound: int
) -> Iterator[tuple[int, int, int]]:
    """Scan ``pairs`` on one flow network, yielding (a, b, value) whenever a
    pair has fewer than ``bound`` disjoint paths; the bound then drops to
    that value, and the scan ends once it reaches zero.

    Each flow is capped at the current bound, so the first yield answers a
    threshold query and the last one is the minimum over all pairs.
    """
    net = _SplitFlow(g)
    for a, b in pairs:
        if bound <= 0:
            return
        value = net.max_flow(a, b, bound)[0]
        if value < bound:
            bound = value
            yield a, b, value


def set_connectivity(g: Graph, u_set: Iterable[int]) -> int | None:
    """Minimum local connectivity over pairs of ``u_set``; None when |set| <= 1.

    The None marker means "unbounded": every comparison against it holds
    vacuously.
    """
    us = sorted(check_vertex_set(g, u_set))
    if len(us) <= 1:
        return None
    weaker = _weaker_pairs(g, combinations(us, 2), g.n)
    return min((value for _, _, value in weaker), default=g.n)


def find_pair_below(g: Graph, u_set: Iterable[int], bound: int) -> tuple[int, int, int] | None:
    """First pair of ``u_set`` with fewer than ``bound`` disjoint paths, or None.

    When ``u_set`` covers the whole graph this uses the standard designated-
    vertex reduction (one low-degree vertex against its non-neighbors, plus
    nonadjacent pairs of its neighbors) instead of all pairs.
    """
    us = sorted(check_vertex_set(g, u_set))
    if len(us) <= 1 or bound <= 0:
        return None
    if len(us) == g.n:
        return next(_kappa_pairs(g, bound), None)
    return next(_weaker_pairs(g, combinations(us, 2), bound), None)


def _kappa_pairs(g: Graph, bound: int) -> Iterator[tuple[int, int, int]]:
    """:func:`_weaker_pairs` over pairs whose minimum is kappa(G), for n >= 2:
    the first yield shows kappa(G) < bound, and the last one attains kappa(G)
    whenever it is below ``bound``.

    Complete and disconnected graphs need no flow.  Otherwise the pairs are
    the designated-vertex reduction: a minimum-degree vertex against each
    non-neighbor, then the nonadjacent pairs of its neighbors.
    """
    if is_complete(g):
        if g.n - 1 < bound:
            yield 0, 1, g.n - 1
        return
    comps = components(g)
    if len(comps) > 1:
        if bound > 0:
            yield min(comps[0]), min(comps[1]), 0
        return
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    nb = g.neighbors(v0)
    pairs = chain(
        ((v0, w) for w in range(g.n) if w != v0 and w not in nb),
        ((x, y) for x, y in combinations(sorted(nb), 2) if not g.has_edge(x, y)),
    )
    yield from _weaker_pairs(g, pairs, bound)


def global_connectivity(g: Graph) -> int:
    """Vertex connectivity: n-1 for complete graphs, 0 when disconnected or n <= 1."""
    if g.n <= 1:
        return 0
    delta = min(g.degree(v) for v in g.vertices())
    return min((value for _, _, value in _kappa_pairs(g, delta)), default=delta)


def _has_articulation(g: Graph) -> bool:
    """Iterative lowlink scan for cut vertices (graph assumed connected)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    adj = [sorted(g.neighbors(v)) for v in range(n)]
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            advanced = False
            while i < len(adj[v]):
                w = adj[v][i]
                i += 1
                if disc[w] == -1:
                    stack.append((v, parent, i))
                    stack.append((w, v, 0))
                    if v == root:
                        root_children += 1
                    advanced = True
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced and parent != -1:
                low[parent] = min(low[parent], low[v])
                if parent != root and low[v] >= disc[parent]:
                    return True
        if root_children > 1:
            return True
    return False


def connectivity_at_least(g: Graph, k: int) -> bool:
    """Threshold test kappa(G) >= k with fast paths for k <= 2."""
    if k <= 0:
        return True
    if g.n <= k:
        return False
    if k > 2:
        return next(_kappa_pairs(g, k), None) is None
    if not is_connected(g):
        return False
    return k == 1 or not _has_articulation(g)


def is_k_connected_after_removal(g: Graph, r: Iterable[int], k: int) -> bool:
    """True iff deleting ``r`` leaves a graph of connectivity at least ``k``."""
    rs = check_vertex_set(g, r)
    h, _ = induced_delete(g, rs)
    return connectivity_at_least(h, k)


def min_separator(g: Graph, u: int, v: int) -> frozenset[int]:
    """A minimum {u, v}-separating set extracted from max-flow residuals."""
    _check_pair(g, u, v)
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) are adjacent: no separating set exists")
    net = _SplitFlow(g, edge_cap=g.n)
    value, cap = net.max_flow(u, v, g.n)
    reach = net.residual_reachable(u, cap)
    cut = frozenset(
        w for w in range(g.n) if 2 * w in reach and 2 * w + 1 not in reach
    )
    if len(cut) != value:
        raise TheoremViolation(
            f"residual cut size {len(cut)} differs from flow value {value}"
        )
    return cut


def _separates(g: Graph, u: int, v: int, cut: frozenset[int]) -> bool:
    seen = {u}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b == v:
                return False
            if b not in seen and b not in cut:
                seen.add(b)
                queue.append(b)
    return True


def brute_min_separator(g: Graph, u: int, v: int, guard: int | None = None) -> Separator:
    """Minimum {u, v}-separating set by exhaustive subset search (oracle side).

    Subsets are enumerated in increasing size, so the first separating set
    found is minimum.  Guarded by graph size; adjacent pairs are rejected
    since no separating set exists for them.
    """
    _check_pair(g, u, v)
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) are adjacent: no separating set exists")
    limit = resolve_guard(guard, DEFAULT_BRUTE_GUARD)
    if g.n > limit:
        raise GuardExceeded(f"brute separator guard: {g.n} > {limit}")
    others = sorted(set(g.vertices()) - {u, v})
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            cut_set = frozenset(cut)
            if _separates(g, u, v, cut_set):
                return Separator(u, v, cut_set)
    raise TheoremViolation(f"no separating set found for nonadjacent ({u}, {v})")

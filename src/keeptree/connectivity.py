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
from itertools import combinations
from math import comb
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
    their own internal arc, so endpoint vertices are uncapacitated.  Node 2n
    is the in-copy of a sink vertex n with no arcs until :meth:`join_sink`
    links vertices into it.  It has no outgoing arc with residual capacity,
    so no augmenting path of a pair flow passes through it.

    Edge arcs carry capacity one by default, which never constrains the
    flow value for internally disjoint paths in a simple graph.  Separator
    extraction passes a large ``edge_cap`` instead so that minimum cuts are
    realized on internal arcs only (sound for nonadjacent endpoints).
    """

    __slots__ = ("n", "size", "head", "arc_to", "base_cap")

    def __init__(self, g: Graph, edge_cap: int = 1):
        n = g.n
        self.n = n
        self.size = 2 * n + 1
        self.head: list[list[int]] = [[] for _ in range(self.size)]
        self.arc_to: list[int] = []
        self.base_cap: list[int] = []
        for w in range(n):
            self._add_arc(2 * w, 2 * w + 1, 1)
        for u, v in g.edges():
            self._add_arc(2 * u + 1, 2 * v, edge_cap)
            self._add_arc(2 * v + 1, 2 * u, edge_cap)

    def _add_arc(self, a: int, b: int, c: int) -> None:
        """Arc a -> b of capacity c, with its zero-capacity reverse arc."""
        self.head[a].append(len(self.arc_to))
        self.arc_to.append(b)
        self.base_cap.append(c)
        self.head[b].append(len(self.arc_to))
        self.arc_to.append(a)
        self.base_cap.append(0)

    def join_sink(self, w: int) -> None:
        """Edge from out(w) into the sink vertex n: flows to n may end at w."""
        self._add_arc(2 * w + 1, 2 * self.n, 1)

    def max_flow(self, u: int, v: int, limit: int) -> tuple[int, list[int]]:
        """Max flow from out(u) to in(v), capped at limit; returns residual caps.

        Dinic phases: a BFS levels the residual network from the source and
        stops once the sink has a level; a DFS with current-arc pointers then
        augments one unit at a time along level-increasing arcs until the
        level graph is blocked or the flow reaches ``limit``.  A dead end
        drops out of the phase (level -1).  Each phase lengthens the shortest
        augmenting path, so unit vertex capacities give O(sqrt(n) m) work.
        """
        cap = self.base_cap.copy()
        source, sink = 2 * u + 1, 2 * v
        head, arc_to = self.head, self.arc_to
        value = 0
        while value < limit:
            level = [-1] * self.size
            level[source] = 0
            queue = [source]
            for a in queue:
                nxt = level[a] + 1
                for arc in head[a]:
                    b = arc_to[arc]
                    if cap[arc] > 0 and level[b] < 0:
                        level[b] = nxt
                        queue.append(b)
                if level[sink] >= 0:
                    break
            else:
                break  # the sink is unreachable: the flow is maximum
            current = [0] * self.size
            path: list[int] = []
            a = source
            while True:
                if a == sink:
                    for arc in path:
                        cap[arc] -= 1
                        cap[arc ^ 1] += 1
                    value += 1
                    if value == limit:
                        break
                    # Saturated arcs fail the test below, so descending
                    # again from the source resumes at the current arcs.
                    path.clear()
                    a = source
                arcs, i, nxt = head[a], current[a], level[a] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[arc_to[arcs[i]]] == nxt):
                    i += 1
                current[a] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    a = arc_to[arcs[i]]
                    continue
                level[a] = -1
                if not path:
                    break
                a = arc_to[path.pop() ^ 1]
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
    net: _SplitFlow, pairs: Iterable[tuple[int, int]], bound: int
) -> Iterator[tuple[int, int, int]]:
    """Scan ``pairs`` on the caller's flow network, yielding (a, b, value)
    whenever a pair has fewer than ``bound`` disjoint paths; the bound then
    drops to that value, and the scan ends once it reaches zero.

    Each flow is capped at the current bound, so the first yield answers a
    threshold query and the last one is the minimum over all pairs.
    """
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
    weaker = _weaker_pairs(_SplitFlow(g), combinations(us, 2), g.n)
    return min((value for _, _, value in weaker), default=g.n)


def find_pair_below(g: Graph, u_set: Iterable[int], bound: int) -> tuple[int, int, int] | None:
    """A pair of ``u_set`` with fewer than ``bound`` disjoint paths, or None.

    Returns (a, b, value) with value the pair's exact local connectivity;
    see :func:`_pair_below` for which pair is reported.
    """
    us = sorted(check_vertex_set(g, u_set))
    if len(us) <= 1 or bound <= 0:
        return None
    return _pair_below(g, us, bound)


def _pair_below(g: Graph, us: list[int], bound: int) -> tuple[int, int, int] | None:
    """The threshold kernel behind :func:`find_pair_below` and
    :func:`connectivity_at_least`: a pair of the sorted ``us`` (|us| >= 2,
    bound >= 1) below ``bound``, or None.

    A proper subset runs Even's test.  The whole vertex set first takes the
    complete/disconnected shortcuts, then whichever of Even's test and the
    designated-vertex pairs needs fewer flows when every pair passes.
    """
    if len(us) == g.n:
        trivial = _trivial_kappa(g)
        if trivial is not None:
            return trivial if trivial[2] < bound else None
        pairs = _designated_pairs(g)
        b = min(bound, g.n)
        if len(pairs) <= comb(b, 2) + g.n - b:
            return next(_weaker_pairs(_SplitFlow(g), pairs, bound), None)
    return _even_test(g, us, bound)


def _even_test(g: Graph, us: list[int], bound: int) -> tuple[int, int, int] | None:
    """Even's threshold test (SIAM J. Comput. 4, 1975) on the sorted ``us``.

    The pairs among the first ``bound`` vertices are checked directly; then
    each later vertex u_j runs one fan flow, capped at ``bound``, to a sink
    joined to every earlier vertex.  A separator S of fewer than ``bound``
    elements (vertices, or one edge for an adjacent pair) that splits two
    vertices of ``us`` either splits two of the first ``bound`` or leaves
    those outside S in one component; then every fan path from the first
    u_j in another component meets S.  Conversely a short fan is cut by
    fewer than ``bound`` elements, which miss some earlier vertex x, and
    (x, u_j) is the witness.  The pair flows, the fans and the witness scan
    all run on one network; the fans end at its sink vertex.
    """
    net = _SplitFlow(g)
    head = us[:bound]
    witness = next(_weaker_pairs(net, combinations(head, 2), bound), None)
    if witness is not None or len(us) <= bound:
        return witness
    for x in head:
        net.join_sink(x)
    for j in range(bound, len(us)):
        u = us[j]
        if net.max_flow(u, net.n, bound)[0] < bound:
            witness = next(_weaker_pairs(net, ((x, u) for x in us[:j]), bound), None)
            if witness is None:
                raise TheoremViolation(
                    f"fan from {u} has fewer than {bound} paths, "
                    f"but every earlier vertex has {bound}"
                )
            return witness
        net.join_sink(u)
    return None


def _trivial_kappa(g: Graph) -> tuple[int, int, int] | None:
    """(a, b, kappa(G)) for a pair attaining it when G (n >= 2) is complete or
    disconnected, where no flow is needed; None otherwise."""
    if is_complete(g):
        return 0, 1, g.n - 1
    comps = components(g)
    if len(comps) > 1:
        return min(comps[0]), min(comps[1]), 0
    return None


def _designated_pairs(g: Graph) -> list[tuple[int, int]]:
    """Pairs whose minimum local connectivity is kappa(G) for a connected,
    non-complete G: a minimum-degree vertex against each non-neighbor, then
    the nonadjacent pairs of its neighbors."""
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    nb = g.neighbors(v0)
    pairs = [(v0, w) for w in range(g.n) if w != v0 and w not in nb]
    pairs += [(x, y) for x, y in combinations(sorted(nb), 2) if not g.has_edge(x, y)]
    return pairs


def global_connectivity(g: Graph) -> int:
    """Vertex connectivity: n-1 for complete graphs, 0 when disconnected or n <= 1."""
    if g.n <= 1:
        return 0
    trivial = _trivial_kappa(g)
    if trivial is not None:
        return trivial[2]
    delta = min(g.degree(v) for v in g.vertices())
    weaker = _weaker_pairs(_SplitFlow(g), _designated_pairs(g), delta)
    return min((value for _, _, value in weaker), default=delta)


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
        return _pair_below(g, list(range(g.n)), k) is None
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

"""Vertex connectivity: the unit-capacity flow kernel and the queries on it.

Local connectivity between two vertices is a unit-capacity maximum flow on
the vertex-split digraph: every vertex other than the two endpoints becomes
an in->out arc of capacity one.  Adjacent pairs are handled uniformly (the
direct edge counts as one path with no internal vertices).  On that kernel
run the threshold tests (:func:`find_pair_below`,
:func:`connectivity_at_least`), exact connectivity
(:func:`global_connectivity`) and minimum separators (:func:`min_separator`).
A query about a vertex subset of the host runs on the host's ids and
masks, with no induced copy.

Every connectivity value comes from one threshold test, Even's test
(:func:`_pair_below`), which stops at its first pair below a bound.  Exact
connectivity is a descent: it reruns the test from the minimum degree,
lowering the bound to each value reported, until the test passes.  On the
whole vertex set of a graph that is not complete, kappa is the minimum over
nonadjacent pairs, so the test runs no flow for an adjacent head pair; on a
proper subset it checks every pair.  Most of its flows are settled by the
kernel's pre-routed short paths, which it counts on masks before it
allocates any flow state.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import TheoremViolation
from .graphs import Graph, mask_bits, mask_component, vertex_mask

__all__ = [
    "local_connectivity_value",
    "find_pair_below",
    "global_connectivity",
    "connectivity_at_least",
    "is_k_connected_after_removal",
    "min_separator",
]


class _SplitFlow:
    """Reusable unit-capacity flow network over the vertex-split digraph,
    held as vertex bitmasks.

    Vertex w has an in-copy and an out-copy joined by an internal arc
    in(w) -> out(w) of capacity one; ``adj[w]`` is the mask of the y with an
    arc out(w) -> in(y).  Sources/sinks bypass their own internal arc, so
    endpoint vertices are uncapacitated.  Bit n stands for a sink vertex
    with an in-copy only: :meth:`join_sink` adds arcs into it, and it has
    no way out, so no augmenting path of a pair flow passes through it.
    Every arc has capacity one, which never constrains the flow value for
    internally disjoint paths in a simple graph.  Only the vertices of the
    mask ``alive`` (default: all) have arcs, to their neighbours in
    ``alive``: the network of the induced subgraph, cut from the host's
    ``g.masks``.
    """

    __slots__ = ("n", "alive", "adj", "joined")

    def __init__(self, g: Graph, alive: int | None = None):
        self.n = g.n
        self.alive = alive = (1 << g.n) - 1 if alive is None else alive
        self.adj = [m & alive if alive >> w & 1 else 0 for w, m in enumerate(g.masks)]
        self.joined = 0  # the w with an arc out(w) -> in(n)

    def join_sink(self, w: int) -> None:
        """Edge from out(w) into the sink vertex n: flows to n may end at w."""
        self.adj[w] |= 1 << self.n
        self.joined |= 1 << w

    def max_flow(
        self, u: int, v: int, limit: int
    ) -> tuple[int, list[int] | None, tuple[int, int] | None]:
        """Max flow from out(u) to in(v), capped at ``limit`` >= 0; returns
        ``(value, flow, reach)``.  ``flow[x]`` is the mask of the y with flow
        on out(x) -> in(y) (one bit at most unless x = u).  ``reach`` is None
        when the flow stopped at ``limit``, else the masks ``(seen_in,
        seen_out)`` of the vertices whose in- and out-copies the last BFS,
        which finds the sink unreachable, reaches from out(u).  When the
        pre-routed paths alone reach ``limit``, the result is ``(limit,
        None, None)``: no flow is written.

        Pre-routing takes the arc out(u) -> in(v), if any, as the first
        phase would fill it.  Then come the free short paths: u -> y -> v
        through every y with arcs from out(u) and into in(v) (common
        neighbours of a pair, or the neighbours of u joined to the sink
        vertex), then u -> x -> y -> v through the lowest such y still free
        for each other x in adj[u].  These paths are first counted on masks
        alone.  Only a count short of ``limit`` allocates the flow state and
        writes them as augments write them, so the phases start from a
        feasible flow and may cancel a greedy arc.  The capped value and the
        final residual source side are those of every maximum flow, so
        neither depends on this start.

        The residual arcs are out(x) -> in(y) for y in adj[x] & ~flow[x],
        out(w) -> in(w) for used w, in(y) -> out(y) for free y, and in(y) ->
        out(pred[y]) for used y, where pred[y] sends y its unit and ``used``
        masks the vertices whose internal arc carries flow.  So every in-node
        but the sink has one exit at most.

        Dinic phases: a BFS levels the residual network in alternating
        out- and in-masks, one OR per frontier vertex, and stops once the
        sink has a level; a DFS then augments one unit at a time along the
        lowest live in-node of the next level, or an in-node's one exit,
        until the level graph is blocked or the flow reaches ``limit``.  An
        in-node that leads to a dead end leaves its level's mask.  Each phase
        lengthens the shortest augmenting path, so unit vertex capacities
        give O(sqrt(n) m) work.
        """
        n, adj = self.n, self.adj
        sink = 1 << v
        internal = (1 << n) - 1  # every vertex but the sink vertex n
        free = internal & ~sink & ~(1 << u)
        starts = adj[u] & free
        ends = (self.joined if v == n else adj[v]) & free
        short, starts, ends = starts & ends, starts & ~ends, ends & ~starts
        # Count the pre-routed paths first: a flow they settle allocates
        # nothing.
        value = (adj[u] >> v & 1) + short.bit_count()
        rest, left = starts, ends
        while rest and value < limit:
            low = rest & -rest
            rest ^= low
            end = adj[low.bit_length() - 1] & left
            if end:
                left ^= end & -end
                value += 1
        if value >= limit:
            return limit, None, None
        # Short of the cap: write the same paths, all of them.
        flow = [0] * n
        pred = [0] * n
        flow[u] = adj[u] & sink | short
        used = short
        while short:
            low = short & -short
            short ^= low
            y = low.bit_length() - 1
            pred[y] = u
            flow[y] = sink
        while starts:
            low = starts & -starts
            starts ^= low
            x = low.bit_length() - 1
            end = adj[x] & ends
            if end:
                end &= -end
                ends ^= end
                y = end.bit_length() - 1
                flow[u] |= low
                pred[x] = u
                flow[x] = end
                pred[y] = x
                flow[y] = sink
                used |= low | end
        while value < limit:
            # ins[k]: the in-nodes at level 2k + 1 whose one exit is at level
            # 2k + 2.  Every out-node but the source is the exit of one
            # in-node only, so the exits of ins[k] are the next out-level.
            frontier = seen_out = 1 << u
            seen_in = 0
            ins: list[int] = []
            while frontier:
                reach = frontier & used
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    x = low.bit_length() - 1
                    reach |= adj[x] & ~flow[x]
                reach &= ~seen_in
                if reach & sink:
                    break
                seen_in |= reach
                layer = frontier = reach & ~used & internal & ~seen_out
                rest = reach & used
                while rest:
                    low = rest & -rest
                    rest ^= low
                    exit_ = 1 << pred[low.bit_length() - 1]
                    if not seen_out & exit_:
                        frontier |= exit_
                        layer |= low
                seen_out |= frontier
                ins.append(layer)
            else:  # the sink is unreachable: the flow is maximum
                return value, flow, (seen_in, seen_out)
            ins.append(sink)
            depth = len(ins) - 1
            xs, ys = [u], []
            x = u
            while True:
                k = len(ys)
                live = ((adj[x] & ~flow[x]) | (used & (1 << x))) & ins[k]
                if not live:
                    if not ys:
                        break
                    xs.pop()
                    x = xs[-1]
                    ins[k - 1] ^= 1 << ys.pop()
                    continue
                low = live & -live
                if k < depth:
                    y = low.bit_length() - 1
                    x = pred[y] if used & low else y
                    xs.append(x)
                    ys.append(y)
                    continue
                # Augment: in(y) is entered from out(xs[i]) by an edge arc, or
                # by y's reversed internal arc if xs[i] == y, and left by y's
                # internal arc if xs[i + 1] == y, else by cancelling the flow
                # from xs[i + 1].  Its one exit is gone, so it leaves the phase.
                for i, y in enumerate(ys):
                    b = 1 << y
                    if xs[i + 1] == y:
                        used |= b
                    else:
                        flow[xs[i + 1]] = 0
                    if xs[i] == y:
                        used ^= b
                    else:
                        flow[xs[i]] |= b
                        pred[y] = xs[i]
                    ins[i] ^= b
                flow[x] |= sink
                value += 1
                if value == limit:
                    break
                xs, ys = [u], []
                x = u
        return value, flow, None


def _check_pair(g: Graph, u: int, v: int) -> None:
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("local connectivity needs two distinct vertices")


def local_connectivity_value(g: Graph, u: int, v: int, limit: int | None = None) -> int:
    """Path count only; optionally capped at ``limit`` for threshold checks."""
    _check_pair(g, u, v)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    cap = g.n if limit is None else limit
    return _SplitFlow(g).max_flow(u, v, cap)[0]


def _weaker_pair(
    net: _SplitFlow, pairs: Iterable[tuple[int, int]], bound: int
) -> tuple[int, int, int] | None:
    """The first of ``pairs`` with fewer than ``bound`` disjoint paths on the
    caller's flow network, as (a, b, value), or None.  Each flow is capped
    at ``bound``, so ``value`` is the pair's exact local connectivity."""
    for a, b in pairs:
        value = net.max_flow(a, b, bound)[0]
        if value < bound:
            return a, b, value
    return None


def find_pair_below(
    g: Graph, u_set: Iterable[int], bound: int, within: Iterable[int] | None = None
) -> tuple[int, int, int] | None:
    """A pair of ``u_set`` with fewer than ``bound`` disjoint paths in
    G[within] (all of G by default), or None.

    Returns (a, b, value) with value the pair's exact local connectivity.
    A query on a proper subset may report any pair; one on every vertex of
    G[within] reports a nonadjacent pair among the first ``bound`` vertices
    or a fan's witness pair (see :func:`_pair_below`).
    """
    alive, us = vertex_mask(g, within), vertex_mask(g, u_set)
    if us & ~alive:
        raise ValueError("u_set is not inside within")
    if us.bit_count() <= 1 or bound <= 0:
        return None
    return _pair_below(_SplitFlow(g, alive), list(mask_bits(us)), bound)


def _pair_below(net: _SplitFlow, us: list[int], bound: int) -> tuple[int, int, int] | None:
    """Even's test (SIAM J. Comput. 4, 1975), the kernel of every
    connectivity query: a pair of ``us`` (|us| >= 2, bound >= 1, all in
    ``net.alive``) with fewer than ``bound`` disjoint paths in the network's
    graph, as (a, b, value), or None.

    The pairs of the head, the first min(|us|, bound) vertices, are checked
    first.  Then each later vertex u_j runs one fan flow to a sink joined to
    every earlier vertex; a short fan is followed by a witness scan of
    (x, u_j) over the earlier x.  Every flow runs on the caller's network,
    capped at ``bound``, and the first pair below it is the answer.

    Soundness.  Let S be a set of fewer than ``bound`` elements (vertices,
    or one edge for an adjacent pair) that splits two vertices of ``us``.
    If it splits two head vertices, their pair check fails.  Otherwise some
    vertex lies past the head, so the head has ``bound`` vertices, and those
    outside S lie in one component; the first u_j in another component has
    every earlier vertex there or in S, so its fan is short.  A short fan
    is cut by as many elements as its value, which miss some earlier x, so
    some (x, u_j) is below ``bound``; a witness scan that finds none raises
    :class:`TheoremViolation`.

    When ``us`` is every vertex of the network, the complete and
    disconnected graphs are answered by :func:`_trivial_kappa`, and a
    connected graph passes bound 1.  Otherwise vertex separators suffice and
    never split adjacent vertices, so the head's adjacent pairs run no flow
    (Esfahanian & Hakimi, Networks 14, 1984); fans and witness scans keep
    every pair.  An adjacent pair's value is at least kappa, as deleting the
    edge lowers connectivity by one at most and the edge is one more path.
    So every value reported here is at least kappa.
    """
    whole = len(us) == net.alive.bit_count()
    if whole:
        trivial = _trivial_kappa(net)
        if trivial is not None:
            return trivial if trivial[2] < bound else None
        if bound == 1:
            return None
    head = us[:bound]
    pairs: Iterable[tuple[int, int]] = combinations(head, 2)
    if whole:
        pairs = ((a, b) for a, b in pairs if not net.adj[a] >> b & 1)
    found = _weaker_pair(net, pairs, bound)
    if found is not None:
        return found
    for x in head:
        net.join_sink(x)
    for j in range(len(head), len(us)):
        u = us[j]
        fan = net.max_flow(u, net.n, bound)[0]
        if fan < bound:
            found = _weaker_pair(net, ((x, u) for x in us[:j]), bound)
            if found is None:
                raise TheoremViolation(
                    f"fan from {u} has {fan} paths, "
                    f"but every earlier vertex has at least {bound}"
                )
            return found
        net.join_sink(u)
    return None


def _trivial_kappa(net: _SplitFlow) -> tuple[int, int, int] | None:
    """(a, b, kappa) for a pair attaining it when the network's graph (n >= 2)
    is complete or disconnected, so no flow is needed; None otherwise.
    Degrees are popcounts, and one mask BFS tests connectedness."""
    alive, adj = net.alive, net.adj
    count = alive.bit_count()
    a = next(mask_bits(alive))
    if all(adj[v].bit_count() == count - 1 for v in mask_bits(alive)):
        return a, next(mask_bits(alive ^ 1 << a)), count - 1
    seen = mask_component(adj, a, alive)
    if seen != alive:
        return a, next(mask_bits(alive & ~seen)), 0
    return None


def global_connectivity(g: Graph, removed: Iterable[int] = ()) -> int:
    """Vertex connectivity of G - ``removed``: n-1 for a complete graph on n
    vertices, 0 when it is disconnected or has at most one vertex.

    A descent of threshold tests: from bound delta, the minimum degree, run
    :func:`_pair_below` on a fresh network and lower the bound to each value
    it reports, until a call passes.  Every reported value is at least
    kappa, and a pass at bound b proves kappa >= b, so the last bound is
    kappa.  The vertices are ordered by degree, highest first (ties by id):
    head pairs then share many neighbours, and fans end at a sink joined to
    many earlier vertices, so the kernel's free short paths settle most
    flows before it allocates.
    """
    alive = vertex_mask(g, None) & ~vertex_mask(g, removed)
    degree = {v: (g.masks[v] & alive).bit_count() for v in mask_bits(alive)}
    us = sorted(degree, key=lambda v: -degree[v])
    bound = min(degree.values(), default=0)
    while bound > 0:
        drop = _pair_below(_SplitFlow(g, alive), us, bound)
        if drop is None:
            break
        bound = drop[2]
    return bound


def connectivity_at_least(g: Graph, k: int) -> bool:
    """Threshold test kappa(G) >= k."""
    return is_k_connected_after_removal(g, (), k)


def is_k_connected_after_removal(g: Graph, r: Iterable[int], k: int) -> bool:
    """True iff deleting ``r`` leaves a graph of connectivity at least ``k``:
    more than k vertices and, for k >= 1, no pair of them below k."""
    alive = vertex_mask(g, None) & ~vertex_mask(g, r)
    if k <= 0:
        return True
    us = list(mask_bits(alive))
    return len(us) > k and _pair_below(_SplitFlow(g, alive), us, k) is None


def min_separator(
    g: Graph, u: int, v: int, within: Iterable[int] | None = None
) -> frozenset[int]:
    """A minimum {u, v}-separating set in G[within] (all of G by default),
    read off the last BFS of a maximum flow: the vertices whose in-copy is
    on its source side and whose out-copy is not.  Uncapacitated edge arcs,
    which leave the flow of a nonadjacent pair as it is, would add to that
    side only the in-copies of u's flow successors (any other out(x) there
    was reached from its flow head), so these count as on it and the cut
    holds internal arcs only.
    """
    _check_pair(g, u, v)
    alive = vertex_mask(g, within)
    if not alive >> u & alive >> v & 1:
        raise ValueError(f"({u}, {v}) is not inside within")
    if g.masks[u] >> v & 1:
        raise ValueError(f"({u}, {v}) are adjacent: no separating set exists")
    return frozenset(mask_bits(_min_cut(_SplitFlow(g, alive), u, v)))


def _min_cut(net: _SplitFlow, u: int, v: int) -> int:
    """The mask of :func:`min_separator`'s cut for the nonadjacent pair
    (u, v) of ``net.alive``, by one uncapped flow on the caller's network
    (which must have no sink joins)."""
    value, flow, (seen_in, seen_out) = net.max_flow(u, v, net.alive.bit_count())
    cut = (seen_in | flow[u]) & ~seen_out
    if cut.bit_count() != value:
        raise TheoremViolation(
            f"residual cut size {cut.bit_count()} differs from flow value {value}"
        )
    return cut

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

Threshold tests and exact connectivity share one scan with a running bound,
Even's test (:func:`_even_drops`) or the designated-vertex pairs: a
threshold test stops at its first pair below the bound, and exact
connectivity runs from the minimum degree down to its last drop.  Exact
connectivity takes the designated pairs only when the designated vertex's
neighbourhood has an edge; otherwise it runs Even's test with the vertices
ordered by degree, highest first.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator

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
    ) -> tuple[int, list[int], tuple[int, int] | None]:
        """Max flow from out(u) to in(v), capped at ``limit``; returns
        ``(value, flow, reach)``.  ``flow[x]`` is the mask of the y with flow
        on out(x) -> in(y) (one bit at most unless x = u).  ``reach`` is None
        when the flow stopped at ``limit``, else the masks ``(seen_in,
        seen_out)`` of the vertices whose in- and out-copies the last BFS,
        which finds the sink unreachable, reaches from out(u).

        The arc out(u) -> in(v), if any, is filled first, as the first
        phase would fill it.  Then come the free short paths: u -> y -> v
        through every y with arcs from out(u) and into in(v) (common
        neighbours of a pair, or the neighbours of u joined to the sink
        vertex), then u -> x -> y -> v through the lowest such y still free
        for each other x in adj[u].  They are written as augments write
        them, so the phases start from a feasible flow and may cancel a
        greedy arc.  The capped value and the final residual source side
        are those of every maximum flow, so neither depends on this start.

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
        flow = [0] * n
        pred = [0] * n
        used = value = 0
        if limit > 0 and adj[u] & sink:
            value = 1
            flow[u] = sink
        free = internal & ~sink & ~(1 << u)
        starts = adj[u] & free
        ends = (self.joined if v == n else adj[v]) & free
        short, starts, ends = starts & ends, starts & ~ends, ends & ~starts
        while short and value < limit:
            low = short & -short
            short ^= low
            y = low.bit_length() - 1
            flow[u] |= low
            pred[y] = u
            flow[y] = sink
            used |= low
            value += 1
        while starts and value < limit:
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
                value += 1
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


def find_pair_below(
    g: Graph, u_set: Iterable[int], bound: int, within: Iterable[int] | None = None
) -> tuple[int, int, int] | None:
    """A pair of ``u_set`` with fewer than ``bound`` disjoint paths in
    G[within] (all of G by default), or None.

    Returns (a, b, value) with value the pair's exact local connectivity;
    see :func:`_pair_below` for which pair is reported.
    """
    alive, us = vertex_mask(g, within), vertex_mask(g, u_set)
    if us & ~alive:
        raise ValueError("u_set is not inside within")
    if us.bit_count() <= 1 or bound <= 0:
        return None
    return _pair_below(_SplitFlow(g, alive), list(mask_bits(us)), bound)


def _pair_below(net: _SplitFlow, us: list[int], bound: int) -> tuple[int, int, int] | None:
    """The threshold kernel behind every threshold query: a pair of the
    sorted ``us`` (|us| >= 2, bound >= 1, all in ``net.alive``) below
    ``bound`` in the network's graph, or None.

    A proper subset runs Even's test.  The whole vertex set first takes the
    complete/disconnected shortcuts, and a connected graph passes bound 1;
    then whichever of Even's test and the designated-vertex pairs needs
    fewer flows when every pair passes.
    """
    count = net.alive.bit_count()
    if len(us) == count:
        trivial = _trivial_kappa(net)
        if trivial is not None:
            return trivial if trivial[2] < bound else None
        if bound == 1:
            return None
        pair_count, pairs = _designated_pairs(net)
        b = min(bound, count)
        if pair_count <= comb(b, 2) + count - b:
            return next(_weaker_pairs(net, pairs, bound), None)
    return next(_even_drops(net, us, bound), None)


def _even_drops(net: _SplitFlow, us: list[int], bound: int) -> Iterator[tuple[int, int, int]]:
    """Even's test (SIAM J. Comput. 4, 1975) on ``us`` with a running bound:
    yields (a, b, value) whenever a pair of ``us`` has fewer than ``bound``
    disjoint paths in the network's graph, and the bound then drops to that
    value.  The first yield answers the threshold query; the last one, if
    any, is the minimum over all pairs of ``us``.

    The pairs among the head, the first ``bound`` vertices at the start, are
    checked in ``combinations`` order; then each later vertex u_j runs one fan
    flow to a sink joined to every earlier vertex, and a short fan is
    followed by a witness scan of (x, u_j) over the earlier x.  Every flow
    is capped at the current bound, and the scan ends once it reaches zero.
    The pair flows, the fans and the witness scan all run on the caller's
    network; the fans end at its sink vertex.

    Soundness.  Caps only fall, so every flow ran at a cap of at least the
    final bound b.  Let S be a separator of fewer than b elements (vertices,
    or one edge for an adjacent pair) that splits two vertices of ``us``.
    If it splits two head vertices, their pair check gave at most |S| < b.
    Otherwise the head vertices outside S, which exist because the head has
    more than |S| vertices, lie in one component C, and the first u_j in
    another component has every earlier vertex in C or S.  Then every fan
    path from u_j meets S, so the fan is short: at most |S| < b.  A short
    fan is cut by as many elements as its value (vertices, or edges at u_j),
    which miss some earlier vertex x, since there are at least as many
    earlier vertices as the head; so (x, u_j) is no stronger than the fan,
    and the witness scan, which checks every earlier x, drops the bound to
    the fan's value or below.  Either way the bound fell below b, so no such
    S exists and no pair of ``us`` is below the final bound.  Conversely, a
    fan is short only if some pair (x, u_j) is: passing pair checks imply
    the fan condition.
    """
    head = us[:bound]
    for a, b, value in _weaker_pairs(net, combinations(head, 2), bound):
        bound = value
        yield a, b, value
    for x in head:
        net.join_sink(x)
    for j in range(len(head), len(us)):
        if bound <= 0:
            return
        u = us[j]
        if net.max_flow(u, net.n, bound)[0] < bound:
            fan = bound
            for a, b, value in _weaker_pairs(net, ((x, u) for x in us[:j]), bound):
                bound = value
                yield a, b, value
            if bound == fan:
                raise TheoremViolation(
                    f"fan from {u} has fewer than {fan} paths, "
                    f"but every earlier vertex has {fan}"
                )
        net.join_sink(u)


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


def _designated_pairs(net: _SplitFlow) -> tuple[int, Iterator[tuple[int, int]]]:
    """Pairs whose minimum local connectivity is kappa for the network's
    connected, non-complete graph: a minimum-degree vertex v0 against each
    non-neighbor, then the nonadjacent pairs of its neighbors.  Returns
    their count, from popcounts, and the pairs, generated lazily."""
    alive, adj = net.alive, net.adj
    v0 = min(mask_bits(alive), key=lambda v: adj[v].bit_count())
    nb = adj[v0]
    d = nb.bit_count()
    inner_edges = sum((adj[x] & nb).bit_count() for x in mask_bits(nb)) // 2
    count = alive.bit_count() - d - 1 + comb(d, 2) - inner_edges
    pairs = chain(
        ((v0, w) for w in mask_bits(alive & ~nb & ~(1 << v0))),
        ((x, y) for x, y in combinations(mask_bits(nb), 2) if not adj[x] >> y & 1),
    )
    return count, pairs


def global_connectivity(g: Graph, removed: Iterable[int] = ()) -> int:
    """Vertex connectivity of G - ``removed``: n-1 for a complete graph on n
    vertices, 0 when it is disconnected or has at most one vertex.

    Otherwise one scan from bound delta, the minimum degree, finds it as its
    last drop.  The scan is the designated pairs when the designated
    vertex's neighbourhood has an edge, since they skip every adjacent pair
    there.  Otherwise they would make exactly one flow fewer than Even's
    test, and the scan is Even's test with the vertices ordered by degree,
    highest first (ties by id), whose flows are cheaper: head pairs share
    many neighbours, and fans end at a sink joined to many earlier
    vertices, so the kernel's free short paths settle most of them before
    any Dinic phase.
    """
    alive = vertex_mask(g, None) & ~vertex_mask(g, removed)
    if alive.bit_count() <= 1:
        return 0
    net = _SplitFlow(g, alive)
    trivial = _trivial_kappa(net)
    if trivial is not None:
        return trivial[2]
    adj = net.adj
    delta = min(adj[v].bit_count() for v in mask_bits(alive))
    pair_count, pairs = _designated_pairs(net)
    if pair_count < comb(delta, 2) + alive.bit_count() - delta - 1:  # an edge in N(v0)
        drops = _weaker_pairs(net, pairs, delta)
    else:
        us = sorted(mask_bits(alive), key=lambda v: -adj[v].bit_count())
        drops = _even_drops(net, us, delta)
    return min((value for _, _, value in drops), default=delta)


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
    net = _SplitFlow(g, alive)
    value, flow, (seen_in, seen_out) = net.max_flow(u, v, alive.bit_count())
    cut = frozenset(mask_bits((seen_in | flow[u]) & ~seen_out))
    if len(cut) != value:
        raise TheoremViolation(
            f"residual cut size {len(cut)} differs from flow value {value}"
        )
    return cut

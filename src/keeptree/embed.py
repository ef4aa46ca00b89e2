"""Tree embeddings into host graphs.

Three constructive routes cover the hypotheses the pipeline meets: a greedy
placement for hosts of minimum degree at least m-1, a bipartition-respecting
greedy for bipartite hosts, and a search rooted at the tree's
highest-degree vertex for sparse (girth-bounded) hosts.  All three take the
first map of one complete backtracking search, which with every host vertex
as a root candidate is also the exhaustive oracle.
Every embedder takes an optional vertex mask ``alive`` and embeds into
the subgraph it induces, on the host's restricted masks, in its numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import GuardExceeded, PreconditionError, SearchExhausted, TheoremViolation
from .graphs import (
    Graph, Tree, alive_masks, bipartition, degree_stats, girth, girth_at_least, mask_bits
)

__all__ = [
    "Embedding",
    "embedding_errors",
    "greedy_embed",
    "bipartite_embed",
    "sparse_embed",
    "exhaustive_embed",
    "iter_embeddings",
]


@dataclass(frozen=True)
class Embedding:
    """Injective map from tree vertices to host vertices preserving edges."""

    mapping: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Embedding":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def image(self) -> frozenset[int]:
        return frozenset(h for _, h in self.mapping)


def embedding_errors(host: Graph, tree: Tree, emb: Embedding) -> list[str]:
    """Structural problems of an embedding (empty list when valid)."""
    problems: list[str] = []
    d = emb.as_dict()
    if sorted(d) != list(range(tree.order)):
        problems.append("domain is not exactly the tree vertex set")
        return problems
    values = list(d.values())
    if len(set(values)) != len(values):
        problems.append("map is not injective")
    for h in values:
        if not 0 <= h < host.n:
            problems.append(f"host vertex {h} out of range")
            return problems
    for a, b in tree.graph.edges():
        if not host.masks[d[a]] >> d[b] & 1:
            problems.append(f"tree edge ({a}, {b}) maps to non-edge ({d[a]}, {d[b]})")
    return problems


def _bfs_order(tree: Tree, root: int, key=None) -> tuple[list[int], list[int]]:
    """BFS vertex order from ``root`` and the parent of each vertex (-1 for root)."""
    g = tree.graph
    parent = [-1] * g.n
    order = [root]
    seen = 1 << root
    for a in order:  # the order grows as it is walked: it is the queue
        fresh = g.masks[a] & ~seen
        seen |= fresh
        for b in sorted(mask_bits(fresh), key=key):
            parent[b] = a
            order.append(b)
    return order, parent


def greedy_embed(host: Graph, tree: Tree, alive: int | None = None) -> Embedding:
    """Greedy embedding for hosts with minimum degree at least m-1.

    Tree vertices are placed in BFS order from vertex 0; the root maps to
    the minimum-id host vertex and every child to the least-id unused
    neighbor of its parent's image.  With at most m-1 vertices placed and
    every image having at least m-1 neighbors, a free neighbor always
    exists, so the first map of the complete search is this greedy one: in
    BFS order a vertex's only tree neighbor placed before it is its parent.
    """
    m = tree.order
    alive, masks = alive_masks(host, alive)
    stats = degree_stats(host, alive)
    if stats is None:
        raise PreconditionError("empty host graph")
    if stats[0] < m - 1:
        offender = next(v for v in mask_bits(alive) if masks[v].bit_count() == stats[0])
        raise PreconditionError(
            f"minimum degree {stats[0]} at vertex {offender} is below m-1 = {m - 1}"
        )
    search = _anchored_search(masks, tree, *_bfs_order(tree, 0), alive & -alive)
    return _first_embedding(host, tree, alive, search)


def bipartite_embed(host: Graph, tree: Tree, alive: int | None = None) -> Embedding:
    """Bipartition-respecting embedding into a bipartite host.

    The host sides are those of :func:`bipartition`.  Tries the orientation
    mapping the tree part X into the first side, then the swapped one.  An
    orientation is usable when every vertex of X's side has degree at least
    |Y| and every vertex of Y's side degree at least |X|.  Tree vertex 0
    then maps to the least vertex of X's side and the rest greedily, as in
    :func:`greedy_embed`.
    """
    alive, masks = alive_masks(host, alive)
    parts = bipartition(host, alive)
    if parts is None:
        raise PreconditionError("host is not bipartite")
    degrees = [min((masks[v].bit_count() for v in side), default=None) for side in parts]
    reasons = []
    for swap in (False, True):
        tu = parts[1] if swap else parts[0]
        need_u, need_v = len(tree.part_y), len(tree.part_x)
        du, dv = degrees[::-1] if swap else degrees
        if not tu:
            reasons.append(f"swap={swap}: no vertices available for the X part")
            continue
        if du < need_u:
            reasons.append(f"swap={swap}: X-side degree {du} below |Y| = {need_u}")
            continue
        if dv is not None and dv < need_v:
            reasons.append(f"swap={swap}: Y-side degree {dv} below |X| = {need_v}")
            continue
        search = _anchored_search(masks, tree, *_bfs_order(tree, 0), 1 << min(tu))
        return _first_embedding(host, tree, alive, search)
    raise PreconditionError(
        "degree conditions fail in both orientations: " + "; ".join(reasons)
    )


def _anchored_search(
    masks: Sequence[int],
    tree: Tree,
    order: list[int],
    parent: list[int],
    roots: int,
) -> Iterator[Embedding]:
    """Complete backtracking over injective adjacency-preserving maps into
    the host whose neighbour masks are ``masks``, the root drawn from the
    vertex mask ``roots``.

    Tree vertices are assigned along ``order``, a BFS order, so a vertex's
    only tree neighbour placed before it is its parent, and its candidates
    are the unused neighbours of its parent's image: every map preserves
    adjacency.  A host vertex of lower degree than the tree vertex cannot
    take its neighbourhood, so it is skipped: the maps and their order are
    those of the search without this prune.
    """
    hm, tm = masks, tree.graph.masks
    m = tree.order
    image = [-1] * m

    def draws(t: int, reach: int) -> Iterator[int]:
        need = tm[t].bit_count()
        for h in mask_bits(reach):
            if hm[h].bit_count() >= need:
                yield h

    # One candidate iterator per placed level, lowest vertex first, on a
    # mask fixed when the level opens: while it is live only its ancestors
    # hold host vertices.  ``used`` holds the images of every level below
    # the top one.
    used = 0
    stack = [draws(order[0], roots)]
    while stack:
        h = next(stack[-1], None)
        if h is None:
            stack.pop()
            if stack:
                used ^= 1 << image[order[len(stack) - 1]]
            continue
        image[order[len(stack) - 1]] = h
        if len(stack) == m:
            yield Embedding.from_dict({tv: image[tv] for tv in range(m)})
        else:
            used |= 1 << h
            t = order[len(stack)]
            stack.append(draws(t, hm[image[parent[t]]] & ~used))


def _first_embedding(host: Graph, tree: Tree, alive: int, maps: Iterator[Embedding]) -> Embedding:
    """The first of ``maps`` (an :func:`_anchored_search` within the mask
    ``alive``), re-checked against the host and the mask."""
    found = next(maps, None)
    if found is None:
        raise SearchExhausted(
            "embedding search space exhausted: hypothesis violation or internal error"
        )
    problems = embedding_errors(host, tree, found)
    problems += [f"host vertex {h} is outside the mask" for h in found.image() if ~alive >> h & 1]
    if problems:
        raise TheoremViolation(f"search produced an invalid embedding: {problems[0]}")
    return found


def sparse_embed(host: Graph, tree: Tree, t: int = 2, *, alive: int | None = None) -> Embedding:
    """Embedding for hosts of girth at least 2t+1 via complete backtracking.

    Preconditions (t = 2): girth >= 5, minimum degree >= (m-1)/2, and
    maximum host degree at least the tree's maximum degree.  For t > 2 the
    generalized hypothesis additionally requires minimum degree at least
    the tree's maximum degree.  The search itself is complete regardless of
    the hypotheses, so exhaustion is reported distinctly from precondition
    failures.  ``alive`` is keyword-only, so that no mask is read as ``t``.
    """
    if t < 2:
        raise ValueError("girth parameter t must be at least 2")
    m = tree.order
    alive, masks = alive_masks(host, alive)
    stats = degree_stats(host, alive)
    if stats is None:
        raise PreconditionError("empty host graph")
    gv = girth(host, alive)
    if not girth_at_least(gv, 2 * t + 1):
        raise PreconditionError(f"girth {gv} is below 2t+1 = {2 * t + 1}")
    need = Fraction(m - 1, t)
    if t > 2:
        need = max(need, Fraction(tree.max_degree))
    if stats[0] < need:
        raise PreconditionError(f"minimum degree {stats[0]} is below {need}")
    if stats[1] < tree.max_degree:
        raise PreconditionError(
            f"maximum host degree {stats[1]} is below the tree's {tree.max_degree}"
        )
    tm = tree.graph.masks
    root = min(range(m), key=lambda v: (-tm[v].bit_count(), v))
    order, parent = _bfs_order(tree, root, key=lambda v: (-tm[v].bit_count(), v))
    search = _anchored_search(masks, tree, order, parent, alive)
    return _first_embedding(host, tree, alive, search)


#: Most host vertices the exhaustive embedding search accepts.
BRUTE_GUARD = 12


def iter_embeddings(host: Graph, tree: Tree, alive: int | None = None) -> Iterator[Embedding]:
    """All labeled embeddings of the tree into the host within the mask
    ``alive``, in deterministic order; GuardExceeded above ``BRUTE_GUARD``
    vertices in the mask."""
    alive, masks = alive_masks(host, alive)
    if alive.bit_count() > BRUTE_GUARD:
        raise GuardExceeded(f"exhaustive embedding guard: {alive.bit_count()} > {BRUTE_GUARD}")
    order, parent = _bfs_order(tree, 0)
    return _anchored_search(masks, tree, order, parent, alive)


def exhaustive_embed(host: Graph, tree: Tree, alive: int | None = None) -> Embedding | None:
    """First embedding by full backtracking within the mask ``alive``, or
    None when none exists; GuardExceeded above ``BRUTE_GUARD`` vertices in
    the mask."""
    return next(iter_embeddings(host, tree, alive), None)

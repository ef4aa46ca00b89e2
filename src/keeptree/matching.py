"""Bipartite maximum matching with Hall-condition certification.

Matchings are computed by deterministic augmenting-path search (vertices
scanned in ascending id order) so identical inputs give identical results.
When no matching saturates the left side, a Hall violator -- a left subset
S with |N(S) & right| < |S| -- is extracted from the set of left vertices
reachable by alternating paths from the unmatched ones, and re-checked
against the host graph before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import TheoremViolation
from .graphs import Graph, mask_bits, mask_neighbours, vertex_mask

__all__ = [
    "Matching",
    "HallViolator",
    "check_matching",
    "saturating_matching_or_violator",
    "find_tight_set",
]


@dataclass(frozen=True)
class Matching:
    """Left-right edge pairs with no shared vertices, sorted by left vertex."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def left_vertices(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.edges)

    def right_vertices(self) -> frozenset[int]:
        return frozenset(b for _, b in self.edges)


@dataclass(frozen=True)
class HallViolator:
    """A left subset whose right neighborhood is strictly smaller than it."""

    subset: frozenset[int]
    neighborhood_size: int


def check_matching(g: Graph, left: Iterable[int], right: Iterable[int], m: Matching) -> list[str]:
    """Structural problems of a matching (empty list when valid)."""
    ls, rs = frozenset(left), frozenset(right)
    problems: list[str] = []
    seen: set[int] = set()
    for a, b in m.edges:
        if a not in ls:
            problems.append(f"left endpoint {a} outside the left set")
        if b not in rs:
            problems.append(f"right endpoint {b} outside the right set")
        if not (0 <= a < g.n and 0 <= b < g.n) or not g.masks[a] >> b & 1:
            problems.append(f"({a}, {b}) is not an edge of the host graph")
        if a in seen or b in seen:
            problems.append(f"vertex reused by edge ({a}, {b})")
        seen.add(a)
        seen.add(b)
    return problems


def _check_sides(g: Graph, left: Iterable[int], right: Iterable[int]) -> tuple[int, int]:
    """The masks of the two sides, ids checked and the sides disjoint."""
    lm, rm = vertex_mask(g, left), vertex_mask(g, right)
    if lm & rm:
        raise ValueError(f"left and right sets overlap at {next(mask_bits(lm & rm))}")
    return lm, rm


def _max_matching(g: Graph, lm: int, rm: int) -> Matching:
    """Maximum-cardinality matching between the checked, disjoint side masks."""
    pair_left: dict[int, int] = {}
    pair_right: dict[int, int] = {}

    def try_augment(a: int, visited: set[int]) -> bool:
        for b in mask_bits(g.masks[a] & rm):
            if b in visited:
                continue
            visited.add(b)
            if b not in pair_right or try_augment(pair_right[b], visited):
                pair_left[a] = b
                pair_right[b] = a
                return True
        return False

    for a in mask_bits(lm):
        try_augment(a, set())
    m = Matching(tuple(sorted(pair_left.items())))
    problems = check_matching(g, mask_bits(lm), mask_bits(rm), m)
    if problems:
        raise TheoremViolation(f"matching failed its own invariants: {problems}")
    return m


def _partner_closure(
    g: Graph, rm: int, pair_right: dict[int, int], start: Iterable[int]
) -> set[int] | None:
    """The least left set holding ``start`` and closed under the partners of
    its right neighbours, or None once one of those neighbours is unmatched.
    A closure is a fixpoint, so the scan order never changes the answer."""
    subset = set(start)
    queue = list(subset)
    while queue:
        for b in mask_bits(g.masks[queue.pop()] & rm):
            partner = pair_right.get(b)
            if partner is None:
                return None
            if partner not in subset:
                subset.add(partner)
                queue.append(partner)
    return subset


def saturating_matching_or_violator(
    g: Graph, left: Iterable[int], right: Iterable[int]
) -> Matching | HallViolator:
    """Either a matching saturating the left side, or a Hall violator.

    Exactly one of the two exists.  The violator is the alternating-
    reachability closure of the unmatched left vertices under a maximum
    matching, and its neighborhood deficiency is recounted from the graph
    before returning.
    """
    lm, rm = _check_sides(g, left, right)
    m = _max_matching(g, lm, rm)
    if m.size == lm.bit_count():
        return m
    pair_right = {b: a for a, b in m.edges}
    subset = _partner_closure(g, rm, pair_right, set(mask_bits(lm)) - m.left_vertices())
    if subset is None:
        raise TheoremViolation("an unmatched right vertex is alternating-reachable")
    size = (mask_neighbours(g.masks, sum(1 << v for v in subset)) & rm).bit_count()
    if size >= len(subset):
        raise TheoremViolation(
            f"extracted violator {sorted(subset)} fails the recount: "
            f"|N(S)| = {size} >= |S| = {len(subset)}"
        )
    return HallViolator(frozenset(subset), size)


def find_tight_set(
    g: Graph, left: Iterable[int], right: Iterable[int], m: Matching
) -> frozenset[int] | None:
    """A nonempty left subset S with |N(S) & right| == |S|, or None.

    Requires ``m`` to be a maximum matching saturating the left side.  For
    each left vertex the minimal closed candidate is grown by following
    matched partners; hitting an unmatched right vertex proves no tight set
    contains the probe vertex.
    """
    lm, rm = _check_sides(g, left, right)
    pair_right = {b: a for a, b in m.edges}
    if m.left_vertices() != frozenset(mask_bits(lm)):
        raise ValueError("tight-set probing needs a matching saturating the left side")
    for probe in mask_bits(lm):
        subset = _partner_closure(g, rm, pair_right, {probe})
        if subset is not None:
            return frozenset(subset)
    return None

"""Connected-triple machinery: validation, enumeration, certified search
and Hall refinement of fragments.

A triple (s1, s2, f) with parameter p consists of two disjoint vertex sets
with |s1 u s2| <= 2p-1 and a fragment f inducing a nontrivial connected
component of the graph minus s1 u s2, such that every s1-vertex has at most
p neighbors inside f while s2 u f is (p+1)-connected inside the subgraph
induced by s1 u s2 u f.  Every search in this module certifies its output
with :func:`validate_triple` before returning, so search order and
heuristics can never affect soundness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .connectivity import (
    _SplitFlow,
    _weaker_pairs,
    find_pair_below,
    min_separator,
)
from .errors import (
    DEFAULT_ENUM_GUARD,
    GuardExceeded,
    PreconditionError,
    SearchExhausted,
    TheoremViolation,
    resolve_guard,
)
from .graphs import (
    Graph,
    check_vertex_set,
    component_containing,
    components_excluding,
    mask_bits,
    mask_component,
    neighborhood_of_set,
    vertex_mask,
)
from .matching import Matching, find_tight_set, saturating_matching_or_violator
from .report import CheckReport

__all__ = [
    "ConnectedTriple",
    "SaturatedTriple",
    "validate_triple",
    "enumerate_triples",
    "find_triple",
    "hall_refine",
]

#: Cap on fragment candidates explored by the cut-descent stage.
_FRAGMENT_BUDGET = 64
#: Cap on (subset, split) candidates admitted to the exhaustive stage.
_EXHAUSTIVE_BUDGET = 250_000


@dataclass(frozen=True)
class ConnectedTriple:
    """The triple (s1, s2, f) with its connectivity parameter p."""

    p: int
    s1: frozenset[int]
    s2: frozenset[int]
    f: frozenset[int]


@dataclass(frozen=True)
class SaturatedTriple:
    """A triple plus a matching between s1 and f saturating s1.

    ``f_m`` holds the matched endpoints inside f; the embedding host is the
    rest of the fragment, ``f_rest``.
    """

    triple: ConnectedTriple
    matching: Matching
    f_m: frozenset[int]

    @property
    def f_rest(self) -> frozenset[int]:
        return self.triple.f - self.f_m


def validate_triple(g: Graph, t: ConnectedTriple) -> CheckReport:
    """Machine-check every defining condition of a connected triple.

    Returns a per-condition report with the first witness of each failure:
    the offending s1-vertex for the fragment-degree condition, the
    low-connectivity pair for the connectivity condition, and so on.
    """
    if t.p < 1:
        raise ValueError("triple parameter p must be positive")
    s1, s2, f = (vertex_mask(g, w) for w in (t.s1, t.s2, t.f))
    p = t.p
    checks: list[tuple[str, bool, str]] = []

    overlap = s1 & s2
    shared = f"s1 and s2 share {list(mask_bits(overlap))}" if overlap else "ok"
    checks.append(("disjoint", not overlap, shared))
    union = s1 | s2
    size = union.bit_count()
    checks.append(
        (
            "size",
            size <= 2 * p - 1,
            f"|s1 u s2| = {size} exceeds 2p-1 = {2 * p - 1}" if size > 2 * p - 1 else "ok",
        )
    )

    degree_ok, degree_witness = True, "ok"
    for v in mask_bits(s1):
        load = (g.masks[v] & f).bit_count()
        if load > p:
            degree_ok = False
            degree_witness = f"vertex {v} has {load} > p = {p} neighbors in f"
            break
    checks.append(("s1-degree", degree_ok, degree_witness))

    component_ok, component_witness = True, "ok"
    if not f:
        component_ok, component_witness = False, "f is empty"
    elif f & union:
        component_ok = False
        component_witness = f"f meets s1 u s2 at {next(mask_bits(f & union))}"
    else:
        comp = mask_component(g.masks, next(mask_bits(f)), vertex_mask(g, None) & ~union)
        if comp != f:
            component_ok = False
            witness = next(mask_bits(comp ^ f))
            component_witness = (
                f"f is not a full component of g - (s1 u s2); differs at {witness}"
            )
    checks.append(("component", component_ok, component_witness))

    order = f.bit_count()
    checks.append(
        (
            "nontrivial",
            order >= 2,
            "ok" if order >= 2 else f"f has {order} < 2 vertices",
        )
    )

    conn_ok, conn_witness = True, "ok"
    if component_ok and not overlap:
        witness = find_pair_below(g, mask_bits(s2 | f), p + 1, within=mask_bits(union | f))
        if witness is not None:
            a, b, value = witness
            conn_ok = False
            conn_witness = (
                f"pair ({a}, {b}) has only {value} < p+1 = {p + 1} "
                f"disjoint paths inside the induced subgraph"
            )
    else:
        conn_ok, conn_witness = False, "skipped: fragment/overlap conditions failed"
    checks.append(("connectivity", conn_ok, conn_witness))
    return CheckReport(tuple(checks))


def enumerate_triples(
    g: Graph, p: int, limit: int | None = None, guard: int | None = None
) -> tuple[list[ConnectedTriple], bool]:
    """All valid triples for parameter p by exhaustive enumeration (oracle).

    Enumerates every disjoint (s1, s2) with |s1 u s2| <= 2p-1 and every
    nontrivial component of the remainder, keeping validator-approved
    candidates.  Returns (triples, truncated); the flag is set when a triple
    beyond the first ``limit`` exists.
    """
    if p < 1:
        raise ValueError("triple parameter p must be positive")
    if limit is not None and limit < 0:
        raise ValueError(f"triple limit must be nonnegative, got {limit}")
    bound = resolve_guard(guard, DEFAULT_ENUM_GUARD)
    if g.n > bound:
        raise GuardExceeded(f"triple enumeration guard: {g.n} > {bound}")
    out: list[ConnectedTriple] = []
    for cand in _valid_triples(g, p, range(g.n), frozenset(g.vertices())):
        if limit is not None and len(out) >= limit:
            return out, True
        out.append(cand)
    return out, False


def _valid_triples(
    g: Graph, p: int, universe: Sequence[int], within: frozenset[int]
) -> Iterator[ConnectedTriple]:
    """Validated triples with s1 u s2 drawn from ``universe`` and the fragment
    inside ``within``, by increasing |s1 u s2|, then subset, split and
    fragment order."""
    for size in range(min(2 * p - 1, len(universe)) + 1):
        for subset in combinations(universe, size):
            sset = frozenset(subset)
            fragments = [
                (frag, vertex_mask(g, frag))
                for frag in components_excluding(g, sset)
                if len(frag) >= 2 and frag <= within
            ]
            if not fragments:
                continue
            for mask in range(1 << size):
                s1 = frozenset(subset[i] for i in range(size) if mask >> i & 1)
                s2 = sset - s1
                for f, fmask in fragments:
                    if any((g.masks[v] & fmask).bit_count() > p for v in s1):
                        continue
                    cand = ConnectedTriple(p, s1, s2, f)
                    if validate_triple(g, cand).passed:
                        yield cand


def _boundary_splits(
    g: Graph, boundary: frozenset[int], fragment: frozenset[int], p: int
):
    """Candidate (s1, s2) partitions of a fragment boundary, best-first."""
    fmask = vertex_mask(g, fragment)
    eligible = frozenset(
        v for v in boundary if (g.masks[v] & fmask).bit_count() <= p
    )
    seen: set[frozenset[int]] = set()
    ordered: list[tuple[frozenset[int], frozenset[int]]] = [
        (frozenset(), boundary),
        (eligible, boundary - eligible),
    ]
    if len(eligible) <= 6:
        elig = sorted(eligible)
        for mask in range(1 << len(elig)):
            s1 = frozenset(elig[i] for i in range(len(elig)) if mask >> i & 1)
            ordered.append((s1, boundary - s1))
    for s1, s2 in ordered:
        if s1 in seen:
            continue
        seen.add(s1)
        yield s1, s2


def _descend_fragments(
    g: Graph, fragment: frozenset[int], p: int
) -> list[frozenset[int]]:
    """Sub-fragments obtained by cutting the fragment at a low-connectivity pair.

    Looks for a nonadjacent pair inside boundary u fragment with at most p
    disjoint paths, removes a minimum separator for it, and collects the
    nontrivial components that remain inside the fragment.
    """
    boundary = neighborhood_of_set(g, fragment)
    within = boundary | fragment
    net = _SplitFlow(g, vertex_mask(g, within))
    nonadjacent = (
        (a, b) for a, b in combinations(mask_bits(net.alive), 2) if not net.adj[a] >> b & 1
    )
    witness = next(_weaker_pairs(net, nonadjacent, p + 1), None)
    if witness is None:
        return []
    cut = min_separator(g, witness[0], witness[1], within=within)
    removed = boundary | cut
    frags = [
        c
        for c in components_excluding(g, removed)
        if len(c) >= 2 and c <= fragment
    ]
    frags.sort(key=lambda c: (-len(c), min(c)))
    return frags


def _exhaustive_stage(
    g: Graph, c: frozenset[int], p: int
) -> ConnectedTriple:
    """Iterative-deepening enumeration restricted to the component's closure."""
    universe = sorted(c | neighborhood_of_set(g, c))
    max_size = min(2 * p - 1, len(universe))
    total = sum(comb(len(universe), s) * (1 << s) for s in range(max_size + 1))
    if total > _EXHAUSTIVE_BUDGET:
        raise SearchExhausted(
            f"triple search exhausted at the desk-scale bound "
            f"({total} candidates over a {len(universe)}-vertex universe): "
            f"guard too tight or hypothesis violation"
        )
    found = next(_valid_triples(g, p, universe, c), None)
    if found is None:
        raise SearchExhausted(
            "no connected triple inside the restricted search space: "
            "hypothesis violation or guard too tight"
        )
    return found


def find_triple(
    g: Graph, s0: Iterable[int], c: Iterable[int], p: int
) -> ConnectedTriple:
    """A certified connected triple whose fragment lies inside component ``c``.

    Preconditions: |s0| <= 2p-1 and ``c`` a connected component of g - s0.
    The search is staged: fragment candidates grown from ``c`` by cutting at
    low-connectivity pairs are tried with a few boundary partitions first,
    then a bounded iterative-deepening enumeration over the component's
    closed neighborhood.  Every candidate is certified by
    :func:`validate_triple` before being returned.
    """
    if p < 1:
        raise ValueError("triple parameter p must be positive")
    s0s = check_vertex_set(g, s0)
    cs = check_vertex_set(g, c)
    if len(s0s) > 2 * p - 1:
        raise PreconditionError(f"|s0| = {len(s0s)} exceeds 2p-1 = {2 * p - 1}")
    if cs not in components_excluding(g, s0s):
        raise PreconditionError("c is not a connected component of g - s0")

    tried: set[frozenset[int]] = set()
    queue: deque[frozenset[int]] = deque([cs])
    budget = _FRAGMENT_BUDGET
    while queue and budget > 0:
        fragment = queue.popleft()
        if fragment in tried:
            continue
        tried.add(fragment)
        budget -= 1
        if len(fragment) >= 2:
            boundary = neighborhood_of_set(g, fragment)
            if len(boundary) <= 2 * p - 1:
                for s1, s2 in _boundary_splits(g, boundary, fragment, p):
                    cand = ConnectedTriple(p, s1, s2, fragment)
                    if validate_triple(g, cand).passed:
                        return cand
        for frag in _descend_fragments(g, fragment, p):
            if frag not in tried:
                queue.append(frag)
    return _exhaustive_stage(g, cs, p)


def hall_refine(
    g: Graph, s0: Iterable[int], c: Iterable[int], p: int
) -> SaturatedTriple:
    """A triple from :func:`find_triple` on (s0, c, p), shrunk until a
    matching between s1 and f saturates s1.

    The loop alternates maximum matching with deficiency probing: whenever
    some nonempty S inside s1 has at most |S| neighbors in f (a strict Hall
    violator or a tight set blocking the surplus claim), the fragment is cut
    down to f minus those neighbors and the triple search re-run behind the
    smaller exclusion set.  The fragment shrinks strictly whenever the
    neighborhood is nonempty, so the loop terminates.  Every triple it
    handles comes from :func:`find_triple`, which certifies it.
    """
    current = find_triple(g, s0, c, p)
    seen_states: set[tuple[frozenset[int], frozenset[int], frozenset[int]]] = set()
    while True:
        state = (current.s1, current.s2, current.f)
        if state in seen_states:
            raise TheoremViolation(
                "fragment refinement entered a cycle: hypothesis violation "
                "or invalid inputs"
            )
        seen_states.add(state)
        s1, s2, f = current.s1, current.s2, current.f
        result = saturating_matching_or_violator(g, s1, f)
        if isinstance(result, Matching):
            tight = find_tight_set(g, s1, f, result)
            if tight is None:
                f_m = result.right_vertices()
                if len(f) <= len(s1) or not (f - f_m):
                    raise TheoremViolation(
                        f"saturated fragment too small: |f| = {len(f)}, "
                        f"|s1| = {len(s1)}"
                    )
                return SaturatedTriple(current, result, f_m)
            subset = tight
        else:
            subset = result.subset
        shrink = neighborhood_of_set(g, subset) & f
        if len(shrink) > len(subset):
            raise TheoremViolation("refinement subset grew its fragment neighborhood")
        rest = f - shrink
        if not rest:
            raise TheoremViolation(
                "refinement consumed the whole fragment: triangle-freeness "
                "or the degree hypothesis is violated"
            )
        exclusion = (s1 - subset) | s2 | shrink
        if len(exclusion) > 2 * p - 1:
            raise TheoremViolation("refinement exclusion set outgrew 2p-1")
        comp = component_containing(g, min(rest), exclusion)
        if not comp <= rest:
            raise TheoremViolation(
                "refined fragment leaked outside the previous one"
            )
        current = find_triple(g, exclusion, comp, p)

"""Connected-triple machinery: validation, enumeration, certified search
and Hall refinement of fragments.

A triple (s1, s2, f) with parameter p consists of two disjoint vertex sets
with |s1 u s2| <= 2p-1 and a fragment f inducing a nontrivial connected
component of the graph minus s1 u s2, such that every s1-vertex has at most
p neighbors inside f while s2 u f is (p+1)-connected inside the subgraph
induced by s1 u s2 u f.  Every search in this module certifies its output
with :func:`validate_triple` before returning, so search order and
heuristics can never affect soundness.

The widest-split rule.  If some split of S = s1 u s2 is valid for f, so is
the widest, with every vertex of S that has at most p neighbors in f in
s1.  Moving such a vertex from s2 to s1 keeps S, f and G[S u f], so it only
drops the pairs through that vertex from the connectivity condition, and
every other condition holds as before.  So the search tries two splits per
fragment (the empty s1, then the widest), and enumeration skips every split
of an (S, f) whose widest split fails.  Private helpers take vertex masks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .connectivity import _SplitFlow, _min_cut, _weaker_pair, find_pair_below
from .errors import GuardExceeded, PreconditionError, SearchExhausted, TheoremViolation
from .graphs import Graph, mask_bits, mask_component, mask_components, mask_neighbours, vertex_mask
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
#: Most vertices triple enumeration draws s1 u s2 from: the whole graph for
#: ``enumerate_triples``, a component's closure for the exhaustive stage.
ENUM_GUARD = 10


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
    g: Graph, p: int, limit: int | None = None
) -> tuple[list[ConnectedTriple], bool]:
    """All valid triples for parameter p by exhaustive enumeration (oracle).

    Enumerates every disjoint (s1, s2) with |s1 u s2| <= 2p-1 and every
    nontrivial component of the remainder, keeping validator-approved
    candidates.  Returns (triples, truncated); the flag is set when a triple
    beyond the first ``limit`` exists.  GuardExceeded above ``ENUM_GUARD``
    vertices.
    """
    if p < 1:
        raise ValueError("triple parameter p must be positive")
    if limit is not None and limit < 0:
        raise ValueError(f"triple limit must be nonnegative, got {limit}")
    if g.n > ENUM_GUARD:
        raise GuardExceeded(f"triple enumeration guard: {g.n} > {ENUM_GUARD}")
    out: list[ConnectedTriple] = []
    for cand in _valid_triples(g, p, range(g.n), vertex_mask(g, None)):
        if limit is not None and len(out) >= limit:
            return out, True
        out.append(cand)
    return out, False


def _mask(vertices: Iterable[int]) -> int:
    """The mask of vertex ids already known to be in range."""
    return sum(1 << v for v in vertices)


def _valid_triples(
    g: Graph, p: int, universe: Sequence[int], within: int
) -> Iterator[ConnectedTriple]:
    """Validated triples with s1 u s2 drawn from ``universe`` and the fragment
    inside the mask ``within``, by increasing |s1 u s2|, then subset, split
    and fragment order.

    Each (subset, fragment) pair validates its widest split first and drops
    out when that fails, since then no split of it is valid.
    """
    everything = vertex_mask(g, None)
    for size in range(min(2 * p - 1, len(universe)) + 1):
        for subset in combinations(universe, size):
            sset = frozenset(subset)
            fragments = []
            for fmask in mask_components(g.masks, everything & ~_mask(subset)):
                if fmask.bit_count() < 2 or fmask & ~within:
                    continue
                f = frozenset(mask_bits(fmask))
                widest = frozenset(v for v in subset if (g.masks[v] & fmask).bit_count() <= p)
                if validate_triple(g, ConnectedTriple(p, widest, sset - widest, f)).passed:
                    fragments.append((f, widest))
            if not fragments:
                continue
            for mask in range(1 << size):
                s1 = frozenset(subset[i] for i in range(size) if mask >> i & 1)
                for f, widest in fragments:
                    if s1 <= widest:
                        cand = ConnectedTriple(p, s1, sset - s1, f)
                        if s1 == widest or validate_triple(g, cand).passed:
                            yield cand


def _boundary_splits(g: Graph, boundary: int, fragment: int, p: int) -> Iterator[tuple[int, int]]:
    """The (s1, s2) masks to try on a fragment's boundary: the empty s1, then
    the widest split, if it differs.  When neither is valid, no split is."""
    yield 0, boundary
    eligible = _mask(v for v in mask_bits(boundary) if (g.masks[v] & fragment).bit_count() <= p)
    if eligible:
        yield eligible, boundary & ~eligible


def _descend_fragments(g: Graph, fragment: int, boundary: int, p: int) -> list[int]:
    """Sub-fragments obtained by cutting the fragment at a low-connectivity pair.

    Looks for a nonadjacent pair inside boundary u fragment with at most p
    disjoint paths, reads a minimum separator for it off the same network,
    and returns the nontrivial components of the fragment minus that cut,
    largest first.
    """
    net = _SplitFlow(g, boundary | fragment)
    nonadjacent = (
        (a, b) for a, b in combinations(mask_bits(net.alive), 2) if not net.adj[a] >> b & 1
    )
    witness = _weaker_pair(net, nonadjacent, p + 1)
    if witness is None:
        return []
    cut = _min_cut(net, witness[0], witness[1])
    frags = [c for c in mask_components(g.masks, fragment & ~cut) if c.bit_count() >= 2]
    frags.sort(key=lambda c: (-c.bit_count(), c & -c))
    return frags


def _exhaustive_stage(g: Graph, c: int, p: int) -> ConnectedTriple:
    """Iterative-deepening enumeration restricted to the component's closure,
    under ``ENUM_GUARD``."""
    universe = list(mask_bits(c | mask_neighbours(g.masks, c)))
    if len(universe) > ENUM_GUARD:
        raise SearchExhausted(
            f"triple enumeration guard: {len(universe)}-vertex closure > {ENUM_GUARD}: "
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
    low-connectivity pairs are tried with two boundary splits first, then a
    bounded iterative-deepening enumeration over the component's closed
    neighborhood.  Every candidate is certified by :func:`validate_triple`
    before being returned.
    """
    if p < 1:
        raise ValueError("triple parameter p must be positive")
    s0m, cm = vertex_mask(g, s0), vertex_mask(g, c)
    if s0m.bit_count() > 2 * p - 1:
        raise PreconditionError(f"|s0| = {s0m.bit_count()} exceeds 2p-1 = {2 * p - 1}")
    alive = vertex_mask(g, None) & ~s0m
    if not cm or cm & s0m or mask_component(g.masks, (cm & -cm).bit_length() - 1, alive) != cm:
        raise PreconditionError("c is not a connected component of g - s0")
    return _search(g, cm, p)


def _search(g: Graph, c: int, p: int) -> ConnectedTriple:
    """:func:`find_triple`'s search inside the component mask ``c``."""
    tried: set[int] = set()
    queue: deque[int] = deque([c])
    budget = _FRAGMENT_BUDGET
    while queue and budget > 0:
        fragment = queue.popleft()
        if fragment in tried:
            continue
        tried.add(fragment)
        budget -= 1
        boundary = mask_neighbours(g.masks, fragment)
        if fragment.bit_count() >= 2 and boundary.bit_count() <= 2 * p - 1:
            f = frozenset(mask_bits(fragment))
            for s1, s2 in _boundary_splits(g, boundary, fragment, p):
                cand = ConnectedTriple(p, frozenset(mask_bits(s1)), frozenset(mask_bits(s2)), f)
                if validate_triple(g, cand).passed:
                    return cand
        for frag in _descend_fragments(g, fragment, boundary, p):
            if frag not in tried:
                queue.append(frag)
    return _exhaustive_stage(g, c, p)


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
    neighborhood is nonempty, so the loop terminates.  Only the first search
    enters through :func:`find_triple`, which checks (s0, c); the loop
    builds its exclusion set and component itself and runs the search on
    their masks.  Every triple is certified by :func:`validate_triple`.
    """
    current = find_triple(g, s0, c, p)
    everything = vertex_mask(g, None)
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
        fm, sub = _mask(f), _mask(subset)
        shrink = mask_neighbours(g.masks, sub) & fm
        if shrink.bit_count() > sub.bit_count():
            raise TheoremViolation("refinement subset grew its fragment neighborhood")
        rest = fm & ~shrink
        if not rest:
            raise TheoremViolation(
                "refinement consumed the whole fragment: triangle-freeness "
                "or the degree hypothesis is violated"
            )
        exclusion = _mask(s1 - subset) | _mask(s2) | shrink
        if exclusion.bit_count() > 2 * p - 1:
            raise TheoremViolation("refinement exclusion set outgrew 2p-1")
        comp = mask_component(g.masks, (rest & -rest).bit_length() - 1, everything & ~exclusion)
        if comp & ~rest:
            raise TheoremViolation("refined fragment leaked outside the previous one")
        current = _search(g, comp, p)

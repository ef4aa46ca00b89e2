"""Deterministic graph and tree family generators.

Randomized families draw from ``random.Random`` (CPython's Mersenne Twister,
MT19937), so identical (parameters, seed) pairs reproduce identical edge
lists on any platform.  Structured families carry the properties the test
suites rely on (complete bipartite connectivity, hypercube bipartiteness,
girth-5 incidence constructions) and those properties are re-verified at
runtime rather than assumed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import product

from .errors import GuardExceeded, ParseError
from .graphs import Graph, Tree, find_triangle, induced_subgraph, mask_bits
from .connectivity import connectivity_at_least

__all__ = [
    "FamilySpec",
    "parse_family_token",
    "gen_graph",
    "gen_tree",
    "enumerate_trees",
    "prufer_decode",
    "tree_canonical",
    "complete_bipartite",
    "cycle",
    "path_graph",
    "hypercube",
    "grid",
    "petersen",
    "heawood",
    "star",
    "spider",
    "double_broom",
    "projective_incidence",
    "hoffman_singleton",
    "random_graph",
    "random_bipartite",
    "random_triangle_free",
    "FAMILY_HELP",
]


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left side 0..a-1, right side a..a+b-1."""
    if a < 0 or b < 0:
        raise ValueError("side sizes must be non-negative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def hypercube(d: int) -> Graph:
    """Q_d: vertices are d-bit strings, edges flip one bit."""
    if d < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << d
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)]
    return Graph(n, edges)


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def heawood() -> Graph:
    """14-vertex cubic graph of girth 6: cycle plus (i, i+5) chords at even i."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph(14, edges)


def star(m: int) -> Graph:
    """K_{1,m-1} with center 0 (the single vertex for m = 1)."""
    if m < 1:
        raise ValueError("order must be positive")
    return Graph(m, [(0, i) for i in range(1, m)])


def spider(*legs: int) -> Graph:
    """Paths of the given lengths glued at a common center 0."""
    if not legs or any(length < 1 for length in legs):
        raise ValueError("spider needs positive leg lengths")
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def double_broom(path_len: int, a: int, b: int) -> Graph:
    """A path of ``path_len`` vertices with a leaves at one end, b at the other."""
    if path_len < 2 or a < 0 or b < 0:
        raise ValueError("double broom needs path length >= 2 and non-negative bundles")
    edges = [(i, i + 1) for i in range(path_len - 1)]
    nxt = path_len
    for _ in range(a):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b):
        edges.append((path_len - 1, nxt))
        nxt += 1
    return Graph(nxt, edges)


def _gf_points(q: int) -> list[tuple[int, ...]]:
    """Normalized nonzero triples over GF(q): first nonzero coordinate is 1."""
    pts = []
    for vec in product(range(q), repeat=3):
        if vec == (0, 0, 0):
            continue
        lead = next(x for x in vec if x != 0)
        if lead == 1:
            pts.append(vec)
    return pts


def projective_incidence(q: int) -> Graph:
    """Point-line incidence graph of the projective plane over GF(q).

    (q+1)-regular bipartite graph on 2(q^2+q+1) vertices with girth 6;
    q = 2 gives the 14-vertex cubic incidence graph.  Only prime q is
    supported since coordinates use arithmetic mod q.
    """
    if q < 2 or any(q % d == 0 for d in range(2, q)):
        raise ValueError("q must be a prime at least 2")
    pts = _gf_points(q)
    n = len(pts)
    edges = [
        (i, n + j)
        for i, point in enumerate(pts)
        for j, line in enumerate(pts)
        if sum(a * b for a, b in zip(point, line)) % q == 0
    ]
    return Graph(2 * n, edges)


def hoffman_singleton() -> Graph:
    """The 50-vertex 7-regular girth-5 graph, via the pentagon-pentagram gluing.

    Pentagons P_h (vertices 5h+j) join j to j+-1, pentagrams Q_i (vertices
    25+5i+j) join j to j+-2, and P_h vertex j is joined to Q_i vertex
    h*i + j mod 5.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph(50, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Uniform random graph: each pair becomes an edge with probability p."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 0 and probability in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_bipartite(a: int, b: int, min_degree: int, seed: int) -> Graph:
    """A balanced perturbation of K_{a,b}: random edges removed while every
    vertex keeps degree at least ``min_degree``.

    Attempts are retried with derived sub-seeds until the result also keeps
    connectivity at least min(2, min_degree); the construction with a fixed
    seed is fully deterministic.
    """
    if not all(isinstance(x, int) for x in (a, b, min_degree)):
        raise ValueError(f"a, b and min_degree must be integers, got {a!r}, {b!r}, {min_degree!r}")
    if min_degree > min(a, b):
        raise ValueError(f"min_degree {min_degree} exceeds the smaller side {min(a, b)}")
    floor = min(2, min_degree)
    for attempt in range(64):
        rng = random.Random((seed << 8) | attempt)
        degree = {v: (b if v < a else a) for v in range(a + b)}
        kept = []
        all_edges = [(i, a + j) for i in range(a) for j in range(b)]
        rng.shuffle(all_edges)
        for u, v in all_edges:
            if (
                rng.random() < 0.25
                and degree[u] > min_degree
                and degree[v] > min_degree
            ):
                degree[u] -= 1
                degree[v] -= 1
            else:
                kept.append((u, v))
        g = Graph(a + b, kept)
        if connectivity_at_least(g, floor):
            return g
    raise ValueError(
        f"random_bipartite({a}, {b}, {min_degree}, seed={seed}) could not meet "
        f"the connectivity floor"
    )


def random_triangle_free(n: int, p: float, seed: int) -> Graph:
    """Random graph made triangle-free by deleting one vertex per triangle.

    The result may have fewer than n vertices; triangle-freeness is
    re-verified before returning.
    """
    g = random_graph(n, p, seed)
    rng = random.Random(seed ^ 0x5EED)
    while True:
        tri = find_triangle(g)
        if tri is None:
            return g
        victim = rng.choice(sorted(tri))
        g, _ = induced_subgraph(g, (v for v in g.vertices() if v != victim))


def prufer_decode(seq: list[int], order: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree with the given sequence (length order-2)."""
    if order < 2:
        raise ValueError("decoding needs order >= 2")
    if len(seq) != order - 2:
        raise ValueError("sequence length must be order - 2")
    degree = [1] * order
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(order) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def gen_tree(m: int, seed: int) -> Tree:
    """Uniform random labeled tree of order m via a random decoding sequence."""
    if not isinstance(m, int):
        raise ValueError(f"tree order must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("tree order must be positive")
    if m == 1:
        return Tree(Graph(1))
    rng = random.Random(seed)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    return Tree(Graph(m, prufer_decode(seq, m)))


def _random_tree(m: int, seed: int) -> Graph:
    return gen_tree(m, seed).graph


def _tree_centers(t: Tree) -> list[int]:
    """The one or two middle vertices obtained by repeatedly peeling leaves."""
    masks = t.graph.masks
    alive = (1 << t.graph.n) - 1
    while alive.bit_count() > 2:
        alive &= ~sum(1 << v for v in mask_bits(alive) if (masks[v] & alive).bit_count() <= 1)
    return list(mask_bits(alive))


def tree_canonical(t: Tree) -> str:
    """Canonical string: two trees get equal strings iff they are isomorphic."""

    def encode(v: int, parent: int) -> str:
        parts = sorted(
            encode(w, v) for w in mask_bits(t.graph.masks[v]) if w != parent
        )
        return "(" + "".join(parts) + ")"

    return min(encode(c, -1) for c in _tree_centers(t))


#: Largest tree order ``enumerate_trees`` accepts.
TREE_GUARD = 7


def enumerate_trees(m: int) -> list[Tree]:
    """All trees of order m, one per isomorphism class.

    Enumerates every decoding sequence (all labeled trees) and keeps the
    first representative of each canonical form.  GuardExceeded above
    order ``TREE_GUARD``.
    """
    if m < 1:
        raise ValueError("tree order must be positive")
    if m > TREE_GUARD:
        raise GuardExceeded(f"tree enumeration guard: {m} > {TREE_GUARD}")
    if m == 1:
        return [Tree(Graph(1))]
    out: list[Tree] = []
    seen: set[str] = set()
    for seq in product(range(m), repeat=m - 2):
        t = Tree(Graph(m, prufer_decode(list(seq), m)))
        key = tree_canonical(t)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


@dataclass(frozen=True)
class FamilySpec:
    """A named family with positional parameters and a seed.

    The same (family, params, seed) triple always reproduces the same graph
    bit-for-bit.
    """

    family: str
    params: tuple = field(default_factory=tuple)
    seed: int = 0


_DETERMINISTIC = {
    "complete-bipartite": (complete_bipartite, "a b"),
    "cycle": (cycle, "n"),
    "path": (path_graph, "n"),
    "hypercube": (hypercube, "d"),
    "grid": (grid, "rows cols"),
    "petersen": (petersen, ""),
    "heawood": (heawood, ""),
    "star": (star, "m"),
    "spider": (spider, "leg-lengths..."),
    "double-broom": (double_broom, "path-len a b"),
    "projective-incidence": (projective_incidence, "q"),
    "hoffman-singleton": (hoffman_singleton, ""),
}

_SEEDED = {
    "random-graph": (random_graph, "n p seed"),
    "random-bipartite": (random_bipartite, "a b min-degree seed"),
    "random-triangle-free": (random_triangle_free, "n p seed"),
    "random-tree": (_random_tree, "m seed"),
}

FAMILY_HELP = {
    name: params for name, (_, params) in {**_DETERMINISTIC, **_SEEDED}.items()
}


def gen_graph(spec: FamilySpec) -> Graph:
    """Build the graph described by a family spec."""
    seeded = spec.family in _SEEDED
    table = _SEEDED if seeded else _DETERMINISTIC
    if spec.family not in table:
        raise ValueError(f"unknown family {spec.family!r}")
    builder, params = table[spec.family]
    try:
        return builder(*spec.params, **({"seed": spec.seed} if seeded else {}))
    except TypeError as exc:
        raise ValueError(f"{spec.family} takes parameters '{params}': {exc}") from exc


def _parse_number(token: str) -> int | float:
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError as exc:
            raise ParseError(f"expected a number, got {token!r}") from exc


def parse_family_token(text: str) -> FamilySpec:
    """Parse "family p1 p2 ..."; seeded families take the seed last."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty family token")
    family = tokens[0]
    values = [_parse_number(tok) for tok in tokens[1:]]
    if family in _SEEDED:
        if not values or not isinstance(values[-1], int):
            raise ParseError(f"{family} needs a trailing integer seed")
        return FamilySpec(family, tuple(values[:-1]), int(values[-1]))
    return FamilySpec(family, tuple(values))

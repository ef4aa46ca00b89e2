"""The certificate: case arithmetic, schema, parser and verifier.

A certificate records the run's case, beta and threshold, which the
verifier recomputes here from the tree.  This module is the checker's side
of the certifying boundary: it imports only the structural checks it
re-runs, never the producer (``pipeline``) or the flow around it, and
``tests/test_imports.py::test_certificate_import_boundary`` enforces that.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .connectivity import global_connectivity
from .embed import Embedding, embedding_errors
from .errors import ParseError
from .graphs import Graph, Tree
from .matching import Matching, check_matching
from .report import CheckReport
from .triples import ConnectedTriple, SaturatedTriple, validate_triple

__all__ = [
    "CASE_TRIANGLE_FREE",
    "CASE_BIPARTITE",
    "CASE_GIRTH",
    "CaseSelector",
    "parse_case",
    "compute_beta",
    "degree_threshold",
    "Certificate",
    "CERTIFICATE_SCHEMA",
    "verify_certificate",
]

CASE_TRIANGLE_FREE = "triangle-free"
CASE_BIPARTITE = "bipartite"
CASE_GIRTH = "girth"
_CASES = (CASE_TRIANGLE_FREE, CASE_BIPARTITE, CASE_GIRTH)

CERTIFICATE_SCHEMA = "keeptree-cert/1"
_FRACTION_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class CaseSelector:
    """Which structural hypothesis the run relies on.

    ``t`` only matters for the girth case (girth at least 2t+1); t = 2 is
    the plain girth-5 hypothesis.
    """

    case: str
    t: int = 2

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.case == CASE_GIRTH and self.t < 2:
            raise ValueError("girth case requires t >= 2")

    def label(self) -> str:
        if self.case == CASE_GIRTH:
            return f"girth:{self.t}"
        return self.case


def parse_case(token: str) -> CaseSelector | None:
    """Read a case token: None for ``auto``, else triangle-free, bipartite,
    girth (t = 2) or girth:t; anything else raises ValueError."""
    if token == "auto":
        return None
    case, colon, t = token.partition(":")
    if colon and case == CASE_GIRTH:
        return CaseSelector(CASE_GIRTH, int(t))
    return CaseSelector(token)


def compute_beta(sel: CaseSelector, tree: Tree) -> Fraction:
    """Case-dependent embedding-degree budget, kept exact.

    triangle-free: m-1; bipartite: max(|X|, |Y|); girth (parameter t):
    max((m-1)/t, max tree degree).
    """
    m = tree.order
    if sel.case == CASE_TRIANGLE_FREE:
        return Fraction(m - 1)
    if sel.case == CASE_BIPARTITE:
        return Fraction(max(len(tree.part_x), len(tree.part_y)))
    return max(Fraction(m - 1, sel.t), Fraction(tree.max_degree))


def degree_threshold(sel: CaseSelector, tree: Tree, k: int) -> Fraction:
    """Minimum-degree threshold 2k + 2m + beta - 3 for the selected case."""
    return 2 * k + 2 * tree.order + compute_beta(sel, tree) - 3


@dataclass(frozen=True)
class Certificate:
    """Audit trail of one pipeline run, serializable to canonical JSON.

    All vertex ids refer to the original host graph's numbering; the tree's
    edge list is embedded so verification needs only the host graph and the
    certificate.
    """

    k: int
    m: int
    p: int
    case: CaseSelector
    beta: Fraction
    threshold: Fraction
    tree_order: int
    tree_edges: tuple[tuple[int, int], ...]
    embedding: Embedding
    triple: SaturatedTriple
    connectivity_after_removal: int
    hypothesis: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        t = self.triple.triple
        return {
            "schema": CERTIFICATE_SCHEMA,
            "k": self.k,
            "m": self.m,
            "p": self.p,
            "case": {"case": self.case.case, "t": self.case.t},
            "beta": str(self.beta),
            "threshold": str(self.threshold),
            "tree": {
                "order": self.tree_order,
                "edges": [list(e) for e in self.tree_edges],
            },
            "tree_image": [list(pair) for pair in self.embedding.mapping],
            "triple": {
                "p": t.p,
                "s1": sorted(t.s1),
                "s2": sorted(t.s2),
                "f": sorted(t.f),
                "matching": [list(e) for e in self.triple.matching.edges],
                "f_m": sorted(self.triple.f_m),
            },
            "connectivity_after_removal": self.connectivity_after_removal,
            "hypothesis_report": self.hypothesis,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: Any) -> "Certificate":
        if not isinstance(data, dict):
            raise ParseError("malformed certificate: not a JSON object")
        try:
            if data["schema"] != CERTIFICATE_SCHEMA:
                raise ParseError(f"unsupported schema {data['schema']!r}")
            case = CaseSelector(data["case"]["case"], _int(data["case"]["t"]))
            tree_edges = tuple(
                (_int(u), _int(v)) for u, v in data["tree"]["edges"]
            )
            image = [(_int(a), _int(b)) for a, b in data["tree_image"]]
            _unique("tree_image", [a for a, _ in image])
            embedding = Embedding(tuple(sorted(image)))
            tr = data["triple"]
            s1, s2, f, f_m = (
                frozenset(_unique(name, [_int(v) for v in tr[name]]))
                for name in ("s1", "s2", "f", "f_m")
            )
            matching = Matching(
                tuple(sorted((_int(a), _int(b)) for a, b in tr["matching"]))
            )
            saturated = SaturatedTriple(ConnectedTriple(_int(tr["p"]), s1, s2, f), matching, f_m)
            if type(data["hypothesis_report"]) is not dict:
                raise ParseError("malformed certificate: hypothesis_report is not a JSON object")
            return Certificate(
                k=_int(data["k"]),
                m=_int(data["m"]),
                p=_int(data["p"]),
                case=case,
                beta=_fraction(data["beta"]),
                threshold=_fraction(data["threshold"]),
                tree_order=_int(data["tree"]["order"]),
                tree_edges=tree_edges,
                embedding=embedding,
                triple=saturated,
                connectivity_after_removal=_int(data["connectivity_after_removal"]),
                hypothesis=dict(data["hypothesis_report"]),
            )
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"malformed certificate: {exc!r}") from exc


def _int(value: Any) -> int:
    """A certificate id or count: a JSON integer, never a bool, float or string."""
    if type(value) is not int:
        raise ParseError(f"malformed certificate: {value!r} is not a JSON integer")
    return value


def _unique(field: str, entries: list) -> list:
    """A certificate list whose entries may not repeat: a repeat would give
    one claim a second byte form that verifies too, and a tree vertex listed
    twice in ``tree_image`` would be read as its last pair."""
    if len(set(entries)) != len(entries):
        raise ParseError(f"malformed certificate: {field} repeats an entry")
    return entries


def _fraction(value: Any) -> Fraction:
    """A certificate rational: the ``str(Fraction)`` text, checked before it
    is converted, since Fraction also takes exponents like "1e10000000"."""
    if type(value) is not str or not _FRACTION_TEXT.fullmatch(value):
        raise ParseError(f"malformed certificate: {value!r} is not a fraction 'a' or 'a/b'")
    return Fraction(value)


def verify_certificate(g: Graph, cert: Certificate | dict) -> CheckReport:
    """Re-check every certificate invariant from scratch, independent of how
    the certificate was produced.

    Malformed input (not a JSON object, wrong schema, missing fields)
    raises ParseError; all content-level problems are reported as failing
    checks with witnesses.

    ``fragment-surplus`` stays a named check, though it never fails alone:
    ``tree-order`` and ``removal-size`` make the image nonempty,
    ``image-in-fragment`` puts it inside f - f_m, and ``matching-valid``,
    ``matching-saturates`` and ``f-m-consistent`` give |f_m| = |s1|.

    ``case``, ``beta`` and ``threshold`` are checked only as arithmetic on
    the tree (``arith-threshold``), and ``hypothesis_report`` is only
    parsed: none of them is checked against the host.  So a certificate
    stays valid when its case is one the host does not meet.
    """
    if not isinstance(cert, Certificate):
        cert = Certificate.from_json_dict(cert)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "ok") -> None:
        checks.append((name, ok, detail if not ok else "ok"))

    add(
        "arith-p",
        cert.p == cert.k + cert.m - 1,
        f"p = {cert.p} differs from k+m-1 = {cert.k + cert.m - 1}",
    )

    tree: Tree | None = None
    if cert.tree_order > g.n:
        # Checked before the tree is built: building costs memory linear in
        # the claimed order.
        add("tree-shape", False, f"tree order {cert.tree_order} exceeds the host order {g.n}")
    else:
        try:
            tree = Tree.from_edges(cert.tree_order, cert.tree_edges)
            add("tree-shape", True)
        except ValueError as exc:
            add("tree-shape", False, str(exc))

    if tree is not None:
        beta = compute_beta(cert.case, tree)
        threshold = degree_threshold(cert.case, tree, cert.k)
        add(
            "arith-threshold",
            cert.beta == beta and cert.threshold == threshold,
            f"recomputed beta/threshold {beta}/{threshold} differ from "
            f"{cert.beta}/{cert.threshold}",
        )
        add(
            "tree-order",
            tree.order == cert.m,
            f"embedded tree order {tree.order} differs from m = {cert.m}",
        )
    else:
        add("arith-threshold", False, "skipped: tree malformed")
        add("tree-order", False, "skipped: tree malformed")

    t = cert.triple.triple
    try:
        triple_report = validate_triple(g, t)
        add(
            "triple-valid",
            triple_report.passed,
            triple_report.first_failure() or "ok",
        )
    except ValueError as exc:
        add("triple-valid", False, str(exc))

    add(
        "triple-p",
        t.p == cert.p,
        f"triple parameter {t.p} differs from certificate p = {cert.p}",
    )

    matching = cert.triple.matching
    problems = check_matching(g, t.s1, t.f, matching)
    add("matching-valid", not problems, problems[0] if problems else "ok")
    add(
        "matching-saturates",
        matching.left_vertices() == t.s1,
        f"matched left set {sorted(matching.left_vertices())} differs from "
        f"s1 = {sorted(t.s1)}",
    )
    add(
        "f-m-consistent",
        cert.triple.f_m == matching.right_vertices(),
        "f_m differs from the matched fragment endpoints",
    )
    add(
        "fragment-surplus",
        len(t.f) > len(t.s1) and bool(t.f - cert.triple.f_m),
        f"|f| = {len(t.f)} vs |s1| = {len(t.s1)}, unmatched rest "
        f"{len(t.f - cert.triple.f_m)}",
    )

    if tree is not None:
        problems = embedding_errors(g, tree, cert.embedding)
        add("embedding-valid", not problems, problems[0] if problems else "ok")
    else:
        add("embedding-valid", False, "skipped: tree malformed")

    image = cert.embedding.image()
    rest = t.f - cert.triple.f_m
    add(
        "image-in-fragment",
        image <= rest,
        f"image vertices {sorted(image - rest)} leave the unmatched fragment",
    )
    add(
        "removal-size",
        len(image) == cert.m == cert.p - cert.k + 1,
        f"|image| = {len(image)}, m = {cert.m}, p-k+1 = {cert.p - cert.k + 1}",
    )

    try:
        kappa_after = global_connectivity(g, image)
        add(
            "connectivity-after-removal",
            kappa_after == cert.connectivity_after_removal and kappa_after >= cert.k,
            f"recomputed connectivity {kappa_after} vs certified "
            f"{cert.connectivity_after_removal}, k = {cert.k}",
        )
    except ValueError as exc:
        add("connectivity-after-removal", False, str(exc))

    return CheckReport(tuple(checks))

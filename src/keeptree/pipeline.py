"""The connectivity-keeping-subtree pipeline.

Given a k-connected host meeting the case-dependent minimum-degree
threshold 2k + 2m + beta - 3, the pipeline finds a subtree isomorphic to a
given tree whose removal keeps the graph k-connected: it builds a connected
triple with parameter p = k + m - 1, refines it until a matching saturates
s1, embeds the tree into the unmatched part of the fragment with the
case-matched embedder, and re-checks connectivity of the remainder
directly.  Every run emits a certificate that the independent verifier in
``certificate`` re-checks from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .certificate import (
    CASE_BIPARTITE, CASE_GIRTH, CASE_TRIANGLE_FREE, CaseSelector, Certificate, compute_beta,
    degree_threshold, verify_certificate
)
from .connectivity import connectivity_at_least, global_connectivity
from .embed import Embedding, bipartite_embed, exhaustive_embed, greedy_embed, sparse_embed
from .errors import (
    GuardExceeded, HypothesisFailure, PreconditionError, SearchExhausted, TheoremViolation
)
from .graphs import (
    Graph, Tree, bipartition, components, degree_stats, find_triangle, girth, girth_at_least,
    odd_cycle, vertex_mask
)
from .triples import hall_refine

__all__ = [
    "HypothesisReport",
    "check_hypotheses",
    "find_keeping_tree",
]


@dataclass(frozen=True)
class HypothesisReport:
    """Structured record of the hypothesis checks for one run."""

    k: int
    m: int
    sel: CaseSelector
    delta: int | None
    girth_value: int | None
    triangle_free: bool
    bipartition_sizes: tuple[int, int] | None
    beta: Fraction
    threshold: Fraction
    kappa_ok: bool
    structural_ok: bool
    degree_ok: bool
    passed: bool
    failures: tuple[str, ...]

    def as_json_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "m": self.m,
            "case": self.sel.case,
            "t": self.sel.t,
            "delta": self.delta,
            "girth": self.girth_value,
            "triangle_free": self.triangle_free,
            "bipartition_sizes": list(self.bipartition_sizes)
            if self.bipartition_sizes is not None
            else None,
            "beta": str(self.beta),
            "threshold": str(self.threshold),
            "kappa_ok": self.kappa_ok,
            "structural_ok": self.structural_ok,
            "degree_ok": self.degree_ok,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def check_hypotheses(
    g: Graph,
    tree: Tree,
    k: int,
    sel: CaseSelector | None = None,
) -> HypothesisReport:
    """Evaluate connectivity, the structural case condition, the degree
    threshold and n >= k + m + 1, reporting each failure with a witness.

    Triangle-freeness is read off the girth (girth != 3), which on a
    bipartite host ends at the first 4-cycle.  With no ``sel`` the case is
    picked from the same bipartition and girth: bipartite (typically the
    smallest threshold), else the girth case with the largest t the girth
    allows, else plain triangle-free.
    """
    if k < 1:
        raise ValueError("k must be positive")
    failures: list[str] = []
    stats = degree_stats(g)
    delta = stats[0] if stats else None
    parts = bipartition(g)
    gv = girth(g, floor=3 if parts is None else 4)
    tf = gv != 3
    sizes = (len(parts[0]), len(parts[1])) if parts is not None else None
    if sel is None:
        if parts is not None:
            sel = CaseSelector(CASE_BIPARTITE)
        elif girth_at_least(gv, 5):
            # A host that is not bipartite has a cycle, so gv is a number.
            sel = CaseSelector(CASE_GIRTH, (gv - 1) // 2)
        else:
            sel = CaseSelector(CASE_TRIANGLE_FREE)
    beta = compute_beta(sel, tree)
    threshold = degree_threshold(sel, tree, k)

    kappa_ok = connectivity_at_least(g, k)
    if not kappa_ok:
        failures.append(f"connectivity below k = {k}")

    if sel.case == CASE_TRIANGLE_FREE:
        structural_ok = tf
        if not structural_ok:
            failures.append(f"triangle at {find_triangle(g)}")
    elif sel.case == CASE_BIPARTITE:
        structural_ok = parts is not None
        if not structural_ok:
            failures.append(f"odd cycle {odd_cycle(g)}")
    else:
        structural_ok = girth_at_least(gv, 2 * sel.t + 1)
        if not structural_ok:
            failures.append(f"girth {gv} below 2t+1 = {2 * sel.t + 1}")

    if delta is None:
        degree_ok = False
        failures.append("empty graph has no minimum degree")
    else:
        degree_ok = Fraction(delta) >= threshold
        if not degree_ok:
            offender = min(v for v, nbrs in enumerate(g.masks) if nbrs.bit_count() == delta)
            failures.append(
                f"minimum degree {delta} (vertex {offender}) below threshold {threshold}"
            )

    # A k-connected G - V(T') has n - m > k vertices.  The case thresholds
    # force this but for K2 with k = m = 1 in the triangle-free and girth cases.
    order_ok = g.n >= k + tree.order + 1
    if not order_ok:
        failures.append(f"n = {g.n} below k + m + 1 = {k + tree.order + 1}")

    passed = kappa_ok and structural_ok and degree_ok and order_ok
    return HypothesisReport(
        k=k,
        m=tree.order,
        sel=sel,
        delta=delta,
        girth_value=gv,
        triangle_free=tf,
        bipartition_sizes=sizes,
        beta=beta,
        threshold=threshold,
        kappa_ok=kappa_ok,
        structural_ok=structural_ok,
        degree_ok=degree_ok,
        passed=passed,
        failures=tuple(failures),
    )


def _case_embed(g: Graph, tree: Tree, sel: CaseSelector, alive: int) -> Embedding:
    """Embed the tree within the mask ``alive`` by the case-matched embedder."""
    if sel.case == CASE_TRIANGLE_FREE:
        return greedy_embed(g, tree, alive)
    if sel.case == CASE_BIPARTITE:
        return bipartite_embed(g, tree, alive)
    return sparse_embed(g, tree, sel.t, alive=alive)


def find_keeping_tree(
    g: Graph,
    tree: Tree,
    k: int,
    sel: CaseSelector | None = None,
    force: bool = False,
) -> Certificate:
    """Find a subtree isomorphic to ``tree`` whose removal keeps the graph
    k-connected, and certify the whole run.

    Unless ``force`` is set, the hypothesis report must pass.  Forced runs
    proceed best-effort below the thresholds and report which stage failed;
    certificates they emit are verified all the same.  The one-vertex tree
    goes through the uniform path (p = k, single-vertex embedding).  Every
    ``HypothesisFailure``, ``SearchExhausted`` or ``TheoremViolation`` it
    raises carries the run's hypothesis report as ``report``.
    """
    report = check_hypotheses(g, tree, k, sel)
    try:
        if not report.passed and not force:
            raise HypothesisFailure(f"hypotheses fail: {'; '.join(report.failures)}")
        return _certified_run(g, tree, k, report, force)
    except (HypothesisFailure, SearchExhausted, TheoremViolation) as exc:
        exc.report = report
        raise


def _certified_run(
    g: Graph,
    tree: Tree,
    k: int,
    report: HypothesisReport,
    force: bool,
) -> Certificate:
    """The stages past the gate: triple, refinement, embedding, final check
    and self-verification, in the case the gate's report names."""
    m = tree.order
    p = k + m - 1
    comps = components(g)
    if not comps:
        raise SearchExhausted("triple stage: empty graph")
    start = max(comps, key=lambda comp: (len(comp), -min(comp)))
    # A passed gate with m >= 2 gives delta >= threshold >= 2p and no
    # triangle, the theorem's conditions for this stage; forced runs and
    # one-vertex trees run it best-effort.
    try:
        saturated = hall_refine(g, frozenset(), start, p)
    except SearchExhausted as exc:
        raise SearchExhausted(f"triple stage: {exc}") from exc
    except TheoremViolation as exc:
        # The refinement's guarantees rest on the hypotheses a forced run
        # may fail, so there a violation only means the search gave out.
        if not force:
            raise
        raise SearchExhausted(f"triple stage (forced): {exc}") from exc

    beta = report.beta
    alive = vertex_mask(g, saturated.f_rest)
    host_delta = degree_stats(g, alive)[0]
    if host_delta < beta and not force:
        raise TheoremViolation(
            f"fragment minimum degree {host_delta} fell below beta = {beta} "
            f"despite passing hypotheses"
        )
    try:
        emb = _case_embed(g, tree, report.sel, alive)
    except (PreconditionError, SearchExhausted) as exc:
        if not force:
            raise TheoremViolation(
                f"embedding stage failed despite passing hypotheses: {exc}"
            ) from exc
        try:
            emb = exhaustive_embed(g, tree, alive)
        except GuardExceeded:
            emb = None
        if emb is None:
            raise SearchExhausted(f"embedding stage (forced): {exc}") from exc
    image = emb.image()
    kappa_after = global_connectivity(g, image)
    if kappa_after < k:
        message = f"removal drops connectivity to {kappa_after} < k = {k}"
        if force:
            raise SearchExhausted(f"final check (forced): {message}")
        raise TheoremViolation(message)
    cert = Certificate(
        k=k,
        m=m,
        p=p,
        case=report.sel,
        beta=beta,
        threshold=report.threshold,
        tree_order=tree.order,
        tree_edges=tuple(tree.graph.edges()),
        embedding=emb,
        triple=saturated,
        connectivity_after_removal=kappa_after,
        hypothesis=report.as_json_dict(),
    )
    verification = verify_certificate(g, cert)
    if not verification.passed:
        raise TheoremViolation(
            f"self-verification failed: {verification.first_failure()}"
        )
    return cert

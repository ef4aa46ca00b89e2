"""Instance corpora, the exhaustive removal oracle, and the suite runner.

The suite runner drives the full pipeline per instance, cross-checks small
instances against the brute-force oracle, and merges results
deterministically by instance id so identical seeds give byte-identical
reports.  Wall-clock timings are collected on the side and never enter the
canonical report unless explicitly requested.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Iterable

from .certificate import (
    CASE_BIPARTITE,
    CASE_GIRTH,
    CASE_TRIANGLE_FREE,
    CaseSelector,
    degree_threshold,
    parse_case,
    verify_certificate,
)
from .connectivity import is_k_connected_after_removal
from .embed import Embedding, iter_embeddings
from .errors import (
    GuardExceeded,
    HypothesisFailure,
    ParseError,
    SearchExhausted,
    TheoremViolation,
)
from .families import (
    complete_bipartite,
    enumerate_trees,
    gen_graph,
    hoffman_singleton,
    parse_family_token,
    petersen,
    projective_incidence,
    random_bipartite,
)
from .graphs import Graph, Tree
from .pipeline import find_keeping_tree

__all__ = [
    "SuiteInstance",
    "SuiteReport",
    "oracle_exists",
    "run_suite",
    "corpus_triangle_free",
    "corpus_bipartite",
    "corpus_girth",
    "corpus_force",
    "full_suite",
    "parse_manifest",
]

SUITE_SCHEMA = "keeptree-suite/1"

CSV_COLUMNS = (
    "instance_id",
    "family",
    "case",
    "n",
    "m",
    "k",
    "delta",
    "girth",
    "beta",
    "threshold",
    "hypothesis_pass",
    "status",
    "verified",
    "oracle",
    "f_size",
    "s1_size",
    "s2_size",
    "removed_size",
    "kappa_after",
)


def oracle_exists(g: Graph, tree: Tree, k: int) -> Embedding | None:
    """Brute-force witness: the first labeled embedding whose removal keeps
    the graph k-connected, or None when none exists; GuardExceeded above
    ``embed.BRUTE_GUARD`` host vertices."""
    if k < 1:
        raise ValueError("k must be positive")
    for emb in iter_embeddings(g, tree):
        if is_k_connected_after_removal(g, emb.image(), k):
            return emb
    return None


@dataclass(frozen=True)
class SuiteInstance:
    """One pipeline run: a host graph, a target tree, k, and the case."""

    instance_id: str
    family: str
    graph: Graph
    tree: Tree
    k: int
    sel: CaseSelector | None = None
    force: bool = False


def _girth_text(value: int | None) -> str:
    return "acyclic" if value is None else str(value)


def _hypothesis_fields(h: dict[str, Any]) -> dict[str, Any]:
    """The record columns taken from a hypothesis report's JSON form."""
    return {
        "case": CaseSelector(h["case"], h["t"]).label(),
        "delta": h["delta"],
        "girth": _girth_text(h["girth"]),
        "beta": h["beta"],
        "threshold": h["threshold"],
        "hypothesis_pass": h["passed"],
    }


#: The record columns a run fills in; a fault leaves them empty.
_RESULT_COLUMNS = (
    "case", "delta", "girth", "beta", "threshold", "hypothesis_pass",
    "verified", "f_size", "s1_size", "s2_size", "removed_size", "kappa_after",
)


def _record_fault(record: dict[str, Any], exc: Exception) -> None:
    """Mark the record failed-internal: an exception outside the pipeline's
    own errors is a fault of this instance alone."""
    record.update(dict.fromkeys(_RESULT_COLUMNS))
    record["status"] = "failed-internal"
    record["detail"] = f"{type(exc).__name__}: {exc}"


def _run_one(inst: SuiteInstance) -> tuple[dict[str, Any], str | None, float]:
    start = time.perf_counter()
    g, tree = inst.graph, inst.tree
    record: dict[str, Any] = {
        "instance_id": inst.instance_id,
        "family": inst.family,
        "n": g.n,
        "m": tree.order,
        "k": inst.k,
        "force": inst.force,
        "detail": "",
        **dict.fromkeys(_RESULT_COLUMNS),
    }
    cert_json: str | None = None
    try:
        cert = find_keeping_tree(g, tree, inst.k, inst.sel, force=inst.force)
        verification = verify_certificate(g, cert)
        record.update(_hypothesis_fields(cert.hypothesis))
        record["status"] = "certified"
        record["verified"] = verification.passed
        t = cert.triple.triple
        record["f_size"] = len(t.f)
        record["s1_size"] = len(t.s1)
        record["s2_size"] = len(t.s2)
        record["removed_size"] = len(cert.embedding.image())
        record["kappa_after"] = cert.connectivity_after_removal
        cert_json = cert.canonical_json()
    except (HypothesisFailure, SearchExhausted, TheoremViolation) as exc:
        # find_keeping_tree attaches its hypothesis report to each of these.
        record.update(_hypothesis_fields(exc.report.as_json_dict()))
        if isinstance(exc, HypothesisFailure):
            record["status"] = "skipped-hypothesis"
            record["detail"] = "; ".join(exc.report.failures)
        else:
            record["status"] = (
                "failed-search" if isinstance(exc, SearchExhausted) else "failed-violation"
            )
            record["detail"] = str(exc)
    except Exception as exc:
        _record_fault(record, exc)

    try:
        found = oracle_exists(g, tree, inst.k)
        record["oracle"] = "yes" if found is not None else "none"
    except GuardExceeded:
        record["oracle"] = "guard"
    except Exception as exc:
        _record_fault(record, exc)
        record["oracle"] = "error"
        cert_json = None
    record["dominance_violation"] = (
        record["status"] == "certified" and record["oracle"] == "none"
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return record, cert_json, elapsed_ms


@dataclass(frozen=True)
class SuiteReport:
    """Per-instance records plus aggregate counts, merged by instance id.

    ``timings`` is kept out of the canonical serialization so identical
    seeds give byte-identical reports; pass ``with_timing=True`` to include
    it explicitly.
    """

    records: tuple[dict[str, Any], ...]
    aggregate: dict[str, Any]
    certificates: dict[str, str]
    timings: dict[str, float]

    def to_json(self, with_timing: bool = False) -> str:
        records = []
        for rec in self.records:
            rec = dict(rec)
            if with_timing:
                rec["runtime_ms"] = round(self.timings[rec["instance_id"]], 3)
            records.append(rec)
        payload = {
            "schema": SUITE_SCHEMA,
            "aggregate": self.aggregate,
            "instances": records,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self, with_timing: bool = False) -> str:
        columns = CSV_COLUMNS + (("runtime_ms",) if with_timing else ())
        lines = [",".join(columns)]
        for rec in self.records:
            row = []
            for col in columns:
                if col == "runtime_ms":
                    value = round(self.timings[rec["instance_id"]], 3)
                else:
                    value = rec.get(col)
                row.append("" if value is None else str(value))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run_suite(
    instances: Iterable[SuiteInstance],
    jobs: int = 1,
) -> SuiteReport:
    """Run the pipeline over a corpus and merge results by instance id.

    Instances are independent; with ``jobs > 1`` they run in a process pool
    and the merged report is identical to a sequential run.  Duplicate ids,
    an instance with k < 1 and ``jobs < 1`` raise ValueError before any
    instance runs.
    """
    insts = list(instances)
    ids = [inst.instance_id for inst in insts]
    if len(set(ids)) != len(ids):
        raise ValueError("instance ids must be unique")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for inst in insts:
        if inst.k < 1:
            raise ValueError(f"instance {inst.instance_id}: k must be positive, got {inst.k}")
    if jobs > 1 and len(insts) > 1:
        # Imported here: a sequential run never loads the process pool.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts every worker up front: no more than one per instance.
        with ProcessPoolExecutor(max_workers=min(jobs, len(insts))) as pool:
            results = list(pool.map(_run_one, insts))
    else:
        results = list(map(_run_one, insts))
    triples = sorted(
        zip(ids, results), key=lambda pair: pair[0]
    )
    records = tuple(rec for _, (rec, _, _) in triples)
    certificates = {
        instance_id: cert
        for instance_id, (_, cert, _) in triples
        if cert is not None
    }
    timings = {instance_id: ms for instance_id, (_, _, ms) in triples}
    statuses = [rec["status"] for rec in records]
    aggregate = {
        "total": len(records),
        "certified": statuses.count("certified"),
        "verified": sum(1 for rec in records if rec["verified"]),
        "skipped_hypothesis": statuses.count("skipped-hypothesis"),
        "failed": sum(1 for s in statuses if s.startswith("failed")),
        "oracle_checked": sum(1 for rec in records if rec["oracle"] in ("yes", "none")),
        "dominance_violations": sum(
            1 for rec in records if rec["dominance_violation"]
        ),
    }
    return SuiteReport(records, aggregate, certificates, timings)


# ---------------------------------------------------------------------------
# Corpora for the acceptance suites.


def _nondegenerate(d: int, k: int, m: int) -> bool:
    # A k-connected remainder needs at least k+1 vertices after removing m.
    return 2 * d >= k + m + 1


#: Seeded random hosts per (k, tree) cell of each theorem corpus.
_RANDOM_PER_CELL = 6

#: Instances in the forced corpus.
_FORCED_COUNT = 50


def _theorem_corpus(case: str, prefix: str, base_seed: int, stride: int) -> list[SuiteInstance]:
    """Hosts at the case's degree threshold for k in {1, 2} and every tree
    class of order 1..4: the pinned K_{d,d} plus ``_RANDOM_PER_CELL`` seeded
    balanced perturbations of K_{d+1,d+1} with minimum degree d."""
    sel = CaseSelector(case)
    out: list[SuiteInstance] = []
    for k in (1, 2):
        for m in range(1, 5):
            for ti, tree in enumerate(enumerate_trees(m)):
                d = math.ceil(degree_threshold(sel, tree, k))
                if _nondegenerate(d, k, m):
                    out.append(
                        SuiteInstance(
                            f"{prefix}-kdd-k{k}-m{m}-t{ti}",
                            "complete-bipartite",
                            complete_bipartite(d, d),
                            tree,
                            k,
                            sel,
                        )
                    )
                # One-vertex trees admit minimum degree 2k-1, below the
                # guaranteed triple regime 2k; random hosts get the bump.
                target = max(d, 2 * k) if m == 1 else d
                for r in range(_RANDOM_PER_CELL):
                    seed = base_seed + stride * (k * 100 + m * 10 + ti) + r
                    g = random_bipartite(target + 1, target + 1, target, seed)
                    out.append(
                        SuiteInstance(
                            f"{prefix}-rand-k{k}-m{m}-t{ti}-s{r}",
                            "random-bipartite",
                            g,
                            tree,
                            k,
                            sel,
                        )
                    )
    return out


def corpus_triangle_free() -> list[SuiteInstance]:
    """Hosts meeting the triangle-free threshold 2k+3m-4 for k in {1,2} and
    every tree class of order 1..4: the pinned complete bipartite graphs
    plus seeded balanced perturbations of them."""
    return _theorem_corpus(CASE_TRIANGLE_FREE, "tf", 52_01, 97)


def corpus_bipartite() -> list[SuiteInstance]:
    """Hosts meeting the bipartite threshold 2k+2m+max(|X|,|Y|)-3 (strictly
    below the triangle-free one), same shape as the triangle-free corpus."""
    return _theorem_corpus(CASE_BIPARTITE, "bip", 52_02, 89)


#: Girth-5 hosts per tree order: minimum degree 4 and 7 at 50 vertices or
#: fewer only exist via incidence-style constructions.
_GIRTH_HOSTS = {
    1: ("petersen", petersen),
    2: ("projective-incidence", lambda: projective_incidence(3)),
    3: ("hoffman-singleton", hoffman_singleton),
}


def corpus_girth() -> list[SuiteInstance]:
    """Girth-5 instances for k = 1 and every tree class of order 1..3, one
    host per order.  Each host meets its girth threshold; one that did not
    would show in the suite report as ``skipped-hypothesis``."""
    sel = CaseSelector(CASE_GIRTH, 2)
    out: list[SuiteInstance] = []
    for m, (family, builder) in _GIRTH_HOSTS.items():
        g = builder()
        for ti, tree in enumerate(enumerate_trees(m)):
            out.append(SuiteInstance(f"g5-{family}-k1-m{m}-t{ti}", family, g, tree, 1, sel))
    return out


def corpus_force() -> list[SuiteInstance]:
    """Seeded below-threshold instances for forced best-effort runs.

    Hosts sit one below the triangle-free degree threshold; one-vertex
    trees are excluded because their below-threshold hosts degenerate.
    """
    sel = CaseSelector(CASE_TRIANGLE_FREE)
    out: list[SuiteInstance] = []
    cells = [
        (k, m, ti, tree)
        for k in (1, 2)
        for m in (2, 3, 4)
        for ti, tree in enumerate(enumerate_trees(m))
    ]
    i = 0
    while len(out) < _FORCED_COUNT:
        k, m, ti, tree = cells[i % len(cells)]
        d = math.ceil(degree_threshold(sel, tree, k)) - 1
        if i < len(cells):
            g = complete_bipartite(d, d)
            family = "complete-bipartite"
        else:
            g = random_bipartite(d + 1, d + 1, d, 52_03 + i)
            family = "random-bipartite"
        out.append(
            SuiteInstance(
                f"force-{i:03d}-k{k}-m{m}-t{ti}",
                family,
                g,
                tree,
                k,
                sel,
                force=True,
            )
        )
        i += 1
    return out


def full_suite() -> list[SuiteInstance]:
    """The canonical corpus: both theorem suites, the girth smoke cells, and
    the forced below-threshold probes."""
    return corpus_triangle_free() + corpus_bipartite() + corpus_girth() + corpus_force()


# ---------------------------------------------------------------------------
# Manifest parsing: one instance per line "family params seed ; tree ; k ; case".


def parse_manifest(text: str) -> list[SuiteInstance]:
    """Parse a corpus manifest into suite instances.

    Line format: ``family params [seed] ; tree-family params [seed] ; k ;
    case`` where case is auto, triangle-free, bipartite, or girth:t.
    """
    instances = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 ';'-separated fields")
        try:
            graph_spec = parse_family_token(parts[0])
            tree_spec = parse_family_token(parts[1])
            g = gen_graph(graph_spec)
            tree = Tree(gen_graph(tree_spec))
            k = int(parts[2])
            if k < 1:
                raise ParseError(f"k = {k} must be at least 1")
            sel = parse_case(parts[3])
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        instances.append(
            SuiteInstance(
                f"{lineno:04d}-{graph_spec.family}",
                graph_spec.family,
                g,
                tree,
                k,
                sel,
            )
        )
    return instances

"""Span tracer that wraps keeptree's public functions from outside the package.

Every function named in ``TRACED`` is replaced, under every module-global
name it is bound to in the loaded ``keeptree`` modules (the package uses
``from .x import y``, so one function has several names), by a wrapper that
records a span: name, start, end, parent span and instance id.  Spans are
kept in memory and written out when the run ends.  Nothing in the package is
edited; uninstalling restores the original bindings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: The traced layers: module -> public functions whose spans are recorded.
TRACED = {
    "pipeline": ("find_keeping_tree", "verify_certificate", "check_hypotheses"),
    "graphs": ("girth",),
    "connectivity": (
        "global_connectivity",
        "connectivity_at_least",
        "find_pair_below",
        "local_connectivity_value",
        "min_separator",
    ),
    "triples": ("find_triple", "hall_refine", "validate_triple"),
    "matching": ("saturating_matching_or_violator", "find_tight_set"),
    "embed": ("greedy_embed", "bipartite_embed", "sparse_embed", "exhaustive_embed"),
    "harness": ("oracle_exists",),
}

#: Per-layer metrics in output order: (metric name, unit).  Every time
#: metric is non-zero on every workload.  A function that some workload never
#: calls reports only its calls; its time shows in its caller's: the
#: cut-descent flows (``local_connectivity_value``, ``min_separator``) in
#: ``triples.find_triple.s``, the four embedders together in ``embed.s``.
LAYER_METRICS = (
    ("connectivity.global_connectivity.find_s", "s"),
    ("connectivity.global_connectivity.verify_s", "s"),
    ("connectivity.global_connectivity.calls", "count"),
    ("triples.validate_triple.search_s", "s"),
    ("triples.validate_triple.verify_s", "s"),
    ("triples.validate_triple.calls", "count"),
    ("triples.validate_triple.passed_frac", "ratio"),
    ("connectivity.find_pair_below.s", "s"),
    ("connectivity.find_pair_below.calls", "count"),
    ("triples.find_triple.s", "s"),
    ("triples.find_triple.self_s", "s"),
    ("triples.find_triple.calls", "count"),
    ("triples.hall_refine.self_s", "s"),
    ("triples.hall_refine.calls", "count"),
    ("connectivity.local_connectivity_value.calls", "count"),
    ("connectivity.min_separator.calls", "count"),
    ("pipeline.check_hypotheses.s", "s"),
    ("pipeline.check_hypotheses.calls", "count"),
    ("graphs.girth.s", "s"),
    ("graphs.girth.calls", "count"),
    ("connectivity.connectivity_at_least.s", "s"),
    ("connectivity.connectivity_at_least.calls", "count"),
    ("pipeline.verify_certificate.self_s", "s"),
    ("pipeline.verify_certificate.calls", "count"),
    ("pipeline.find_keeping_tree.self_s", "s"),
    ("harness.oracle_exists.calls", "count"),
    ("matching.saturating_matching_or_violator.s", "s"),
    ("matching.saturating_matching_or_violator.calls", "count"),
    ("matching.find_tight_set.s", "s"),
    ("matching.find_tight_set.calls", "count"),
    ("embed.s", "s"),
    ("embed.greedy_embed.calls", "count"),
    ("embed.bipartite_embed.calls", "count"),
    ("embed.sparse_embed.calls", "count"),
    ("embed.exhaustive_embed.calls", "count"),
    ("bench.trace_overhead_s", "s"),
)

_FIND = "pipeline.find_keeping_tree"
_VERIFY = "pipeline.verify_certificate"
_SEARCH = ("triples.find_triple", "triples.hall_refine")

# Span record fields.
NAME, START, END, PARENT, INSTANCE, OUTCOME = range(6)


class Tracer:
    """In-memory span recorder; ``installed()`` patches the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self.active = True
        self._stack: list[int] = []

    def _begin(self, name: str) -> list:
        stack, spans = self._stack, self.spans
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.instance, None]
        stack.append(len(spans))
        spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        self._stack.pop()
        rec[END] = time.perf_counter()

    def _wrap(self, name: str, fn, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    rec[OUTCOME] = outcome(result)
                return result
            finally:
                self._end(rec)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span recorded around a block of the benchmark's own code."""
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextmanager
    def installed(self):
        """Wrap every name bound to a traced function in the loaded package."""
        wrappers: dict[int, tuple[object, object]] = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"keeptree.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                outcome = _passed if fname == "validate_triple" else None
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn, outcome))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "keeptree" and not modname.startswith("keeptree."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.spans:
            counts[rec[NAME]] = counts.get(rec[NAME], 0) + 1
        return counts

    def write(self, path: Path, extra: dict) -> None:
        """Write spans as rows [name, start_s, end_s, parent, instance, outcome,
        self_s], times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        self_s = self_times(self.spans)
        rows = [
            [r[NAME], r[START] - origin, r[END] - origin, r[PARENT], r[INSTANCE], r[OUTCOME], s]
            for r, s in zip(self.spans, self_s)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "fields": ["name", "start_s", "end_s", "parent",
                                           "instance", "outcome", "self_s"],
                       "spans": rows}, fh)


def _passed(report) -> bool:
    return report.passed


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans nest strictly (one thread, stack discipline), so the children of
    a span are disjoint intervals inside it.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def layer_metrics(spans: list[list], overhead_s: float) -> dict[str, float]:
    """Aggregate spans into the values named in ``LAYER_METRICS``.

    ``s`` is inclusive time of outermost calls, ``self_s`` excludes child
    spans, ``embed.s`` is the time of outermost calls into any embedder.  ``global_connectivity`` time is split by the pipeline call it
    runs under: ``find_s`` inside ``find_keeping_tree`` (its own check and
    its self-verification), ``verify_s`` inside a ``verify_certificate``
    called from outside ``find_keeping_tree``.  ``validate_triple`` is split
    into ``search_s`` (under ``find_triple`` or ``hall_refine``) and
    ``verify_s`` (under any ``verify_certificate``); ``passed_frac`` is
    passing validations over validations made during the search.
    """
    traced = {f"{module}.{fname}" for module, fnames in TRACED.items() for fname in fnames}
    names = sorted({rec[NAME] for rec in spans} | traced)
    bit = {name: 1 << i for i, name in enumerate(names)}
    find_bit, verify_bit = bit[_FIND], bit[_VERIFY]
    search_bits = bit[_SEARCH[0]] | bit[_SEARCH[1]]
    embed_bits = sum(bit[name] for name in traced if name.startswith("embed."))

    stats: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        stats[key] = stats.get(key, 0.0) + value

    self_s = self_times(spans)
    above = [0] * len(spans)  # names of the strict ancestors, as a bitmask
    search_tries = search_passes = 0
    for i, rec in enumerate(spans):
        name, parent = rec[NAME], rec[PARENT]
        mask = above[parent] | bit[spans[parent][NAME]] if parent >= 0 else 0
        above[i] = mask
        dur = rec[END] - rec[START]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s[i])
        if not mask & bit[name]:
            add(f"{name}.s", dur)
        if bit[name] & embed_bits and not mask & embed_bits:
            add("embed.s", dur)
        if name == "connectivity.global_connectivity":
            if mask & find_bit:
                add(f"{name}.find_s", dur)
            elif mask & verify_bit:
                add(f"{name}.verify_s", dur)
        elif name == "triples.validate_triple":
            if mask & search_bits:
                add(f"{name}.search_s", dur)
                search_tries += 1
                search_passes += bool(rec[OUTCOME])
            elif mask & verify_bit:
                add(f"{name}.verify_s", dur)
    stats["triples.validate_triple.passed_frac"] = (
        search_passes / search_tries if search_tries else 0.0
    )
    stats["bench.trace_overhead_s"] = overhead_s
    return {
        name: int(stats.get(name, 0)) if unit == "count" else stats.get(name, 0.0)
        for name, unit in LAYER_METRICS
    }

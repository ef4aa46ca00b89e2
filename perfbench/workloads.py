"""Workload set-up, the closed measurement loop and the traced passes.

Every workload is driven from one process, one instance at a time (closed
loop, one client).  Inputs are generated from the workload seed; the
program only receives the generated graphs.  A run makes whole passes over
a workload's instances, each pass in a new order and on new copies of the
graphs, and times each instance at its median pass, at a reference speed
(see ``measure`` and ``typical_times``).

* ``suite``: ``harness.run_suite`` on each instance of
  ``harness.full_suite()`` (192 instances, n <= 50), in an order shuffled
  by the seed.  Fixed per-instance costs and repeated host facts dominate.
* ``dense``: ``find_keeping_tree`` then an independent
  ``verify_certificate`` of the certificate's canonical JSON, on
  triangle-free ``random_bipartite(28, 28, 19, s)`` hosts (n = 56, k = 2,
  path on 4 vertices).  The remainder keeps a high exact connectivity, so
  ``global_connectivity`` dominates and the triple passes on its first
  candidate.  The degree floor 19 bounds the minimum degree, which sets the
  flow count, so find times vary little from host to host.
* ``clustered``: the same find + verify loop on two dense
  ``random_bipartite(18, 18, 12, s)`` blocks joined by k = 2 disjoint cross
  edges, labels shuffled.  Connectivity is exactly k, so flows stop early
  and triple cut-descent with ``validate_triple`` does most of the work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from tracer import Tracer

K = 2
TREE_ORDER = 4
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds; setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMALL`` the self-check."""

    dense_half: int  # dense hosts are random_bipartite(a, a, d, s), n = 2a
    dense_degree: int
    dense_hosts: int  # distinct hosts generated per run
    block_half: int  # clustered blocks are random_bipartite(b, b, d, s)
    block_degree: int
    clustered_hosts: int
    trace_hosts: int  # dense/clustered instances in each traced pass
    suite_stride: int  # every stride-th instance of full_suite()


# One pass over the dense or clustered hosts takes 4-8 s on a 2-vCPU x86
# VM, so a 40 s run makes four to seven passes.
FULL = Sizes(
    dense_half=28, dense_degree=19, dense_hosts=6,
    block_half=18, block_degree=12, clustered_hosts=12,
    trace_hosts=4, suite_stride=1,
)
SMALL = Sizes(
    dense_half=13, dense_degree=12, dense_hosts=2,
    block_half=12, block_degree=12, clustered_hosts=2,
    trace_hosts=2, suite_stride=16,
)


@dataclass
class Sample:
    """Outcome of one instance; times in seconds, ``None`` where not reached."""

    instance_id: str
    ok: bool
    cert: str | None
    instance_s: float
    find_s: float | None = None
    verify_s: float | None = None
    error: str = ""


@dataclass
class Workload:
    name: str
    instances: list[tuple[str, Any]]
    run_one: Callable[[tuple[str, Any], Tracer | None], Sample]
    trace_count: int
    copy: Callable[[Any], Any]  # a new, equal input for the next pass


@dataclass
class Pass:
    """One pass over a workload's instances, with the reference chunk timed
    after each instance."""

    samples: list[Sample]
    references: list[float]

    @property
    def scale(self) -> float:
        """Factor that brings this pass's times to the reference speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)


def import_keeptree():
    """Import the package afresh, so each set-up repeat pays for the import."""
    for name in [m for m in sys.modules if m == "keeptree" or m.startswith("keeptree.")]:
        del sys.modules[name]
    return importlib.import_module("keeptree")


def _fixed_loop(iterations: int) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def drift_loop() -> float:
    """Seconds for a fixed pure-Python loop run before and after a run: a
    record of how fast the machine ran, kept beside the metrics and never
    used to rescale them."""
    return _fixed_loop(1_500_000)


#: Seconds one ``reference_chunk`` takes at the reference speed, its median
#: on a 2-vCPU x86 VM with Python 3.11 when that VM ran fast.
REFERENCE_NOMINAL_S = 0.0008


def reference_chunk() -> float:
    """Seconds for a short fixed pure-Python loop; ``measure`` runs one after
    every instance."""
    return _fixed_loop(10_000)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _copy_graph(kt):
    return lambda g: kt.Graph(g.n, g.edges())


def _path_tree(kt):
    return kt.Tree(kt.gen_graph(kt.FamilySpec("path", (TREE_ORDER,))))


def _find_verify(kt, tree) -> Callable[[tuple[str, Any], Tracer | None], Sample]:
    """Instance routine for dense and clustered: find, then re-verify the
    certificate from its canonical JSON."""
    sel = kt.CaseSelector("triangle-free")

    def run_one(inst, tracer):
        instance_id, g = inst
        if tracer is not None:
            tracer.instance = instance_id
        t0 = time.perf_counter()
        try:
            with _span(tracer, "bench.find"):
                cert = kt.find_keeping_tree(g, tree, K, sel)
        except kt.KeeptreeError as exc:
            return Sample(instance_id, False, None, time.perf_counter() - t0, error=repr(exc))
        t1 = time.perf_counter()
        text = cert.canonical_json()
        t2 = time.perf_counter()
        try:
            with _span(tracer, "bench.verify"):
                report = kt.verify_certificate(g, json.loads(text))
            passed, error = report.passed, report.first_failure() or ""
        except kt.KeeptreeError as exc:
            passed, error = False, repr(exc)
        t3 = time.perf_counter()
        ok = passed and cert.connectivity_after_removal >= K
        return Sample(instance_id, ok, text, t3 - t0, t1 - t0, t3 - t2, error)

    return run_one


def build_dense(kt, seed: int, sizes: Sizes) -> Workload:
    a, d = sizes.dense_half, sizes.dense_degree
    hosts = [
        (f"dense-{i:03d}", kt.families.random_bipartite(a, a, d, seed * 1000 + i))
        for i in range(sizes.dense_hosts)
    ]
    return Workload("dense", hosts, _find_verify(kt, _path_tree(kt)), sizes.trace_hosts,
                    _copy_graph(kt))


def clustered_host(kt, rng: random.Random, half: int, degree: int):
    """Two random-bipartite blocks joined by K disjoint cross edges, with
    every label shuffled.  The cross edges' endpoints form a K-separator."""
    blocks = [
        kt.families.random_bipartite(half, half, degree, rng.randrange(1 << 30))
        for _ in range(2)
    ]
    n1 = blocks[0].n
    edges = blocks[0].edges() + [(u + n1, v + n1) for u, v in blocks[1].edges()]
    left = rng.sample(range(n1), K)
    right = rng.sample(range(n1, n1 + blocks[1].n), K)
    edges += list(zip(left, right))
    perm = list(range(n1 + blocks[1].n))
    rng.shuffle(perm)
    return kt.Graph(len(perm), [(perm[u], perm[v]) for u, v in edges])


def build_clustered(kt, seed: int, sizes: Sizes) -> Workload:
    tree = _path_tree(kt)
    sel = kt.CaseSelector("triangle-free")
    hosts = []
    for i in range(sizes.clustered_hosts):
        g = clustered_host(kt, random.Random(seed * 1000 + i), sizes.block_half, sizes.block_degree)
        # The workload must stay what it claims to be: fail loudly otherwise.
        checks = {
            "triangle-free": kt.is_triangle_free(g),
            f"kappa >= {K}": kt.connectivity.connectivity_at_least(g, K),
            f"kappa < {K + 1}": not kt.connectivity.connectivity_at_least(g, K + 1),
            "hypotheses pass": kt.check_hypotheses(g, tree, K, sel).passed,
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            raise RuntimeError(f"clustered host {i} (seed {seed}) fails: {', '.join(failed)}")
        hosts.append((f"clustered-{i:03d}", g))
    return Workload("clustered", hosts, _find_verify(kt, tree), sizes.trace_hosts,
                    _copy_graph(kt))


@contextmanager
def timed_find(harness, times: list[float]):
    """Time each ``find_keeping_tree`` call that ``run_suite`` makes."""
    fn = harness.find_keeping_tree

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    harness.find_keeping_tree = timed
    try:
        yield
    finally:
        harness.find_keeping_tree = fn


def build_suite(kt, seed: int, sizes: Sizes) -> Workload:
    insts = kt.harness.full_suite()[:: sizes.suite_stride]
    random.Random(seed).shuffle(insts)

    def run_one(inst, tracer):
        instance_id, si = inst
        if tracer is not None:
            tracer.instance = instance_id
        find_times: list[float] = []
        t0 = time.perf_counter()
        with _span(tracer, "bench.run"), timed_find(kt.harness, find_times):
            report = kt.harness.run_suite([si], jobs=1)
        t1 = time.perf_counter()
        agg = report.aggregate
        text = report.certificates.get(instance_id)
        ok = (
            agg["certified"] == agg["verified"] == agg["total"] == 1
            and agg["dominance_violations"] == 0
            and text is not None
        )
        error = "" if ok else json.dumps(report.records[0], sort_keys=True)
        verify_s = None
        if text is not None:
            # The benchmark's own re-verification is outside the instance and
            # untraced, so traced counts are those of run_suite alone.
            with tracer.paused() if tracer is not None else nullcontext():
                t2 = time.perf_counter()
                try:
                    check = kt.verify_certificate(si.graph, json.loads(text))
                    passed, why = check.passed, check.first_failure() or ""
                except kt.KeeptreeError as exc:
                    passed, why = False, repr(exc)
                verify_s = time.perf_counter() - t2
            ok = ok and passed
            error = error or why
        find_s = find_times[0] if find_times else None
        return Sample(instance_id, ok, text, t1 - t0, find_s, verify_s, error)

    copy_graph = _copy_graph(kt)

    def copy(si):
        return dataclasses.replace(si, graph=copy_graph(si.graph))

    return Workload("suite", [(si.instance_id, si) for si in insts], run_one, len(insts), copy)


MAKE_WORKLOAD = {"suite": build_suite, "dense": build_dense, "clustered": build_clustered}


def setup(name: str, seed: int, sizes: Sizes, repeats: int, min_s: float = 0.0):
    """Import plus input generation, repeated at least ``repeats`` times and
    until ``min_s`` seconds are spent; returns the last result and every
    repeat's seconds."""
    times: list[float] = []
    while len(times) < repeats or sum(times) < min_s:
        start = time.perf_counter()
        kt = import_keeptree()
        wl = MAKE_WORKLOAD[name](kt, seed, sizes)
        times.append(time.perf_counter() - start)
    return wl, times


def cert_digest(samples: list[Sample]) -> str:
    """sha256 of the canonical certificates of one pass, in instance-id order."""
    h = hashlib.sha256()
    for s in sorted(samples, key=lambda s: s.instance_id):
        h.update((s.cert or "").encode())
    return h.hexdigest()


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(wl: Workload, seconds: float) -> tuple[list[Pass], float]:
    """Closed loop in whole passes: the next instance starts when the
    previous one returns.  Makes one pass, then more while the next is
    expected to end within ``seconds``; returns the passes and the wall
    seconds.

    The first pass runs the instances in the workload's order, each later
    pass in a new one, and every pass on new copies of their graphs, so no
    pass reuses objects an earlier pass has seen.  A reference chunk runs
    after every instance: the shared host this was sized on ran the same
    code up to 1.5x slower for seconds to minutes at a time, and the chunks
    measure how fast it ran during each pass.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        order = list(wl.instances)
        if passes:
            random.Random(len(passes)).shuffle(order)
        inputs = [(instance_id, wl.copy(x)) for instance_id, x in order]
        t0 = time.perf_counter()
        done = Pass([], [])
        for inst in inputs:
            done.samples.append(wl.run_one(inst, None))
            done.references.append(reference_chunk())
        pass_s = time.perf_counter() - t0
        passes.append(done)
    return passes, time.perf_counter() - start


def typical_times(passes: list[Pass], scaled: bool = True) -> list[Sample]:
    """Per instance, the median over its successful samples of the instance,
    find and verify times (each on its own), in instance-id order.  With
    ``scaled``, each sample is first multiplied by its pass's ``scale``.

    Over six runs each of suite and dense on the shared host, the middle
    half of these medians, scaled pass by pass, spread 3-4 % of their
    median; unscaled per-instance minima spread 14-21 %.
    """
    times: dict[str, list[tuple[float, float, float]]] = {}
    for p in passes:
        k = p.scale if scaled else 1.0
        for s in p.samples:
            if s.ok:
                times.setdefault(s.instance_id, []).append(
                    (s.instance_s * k, s.find_s * k, s.verify_s * k))
    return [
        Sample(instance_id, True, None, *map(statistics.median, zip(*rows)))
        for instance_id, rows in sorted(times.items())
    ]


def traced_passes(wl: Workload) -> dict[str, Any]:
    """Untraced and traced passes, alternating, over the same instances.

    The first traced pass gives the per-layer numbers; the second must make
    exactly the same calls, since the program is deterministic.  The
    tracing overhead is the mean traced pass minus the mean untraced pass.
    """
    insts = wl.instances[: wl.trace_count]
    samples: list[Sample] = []
    tracers: list[Tracer] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    for traced in (False, True, False, True):
        tracer = Tracer() if traced else None
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            samples += [wl.run_one(inst, tracer) for inst in insts]
            walls[traced].append(time.perf_counter() - start)
        if tracer is not None:
            tracers.append(tracer)
    return {
        "samples": samples,
        "instances": len(insts),
        "tracer": tracers[0],
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "overhead_s": statistics.mean(walls[True]) - statistics.mean(walls[False]),
        "calls_match": tracers[0].call_counts() == tracers[1].call_counts(),
    }

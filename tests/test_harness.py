"""Oracle, suite runner, corpora and manifests."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from keeptree import embed, graphs, harness, pipeline
from keeptree.certificate import CASE_GIRTH, CASE_TRIANGLE_FREE, CaseSelector
from keeptree.errors import GuardExceeded, ParseError
from keeptree.families import complete_bipartite
from keeptree.graphs import Tree
from keeptree.harness import (
    SuiteInstance,
    _run_one,
    corpus_force,
    corpus_girth,
    corpus_triangle_free,
    oracle_exists,
    parse_manifest,
    run_suite,
)


def path_tree(m):
    return Tree.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def count_calls(monkeypatch, *functions):
    """Wrap every module-level binding of ``functions`` in the loaded
    keeptree modules; returns the live call counts by function name."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "keeptree" or name.startswith("keeptree."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return counts


class TestOracle:
    def test_c5_edge_removal_exists(self, c5, tree_k2):
        emb = oracle_exists(c5, tree_k2, 1)
        assert emb is not None and len(emb.image()) == 2

    def test_c4_edge_k2_none(self, c4, tree_k2):
        assert oracle_exists(c4, tree_k2, 2) is None

    def test_k44_edge_exists(self, k44, tree_k2):
        assert oracle_exists(k44, tree_k2, 1) is not None

    def test_guard(self, tree_k2):
        with pytest.raises(GuardExceeded):
            oracle_exists(complete_bipartite(8, 8), tree_k2, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k44, tree_k2, k):
        with pytest.raises(ValueError, match="k must be positive"):
            oracle_exists(k44, tree_k2, k)


class TestRunSuite:
    def test_empty_corpus(self):
        report = run_suite([])
        assert report.aggregate["total"] == 0
        assert report.records == ()

    def test_mixed_statuses(self, k44, c6):
        instances = [
            SuiteInstance(
                "ok", "complete-bipartite", k44, path_tree(2), 1,
                CaseSelector("bipartite"),
            ),
            SuiteInstance(
                "skip", "cycle", c6, path_tree(3), 2,
                CaseSelector(CASE_TRIANGLE_FREE),
            ),
        ]
        report = run_suite(instances)
        ok, skipped = report.records  # sorted by instance id
        assert ok["status"] == "certified"
        assert ok["verified"] is True
        assert skipped["status"] == "skipped-hypothesis"
        assert "threshold" in skipped["detail"]
        assert report.aggregate["dominance_violations"] == 0
        assert "ok" in report.certificates and "skip" not in report.certificates

    def test_duplicate_ids_rejected(self, k44):
        inst = SuiteInstance("x", "f", k44, path_tree(2), 1, None)
        with pytest.raises(ValueError, match="unique"):
            run_suite([inst, inst])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, k44, jobs):
        inst = SuiteInstance("x", "f", k44, path_tree(2), 1, None)
        with pytest.raises(ValueError, match="jobs"):
            run_suite([inst], jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_k_below_one_rejected_before_any_run(self, monkeypatch, k44, jobs):
        counts = count_calls(monkeypatch, pipeline.check_hypotheses)
        instances = [
            SuiteInstance("good", "f", k44, path_tree(2), 1, None),
            SuiteInstance("zero", "f", k44, path_tree(2), 0, None),
        ]
        with pytest.raises(ValueError, match="instance zero: k must be positive"):
            run_suite(instances, jobs=jobs)
        assert counts["check_hypotheses"] == 0

    def test_jobs_match_sequential(self, k44, q3):
        instances = [
            SuiteInstance("a", "k44", k44, path_tree(2), 1, None),
            SuiteInstance("b", "q3", q3, path_tree(2), 1, None),
            SuiteInstance("c", "k44-p3", k44, path_tree(3), 1, None),
        ]
        seq = run_suite(instances, jobs=1)
        par = run_suite(instances, jobs=2)
        assert seq.to_json() == par.to_json()
        assert seq.certificates == par.certificates

    def test_pool_capped_at_instance_count(self, monkeypatch, k44, q3):
        """A pool starts every worker it is given, so ``jobs`` far above the
        instance count must not reach it; an in-process fake stands in."""
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        instances = [
            SuiteInstance("a", "k44", k44, path_tree(2), 1, None),
            SuiteInstance("b", "q3", q3, path_tree(2), 1, None),
        ]
        report = run_suite(instances, jobs=5000)
        assert workers == [2]
        assert report.to_json() == run_suite(instances, jobs=1).to_json()

    def test_import_loads_no_process_pool_or_xml_parser(self):
        """A sequential run needs no process pool and only GraphML input
        needs the XML parser, so importing the package and its CLI loads
        neither."""
        code = (
            "import sys, keeptree, keeptree.cli; "
            "print(sorted({'concurrent.futures.process', 'xml.etree.ElementTree'} & set(sys.modules)))"
        )
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_lowered_guard_fails_forced_instance_only(self, monkeypatch, k44, q3):
        # The forced girth run on Q3 needs the exhaustive embedding fallback,
        # which a lowered guard refuses; the healthy instance is unaffected.
        monkeypatch.setattr(embed, "BRUTE_GUARD", 5)
        instances = [
            SuiteInstance(
                "forced", "q3", q3, path_tree(2), 1, CaseSelector(CASE_GIRTH, 2), force=True
            ),
            SuiteInstance("healthy", "k44", k44, path_tree(2), 1, None),
        ]
        report = run_suite(instances)
        forced, healthy = report.records  # sorted by instance id
        assert forced["status"] == "failed-search"
        assert "embedding stage (forced)" in forced["detail"]
        assert healthy["status"] == "certified"

    def test_hypotheses_evaluated_once_per_run(self, monkeypatch, k44, c6):
        counts = count_calls(
            monkeypatch,
            pipeline.check_hypotheses,
            graphs.girth,
            graphs.find_triangle,
        )
        certified = SuiteInstance("ok", "k44", k44, path_tree(2), 1, None)
        record, cert, _ = _run_one(certified)
        assert record["status"] == "certified" and record["case"] == "bipartite"
        assert cert is not None
        # The auto case is picked inside the one gate call, from its own girth.
        assert counts == {"check_hypotheses": 1, "girth": 1, "find_triangle": 0}
        skipped = SuiteInstance(
            "skip", "cycle", c6, path_tree(3), 2, CaseSelector(CASE_TRIANGLE_FREE)
        )
        record, cert, _ = _run_one(skipped)
        assert record["status"] == "skipped-hypothesis" and cert is None
        assert counts["check_hypotheses"] == 2 and counts["girth"] == 2
        # A failure past the gate carries the pipeline's report.
        forced = SuiteInstance(
            "forced", "k44", k44, path_tree(4), 1,
            CaseSelector(CASE_TRIANGLE_FREE), force=True,
        )
        record, cert, _ = _run_one(forced)
        assert record["status"] == "failed-search" and cert is None
        assert record["threshold"] == "10" and not record["hypothesis_pass"]
        assert counts["check_hypotheses"] == 3 and counts["girth"] == 3

    def test_forced_failure_record(self, k44):
        inst = SuiteInstance(
            "f", "complete-bipartite", k44, path_tree(4), 1,
            CaseSelector(CASE_TRIANGLE_FREE), force=True,
        )
        assert run_suite([inst]).records[0] == {
            "beta": "3",
            "case": "triangle-free",
            "delta": 4,
            "detail": "triple stage: no connected triple inside the restricted "
            "search space: hypothesis violation or guard too tight",
            "dominance_violation": False,
            "f_size": None,
            "family": "complete-bipartite",
            "force": True,
            "girth": "4",
            "hypothesis_pass": False,
            "instance_id": "f",
            "k": 1,
            "kappa_after": None,
            "m": 4,
            "n": 8,
            "oracle": "yes",
            "removed_size": None,
            "s1_size": None,
            "s2_size": None,
            "status": "failed-search",
            "threshold": "10",
            "verified": None,
        }

    def test_internal_fault_is_recorded_and_the_rest_kept(self, monkeypatch):
        hosts = [complete_bipartite(4, 4) for _ in range(3)]
        instances = [
            SuiteInstance(name, "f", host, path_tree(2), 1, None)
            for name, host in zip("abc", hosts)
        ]
        expected = run_suite(instances, jobs=1)
        find = harness.find_keeping_tree

        def faulty(g, *args, **kwargs):
            if g is hosts[1]:
                raise RuntimeError("planted fault")
            return find(g, *args, **kwargs)

        monkeypatch.setattr(harness, "find_keeping_tree", faulty)
        report = run_suite(instances, jobs=1)
        a, b, c = report.records
        assert (a, c) == (expected.records[0], expected.records[2])
        assert b["status"] == "failed-internal"
        assert b["detail"] == "RuntimeError: planted fault"
        for column in ("case", "delta", "girth", "beta", "threshold", "hypothesis_pass"):
            assert b[column] is None
        assert b["oracle"] == expected.records[1]["oracle"]
        assert expected.aggregate["certified"] == 3
        assert report.aggregate == dict(expected.aggregate, certified=2, verified=2, failed=1)
        assert sorted(report.certificates) == ["a", "c"]
        assert report.to_csv().splitlines()[2] == "b,f,,8,2,1,,,,,,failed-internal,,yes,,,,,"

    def test_oracle_fault_is_recorded_and_the_rest_kept(self, monkeypatch):
        hosts = [complete_bipartite(4, 4) for _ in range(3)]
        instances = [
            SuiteInstance(name, "f", host, path_tree(2), 1, None)
            for name, host in zip("abc", hosts)
        ]
        expected = run_suite(instances, jobs=1)
        oracle = harness.oracle_exists

        def faulty(g, *args):
            if g is hosts[1]:
                raise RuntimeError("planted fault")
            return oracle(g, *args)

        monkeypatch.setattr(harness, "oracle_exists", faulty)
        report = run_suite(instances, jobs=1)
        a, b, c = report.records
        assert (a, c) == (expected.records[0], expected.records[2])
        assert b["status"] == "failed-internal" and b["oracle"] == "error"
        assert b["detail"] == "RuntimeError: planted fault"
        assert report.aggregate == dict(
            expected.aggregate, certified=2, verified=2, failed=1, oracle_checked=2
        )
        assert sorted(report.certificates) == ["a", "c"]
        assert report.to_csv().splitlines()[2] == "b,f,,8,2,1,,,,,,failed-internal,,error,,,,,"

    def test_timing_kept_out_of_canonical_output(self, k44):
        inst = SuiteInstance("a", "k44", k44, path_tree(2), 1, None)
        report = run_suite([inst])
        assert "runtime_ms" not in report.to_json()
        assert "runtime_ms" in report.to_json(with_timing=True)
        assert "runtime_ms" not in report.to_csv()
        assert report.to_csv(with_timing=True).splitlines()[0].split(",")[-1] == "runtime_ms"
        assert report.timings["a"] > 0
        # Each timed record carries its timing rounded to 3 places; without
        # that key or column, both timed forms are the canonical bytes.
        second = SuiteInstance("b", "k44", k44, path_tree(2), 1, None)
        for timed in (run_suite([inst, second]), replace(report, timings={"a": 1.23456})):
            expected = [str(round(timed.timings[r["instance_id"]], 3)) for r in timed.records]
            payload = json.loads(timed.to_json(with_timing=True))
            assert [str(rec.pop("runtime_ms")) for rec in payload["instances"]] == expected
            assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == timed.to_json()
            rows = [line.split(",") for line in timed.to_csv(with_timing=True).splitlines()]
            assert [row.pop() for row in rows] == ["runtime_ms", *expected]
            assert "".join(",".join(row) + "\n" for row in rows) == timed.to_csv()
        assert expected == ["1.235"]

    def test_csv_shape(self, k44):
        inst = SuiteInstance("a", "k44", k44, path_tree(2), 1, None)
        report = run_suite([inst])
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("instance_id,family,case,n,m,k")
        assert len(lines) == 2 and lines[1].startswith("a,k44,bipartite,8,2,1")


class TestCorpora:
    def test_triangle_free_covers_cells(self):
        instances = corpus_triangle_free()
        ids = [inst.instance_id for inst in instances]
        assert len(ids) == len(set(ids))
        # Degenerate K_{1,1} cell (k=1, m=1) is excluded; its six seeded
        # random stand-ins stay.
        assert not any(i.startswith("tf-kdd-k1-m1") for i in ids)
        assert sorted(i for i in ids if i.startswith("tf-rand-k1-m1-")) == [
            f"tf-rand-k1-m1-t0-s{r}" for r in range(6)
        ]
        assert any(i.startswith("tf-kdd-k2-m4-t1") for i in ids)

    def test_girth_constructions(self):
        instances = corpus_girth()
        assert [i.family for i in instances] == [
            "petersen",
            "projective-incidence",
            "hoffman-singleton",
        ]
        assert [i.tree.order for i in instances] == [1, 2, 3]

    def test_force_instances_are_forced_and_below_threshold(self):
        from keeptree.pipeline import check_hypotheses

        instances = corpus_force()
        assert len(instances) == 50
        for inst in instances:
            assert inst.force
            report = check_hypotheses(inst.graph, inst.tree, inst.k, inst.sel)
            assert not report.degree_ok


class TestManifest:
    def test_parse_and_run(self):
        text = """
        # demo corpus
        complete-bipartite 4 4 ; path 2 ; 1 ; bipartite
        petersen ; path 1 ; 1 ; girth:2
        random-bipartite 5 5 4 7 ; random-tree 2 0 ; 1 ; auto
        """
        instances = parse_manifest(text)
        assert len(instances) == 3
        assert instances[0].k == 1 and instances[0].sel.case == "bipartite"
        assert instances[1].sel.t == 2
        assert instances[2].sel is None
        report = run_suite(instances)
        assert report.aggregate["certified"] == 3

    def test_bad_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_manifest("petersen ; path 2 ; 1\n")

    def test_bad_tree(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_manifest("petersen ; cycle 4 ; 1 ; auto\n")

    def test_k_below_one_rejected(self):
        text = (
            "complete-bipartite 4 4 ; path 2 ; 0 ; bipartite\n"
            "complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n"
        )
        with pytest.raises(ParseError, match="line 1: k = 0"):
            parse_manifest(text)

    @pytest.mark.parametrize("family", ["random-tree 3.7 1", "random-bipartite 4 4 2.5 1"])
    def test_non_integer_parameter_rejected(self, family):
        with pytest.raises(ParseError, match="line 2: .*integer"):
            parse_manifest(f"petersen ; path 1 ; 1 ; girth:2\n{family} ; path 1 ; 1 ; auto\n")

    def test_seed_required_for_random(self):
        with pytest.raises(ParseError, match="seed"):
            parse_manifest("random-bipartite 5 5 3 ; path 2 ; 1 ; auto\n")

"""Command-line interface: exit codes, file outputs, determinism."""

import json
import time

import pytest

from keeptree import pipeline
from keeptree.cli import main
from keeptree.errors import TheoremViolation
from keeptree.families import complete_bipartite, heawood
from keeptree.io import format_edge_list, parse_edge_list


@pytest.fixture
def k44_file(tmp_path):
    path = tmp_path / "k44.txt"
    path.write_text(format_edge_list(complete_bipartite(4, 4)))
    return path


@pytest.fixture
def edge_tree_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2\n0 1\n")
    return path


class TestFind:
    def test_success_and_verify_round_trip(self, tmp_path, k44_file, edge_tree_file, capsys):
        cert = tmp_path / "cert.json"
        assert main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out and cert.exists()
        assert main(["verify", str(k44_file), str(cert)]) == 0
        assert "certificate OK" in capsys.readouterr().out

    def test_json_summary(self, tmp_path, k44_file, edge_tree_file, capsys):
        cert = tmp_path / "cert.json"
        rc = main(
            ["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert), "--json"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["connectivity_after_removal"] == 3

    def test_malformed_edge_list_exit_1(self, tmp_path, edge_tree_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 zero\n")
        assert main(["find", str(bad), str(edge_tree_file), "1"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_theorem_violation_exit_4(self, monkeypatch, tmp_path, k44_file, edge_tree_file, capsys):
        def violated(*args, **kwargs):
            raise TheoremViolation("refinement consumed the whole fragment")

        monkeypatch.setattr(pipeline, "hall_refine", violated)
        out = str(tmp_path / "c.json")
        assert main(["find", str(k44_file), str(edge_tree_file), "1", "--out", out]) == 4
        assert "consumed" in capsys.readouterr().err

    def test_enumeration_guard_refusal_exit_3(self, tmp_path, edge_tree_file, capsys):
        # Heawood's 14-vertex closure exceeds the triple enumeration guard (10).
        host = tmp_path / "heawood.txt"
        host.write_text(format_edge_list(heawood()))
        out = str(tmp_path / "c.json")
        assert main(["find", str(host), str(edge_tree_file), "2", "--force", "--out", out]) == 3
        assert "14-vertex closure > 10" in capsys.readouterr().err

    def test_below_threshold_exit_2(self, tmp_path, edge_tree_file):
        small = tmp_path / "c6.txt"
        small.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        tree3 = tmp_path / "p3.txt"
        tree3.write_text("3\n0 1\n1 2\n")
        assert main(["find", str(small), str(tree3), "2", "--out", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("case", ["triangle-free", "girth:2"])
    def test_order_below_k_plus_m_plus_one_exit_2(self, tmp_path, edge_tree_file, case, capsys):
        single = tmp_path / "k1.txt"
        single.write_text("1\n")
        assert main(["find", str(edge_tree_file), str(single), "1", "--case", case]) == 2
        assert "n = 2 below k + m + 1 = 3" in capsys.readouterr().err

    def test_force_search_failure_exit_3(self, tmp_path, k44_file):
        tree4 = tmp_path / "p4.txt"
        tree4.write_text("4\n0 1\n1 2\n2 3\n")
        rc = main(
            [
                "find",
                str(k44_file),
                str(tree4),
                "1",
                "--case",
                "triangle-free",
                "--force",
                "--out",
                str(tmp_path / "c.json"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("token", ["girthy", "girth:", "girth:two", "bipartite:2"])
    def test_unknown_case_exit_1(self, tmp_path, k44_file, edge_tree_file, token, capsys):
        cert = tmp_path / "c.json"
        rc = main(["find", str(k44_file), str(edge_tree_file), "1", "--case", token, "--out", str(cert)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err and not cert.exists()

    def test_unwritable_output_exit_1(self, tmp_path, k44_file, edge_tree_file, capsys):
        out = tmp_path / "missing-dir" / "cert.json"
        assert main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(out)]) == 1
        assert "io error:" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as err:
            main(["find", "only-one-arg"])
        assert err.value.code == 1


class TestVerify:
    def test_tampered_certificate_exit_5(self, tmp_path, k44_file, edge_tree_file, capsys):
        cert = tmp_path / "cert.json"
        main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)])
        data = json.loads(cert.read_text())
        data["tree_image"] = [[0, 0], [1, 1]]
        cert.write_text(json.dumps(data))
        assert main(["verify", str(k44_file), str(cert)]) == 5
        assert "embedding" in capsys.readouterr().err

    def test_wrong_graph_exit_5(self, tmp_path, k44_file, edge_tree_file):
        cert = tmp_path / "cert.json"
        main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)])
        other = tmp_path / "k55.txt"
        other.write_text(format_edge_list(complete_bipartite(5, 5)))
        assert main(["verify", str(other), str(cert)]) == 5

    @pytest.mark.parametrize("content", ["not json", None], ids=["not-json", "missing"])
    def test_unreadable_certificate_exit_1(self, tmp_path, k44_file, content, capsys):
        cert = tmp_path / "cert.json"
        if content is not None:
            cert.write_text(content)
        assert main(["verify", str(k44_file), str(cert)]) == 1
        assert "cannot read certificate" in capsys.readouterr().err

    def test_schema_error_exit_1(self, tmp_path, k44_file):
        cert = tmp_path / "cert.json"
        cert.write_text("{\"schema\": \"keeptree-cert/1\"}")
        assert main(["verify", str(k44_file), str(cert)]) == 1

    def test_non_object_exit_1(self, tmp_path, k44_file, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text("[1]\n")
        assert main(["verify", str(k44_file), str(cert)]) == 1
        assert "not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", "1/0"),
            ("beta", "1e10000000"),
            ("beta", "1e-10000000"),
            ("beta", "3.5"),
            ("connectivity_after_removal", float("inf")),
            ("connectivity_after_removal", 3.5),
            ("connectivity_after_removal", "3"),
            ("k", 1.9),
            ("k", True),
        ],
    )
    def test_arithmetic_field_exit_1(self, tmp_path, k44_file, edge_tree_file, field, value):
        cert = tmp_path / "cert.json"
        main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)])
        data = json.loads(cert.read_text())
        data[field] = value  # json.dumps writes an infinite float as Infinity
        cert.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["verify", str(k44_file), str(cert)]) == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "path, change",
        [
            (("tree_image", 0, 1), lambda v: v + 0.4),
            (("triple", "f"), lambda f: [str(v) for v in f]),
            (("tree", "order"), lambda v: v + 0.5),
        ],
        ids=["tree_image-float", "triple.f-strings", "tree.order-float"],
    )
    def test_nested_integer_field_exit_1(
        self, tmp_path, k44_file, edge_tree_file, path, change
    ):
        cert = tmp_path / "cert.json"
        main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)])
        data = json.loads(cert.read_text())
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = change(node[last])
        cert.write_text(json.dumps(data))
        assert main(["verify", str(k44_file), str(cert)]) == 1


    @pytest.mark.parametrize("path", [("tree_image",), ("triple", "f")], ids=["tree_image", "triple.f"])
    def test_repeated_entry_exit_1(self, tmp_path, k44_file, edge_tree_file, path, capsys):
        cert = tmp_path / "cert.json"
        main(["find", str(k44_file), str(edge_tree_file), "1", "--out", str(cert)])
        data = json.loads(cert.read_text())
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = node[last] + node[last][:1]  # the first entry, again
        cert.write_text(json.dumps(data))
        assert main(["verify", str(k44_file), str(cert)]) == 1
        assert "repeats an entry" in capsys.readouterr().err


class TestOracle:
    def test_none_is_still_exit_0(self, tmp_path, edge_tree_file, capsys):
        c4 = tmp_path / "c4.txt"
        c4.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
        assert main(["oracle", str(c4), str(edge_tree_file), "2"]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_witness_printed(self, k44_file, edge_tree_file, capsys):
        assert main(["oracle", str(k44_file), str(edge_tree_file), "1"]) == 0
        mapping = json.loads(capsys.readouterr().out)
        assert len(mapping) == 2

    def test_guard_exit_6(self, tmp_path, edge_tree_file):
        big = tmp_path / "big.txt"
        big.write_text(format_edge_list(complete_bipartite(8, 8)))
        assert main(["oracle", str(big), str(edge_tree_file), "1"]) == 6

    def test_k_below_one_exit_1(self, k44_file, edge_tree_file, capsys):
        assert main(["oracle", str(k44_file), str(edge_tree_file), "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be positive" in captured.err


class TestTriples:
    def test_listing_matches_enumeration(self, tmp_path, capsys):
        c6 = tmp_path / "c6.txt"
        c6.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["triples", str(c6), "--p", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "total: 7"
        assert len(out) == 8

    @pytest.mark.parametrize(
        "limit, footer", [(0, "total: 0 (truncated)"), (3, "total: 3 (truncated)"), (7, "total: 7")]
    )
    def test_limit(self, tmp_path, capsys, limit, footer):
        c6 = tmp_path / "c6.txt"
        c6.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["triples", str(c6), "--p", "1", "--limit", str(limit)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == footer
        assert len(out) == limit + 1

    def test_negative_limit_exit_1(self, tmp_path, capsys):
        c6 = tmp_path / "c6.txt"
        c6.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert main(["triples", str(c6), "--p", "1", "--limit", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit" in captured.err

    def test_guard_exit_6(self, tmp_path, capsys):
        # K6,6 has 12 vertices, above the triple enumeration guard (10).
        k66 = tmp_path / "k66.txt"
        k66.write_text(format_edge_list(complete_bipartite(6, 6)))
        assert main(["triples", str(k66), "--p", "1"]) == 6
        assert "triple enumeration guard: 12 > 10" in capsys.readouterr().err


class TestGen:
    def test_petersen_edge_list(self, capsys):
        assert main(["gen", "petersen"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 10 and g.edge_count == 15

    def test_out_file(self, tmp_path):
        out = tmp_path / "k44.txt"
        assert main(["gen", "complete-bipartite", "4", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[:3] == ["# complete-bipartite (4, 4) seed=0", "8", "0 4"]

    def test_dot_output(self, capsys):
        assert main(["gen", "cycle", "4", "--format", "dot"]) == 0
        assert "0 -- 1" in capsys.readouterr().out

    def test_seeded_deterministic_bytes(self, capsys):
        main(["gen", "random-bipartite", "5", "5", "3", "7"])
        first = capsys.readouterr().out
        main(["gen", "random-bipartite", "5", "5", "3", "7"])
        assert capsys.readouterr().out == first

    def test_unknown_family_exit_1(self, capsys):
        assert main(["gen", "nonsense"]) == 1

    @pytest.mark.parametrize(
        "params", [["random-tree", "3.7", "1"], ["random-bipartite", "4", "4", "2.5", "1"]]
    )
    def test_non_integer_parameter_exit_1(self, params, capsys):
        assert main(["gen", *params]) == 1
        assert "integer" in capsys.readouterr().err


class TestSuite:
    def test_end_to_end(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(
            "complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n"
            "petersen ; path 1 ; 1 ; girth:2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["suite", str(manifest), "--out-dir", str(out_dir)]) == 0
        aggregate = json.loads(capsys.readouterr().out)
        assert aggregate["certified"] == 2
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.csv").exists()
        certs = list((out_dir / "certs").glob("*.json"))
        assert len(certs) == 2

    def test_missing_manifest_exit_1(self, tmp_path):
        assert main(["suite", str(tmp_path / "nope.txt")]) == 1

    def test_manifest_k_zero_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(
            "complete-bipartite 4 4 ; path 2 ; 0 ; bipartite\n"
            "complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n"
        )
        assert main(["suite", str(manifest), "--out-dir", str(tmp_path / "out")]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n")
        out_dir = tmp_path / "out"
        assert main(["suite", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_jobs_flag_matches_sequential(self, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(
            "complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n"
            "hypercube 3 ; path 2 ; 1 ; auto\n"
        )
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert main(["suite", str(manifest), "--out-dir", str(seq_dir)]) == 0
        assert main(["suite", str(manifest), "--out-dir", str(par_dir), "--jobs", "2"]) == 0
        assert (seq_dir / "report.json").read_bytes() == (par_dir / "report.json").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("complete-bipartite 4 4 ; path 2 ; 1 ; bipartite\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["suite", str(manifest), "--out-dir", str(out1)]) == 0
        assert main(["suite", str(manifest), "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        for cert in (out1 / "certs").glob("*.json"):
            assert cert.read_bytes() == (out2 / "certs" / cert.name).read_bytes()

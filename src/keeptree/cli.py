"""Command-line front end: find, verify, oracle, triples, gen, suite.

Exit codes are stable: 0 success, 1 parse/input errors, 2 hypothesis
failure, 3 search exhaustion, 4 violation diagnostic, 5 certificate
verification failure, 6 brute-force guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificate import parse_case, verify_certificate
from .errors import (
    GuardExceeded,
    HypothesisFailure,
    KeeptreeError,
    ParseError,
    SearchExhausted,
    TheoremViolation,
)
from .families import FAMILY_HELP, gen_graph, parse_family_token
from .harness import oracle_exists, parse_manifest, run_suite
from .io import format_edge_list, load_graph, load_tree, to_dot
from .pipeline import find_keeping_tree
from .triples import enumerate_triples

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_HYPOTHESIS = 2
EXIT_SEARCH = 3
EXIT_VIOLATION = 4
EXIT_VERIFY = 5
EXIT_GUARD = 6


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors land in the parse-error exit code."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _cmd_find(args) -> int:
    g = load_graph(args.graph)
    tree = load_tree(args.tree)
    sel = parse_case(args.case)
    cert = find_keeping_tree(g, tree, args.k, sel, force=args.force)
    out = Path(args.out)
    out.write_text(cert.canonical_json())
    triple = cert.triple.triple
    summary = {
        "case": cert.case.label(),
        "beta": str(cert.beta),
        "threshold": str(cert.threshold),
        "delta": cert.hypothesis["delta"],
        "f_size": len(triple.f),
        "s1_size": len(triple.s1),
        "s2_size": len(triple.s2),
        "tree_image": sorted(cert.embedding.image()),
        "connectivity_after_removal": cert.connectivity_after_removal,
        "certificate": str(out),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    try:
        data = json.loads(Path(args.certificate).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read certificate: {exc}") from exc
    report = verify_certificate(g, data)
    if report.passed:
        print("certificate OK")
        return EXIT_OK
    print(f"verification failed: {report.first_failure()}", file=sys.stderr)
    return EXIT_VERIFY


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    tree = load_tree(args.tree)
    emb = oracle_exists(g, tree, args.k)
    if emb is None:
        print("none")
    else:
        print(json.dumps([list(pair) for pair in emb.mapping]))
    return EXIT_OK


def _cmd_triples(args) -> int:
    g = load_graph(args.graph)
    found, truncated = enumerate_triples(g, args.p, limit=args.limit)
    for t in found:
        print(
            f"p={t.p} s1={sorted(t.s1)} s2={sorted(t.s2)} f={sorted(t.f)}"
        )
    print(f"total: {len(found)}" + (" (truncated)" if truncated else ""))
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = parse_family_token(" ".join([args.family] + args.params))
    g = gen_graph(spec)
    text = to_dot(g) if args.format == "dot" else format_edge_list(
        g, comment=f"{spec.family} {spec.params} seed={spec.seed}"
    )
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_suite(args) -> int:
    try:
        text = Path(args.manifest).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read manifest: {exc}") from exc
    instances = parse_manifest(text)
    report = run_suite(instances, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json(with_timing=args.timing))
    (out_dir / "report.csv").write_text(report.to_csv(with_timing=args.timing))
    certs = out_dir / "certs"
    certs.mkdir(exist_ok=True)
    for instance_id, cert_json in sorted(report.certificates.items()):
        (certs / f"{instance_id}.json").write_text(cert_json)
    print(json.dumps(report.aggregate, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="keeptree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="find a connectivity-keeping subtree")
    find.add_argument("graph")
    find.add_argument("tree")
    find.add_argument("k", type=int)
    find.add_argument(
        "--case",
        default="auto",
        help="auto, triangle-free, bipartite, or girth[:t]",
    )
    find.add_argument("--force", action="store_true", help="run below thresholds")
    find.add_argument("--out", default="certificate.json")
    find.add_argument("--json", action="store_true", help="summary as JSON")
    find.set_defaults(func=_cmd_find)

    verify = sub.add_parser("verify", help="re-check a certificate from scratch")
    verify.add_argument("graph")
    verify.add_argument("certificate")
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="exhaustive removal-witness search")
    oracle.add_argument("graph")
    oracle.add_argument("tree")
    oracle.add_argument("k", type=int)
    oracle.set_defaults(func=_cmd_oracle)

    triples = sub.add_parser("triples", help="enumerate all connected triples")
    triples.add_argument("graph")
    triples.add_argument("--p", type=int, required=True)
    triples.add_argument("--limit", type=int, default=None)
    triples.set_defaults(func=_cmd_triples)

    families = ", ".join(
        f"{name} [{params}]" if params else name
        for name, params in sorted(FAMILY_HELP.items())
    )
    gen = sub.add_parser("gen", help=f"generate a family graph ({families})")
    gen.add_argument("family")
    gen.add_argument("params", nargs="*")
    gen.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    suite = sub.add_parser("suite", help="run a corpus manifest")
    suite.add_argument("manifest")
    suite.add_argument("--out-dir", default="suite-out")
    suite.add_argument("--jobs", type=int, default=1)
    suite.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timings (breaks byte-for-byte comparability)",
    )
    suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except TheoremViolation as exc:
        print(f"violation diagnostic: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeeptreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

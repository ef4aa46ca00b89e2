"""keeptree benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, as a table

The package is imported from ``src/`` next to this directory; the run fails
(exit 2, no result) when it is missing.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON ``detail`` record: sample
counts, the failed fraction, the sha256 of the canonical certificates of
one pass and the drift loop's seconds before and after the run.

``--trace 0`` measures the end-to-end metrics (``END_TO_END``) in a closed
loop for ``--seconds`` seconds with tracing off, in whole passes over the
workload's instances.  Every time is reported at a reference speed: a
short fixed loop is timed after every instance, and each sample is
multiplied by the loop's nominal seconds over its median in the sample's
pass.  Each instance is timed at its median pass; the percentiles are over
instances, ``certs_per_s`` is the instance count over the sum of their
times, and ``setup_s`` is scaled by the median loop of the whole run.  The
detail line gives the scales and the same metrics unscaled.  ``--trace 1`` alternates
two untraced and two traced passes over a fixed set of instances (the whole
suite, or the first four dense/clustered hosts), reports the per-layer
metrics of the first traced pass (``tracer.LAYER_METRICS``) and the tracing
overhead, checks that both traced passes made the same calls, and writes
the spans to ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: End-to-end metrics, (name, unit), reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("find_s_p50", "s"),
    ("verify_s_p50", "s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("certs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
WORKLOADS = ("suite", "dense", "clustered")


def end_to_end(typical, setup_s: float) -> dict[str, float]:
    """Metrics from each instance's time (``workloads.typical_times``)."""
    if not typical:
        raise RuntimeError("no instance succeeded")
    instance_ms = [s.instance_s * 1000.0 for s in typical]
    return {
        "setup_s": setup_s,
        "find_s_p50": statistics.median(s.find_s for s in typical),
        "verify_s_p50": statistics.median(s.verify_s for s in typical),
        "instance_ms_p50": statistics.median(instance_ms),
        "instance_ms_p90": workloads.p90(instance_ms),
        "certs_per_s": len(typical) / sum(s.instance_s for s in typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL, out_dir: Path = OUT):
    """One run; returns (detail, result) where result is the output object."""
    drift_before = workloads.drift_loop()
    if trace:
        wl, setup_times = workloads.setup(name, seed, sizes, 1)
    else:
        wl, setup_times = workloads.setup(
            name, seed, sizes, workloads.SETUP_REPEATS, workloads.SETUP_MIN_S)
    detail = {"workload": name, "seed": seed, "trace": int(trace)}
    if trace:
        passes = workloads.traced_passes(wl)
        samples = passes["samples"]
        metrics = tracer.layer_metrics(passes["tracer"].spans, passes["overhead_s"])
        units = dict(tracer.LAYER_METRICS)
        phases = {}
        for rec in passes["tracer"].spans:
            if rec[tracer.NAME].startswith("bench."):
                key = rec[tracer.NAME]
                phases[key] = phases.get(key, 0.0) + rec[tracer.END] - rec[tracer.START]
        detail.update(
            instances_per_pass=passes["instances"],
            untraced_wall_s=passes["untraced_wall_s"],
            traced_wall_s=passes["traced_wall_s"],
            calls_match=passes["calls_match"],
            phase_s=phases,
            spans=len(passes["tracer"].spans),
        )
        path = out_dir / f"trace-{name}-seed{seed}.json"
        passes["tracer"].write(path, {"workload": name, "seed": seed})
        detail["trace_file"] = os.path.relpath(path)
        correct = passes["calls_match"]
        first_pass = samples[: passes["instances"]]
    else:
        passes, wall = workloads.measure(wl, seconds)
        samples = [s for p in passes for s in p.samples]
        reference_s = statistics.median(r for p in passes for r in p.references)
        setup_s = statistics.median(setup_times)
        typical = workloads.typical_times(passes)
        metrics = end_to_end(typical, setup_s * workloads.REFERENCE_NOMINAL_S / reference_s)
        units = dict(END_TO_END)
        detail.update(
            reference_chunk_s=reference_s,
            pass_scales=[p.scale for p in passes],
            unscaled=end_to_end(workloads.typical_times(passes, scaled=False), setup_s),
            samples=len(samples),
            passes=len(passes),
            instances_per_pass=len(wl.instances),
            instances_timed=len(typical),
            wall_s=wall,
            setup_repeats_s=setup_times,
        )
        correct = True
        first_pass = samples[: len(wl.instances)]
    failed = [s for s in samples if not s.ok]
    detail.update(
        failed_frac=len(failed) / len(samples),
        first_errors=[f"{s.instance_id}: {s.error}" for s in failed[:3]],
        cert_sha256=workloads.cert_digest(first_pass),
        drift_loop_s={"before": drift_before, "after": workloads.drift_loop()},
    )
    result = {
        "correct": correct and not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, result


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:10s} FAILED (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name:10s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:50s} {m['value']:14.6g} {m['unit']}")
    return status


def use_sources() -> None:
    """Import keeptree from the sources next to the benchmark, never from
    anywhere else; exit 2 when they are missing."""
    if not (SRC / "keeptree" / "__init__.py").is_file():
        sys.stderr.write(f"keeptree sources not found under {SRC}\n")
        sys.exit(2)
    # A guard from the environment would change what the suite runs.
    os.environ.pop("KEEPTREE_GUARD", None)
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    use_sources()
    sys.exit(main())

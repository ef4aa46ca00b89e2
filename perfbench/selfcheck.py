"""Fast self-check of the benchmark at its smallest sizes.

Run from the repository root::

    python3 perfbench/selfcheck.py

Every workload runs untraced and traced on tiny inputs.  The check asserts
the output schema, that every metric named in BENCHMARK.json is reported
with its unit and nothing else is, that no time reads 0, that each run is
correct with no failure, that traced call counts repeat exactly, and that a
suite instance makes three ``global_connectivity`` calls.  Last, it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess

import run
import tracer
import workloads

ROOT = run.HERE.parent
OUT = run.OUT / "selfcheck"


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {message}")


def check_result(label: str, result: dict, units: dict[str, str]) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    require(result["correct"] is True, f"{label}: not correct")
    require(type(result["attempted"]) is int and result["attempted"] >= 1, f"{label}: attempted")
    require(result["failed"] == 0, f"{label}: {result['failed']} failed")
    metrics = result["metrics"]
    require(set(metrics) == set(units), f"{label}: metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        require(set(m) == {"value", "unit"}, f"{label}: {name} keys {sorted(m)}")
        require(m["unit"] == units[name], f"{label}: {name} unit {m['unit']} != {units[name]}")
        value = m["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value!r}")
        # A time that is exactly 0 would read the same on every run.
        if m["unit"] in ("s", "ms") and name != "bench.trace_overhead_s":
            require(value > 0, f"{label}: {name} is {value}")
    json.loads(json.dumps(result))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    require(layer == dict(tracer.LAYER_METRICS), "BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")

    for name in run.WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            detail, result = run.run(name, 3, 0.2, trace, workloads.SMALL, OUT)
            check_result(label, result, layer if trace else e2e)
            require(detail["failed_frac"] == 0.0, f"{label}: failed_frac")
            if trace:
                require(detail["calls_match"], f"{label}: call counts differ between traced passes")
                calls = result["metrics"]["connectivity.global_connectivity.calls"]["value"]
                if name == "suite":
                    expected = 3 * detail["instances_per_pass"]
                    require(calls == expected, f"{label}: {calls} global_connectivity calls, expected {expected}")
            print(f"{label}: ok")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*spec["command"], "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    require(proc.returncode != 0 and not proc.stdout.strip(), "ran without the package sources")
    print("without sources: refused")
    print("selfcheck ok")


if __name__ == "__main__":
    run.use_sources()
    main()

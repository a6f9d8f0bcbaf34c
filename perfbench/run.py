"""The repository benchmark: one command, three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kernel --seed 2014 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` runs the same workload with spans
recorded around the program's public calls and reports the per-layer
metrics instead (a layer the workload never reaches reads 0 and is
printed as n/a).  Every run checks its outputs; each violation is
printed and counted in ``failed``, and the command then exits 1.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import (
    WORK,
    SetupError,
    add_source_path,
    config,
    declared_metrics,
    host_facts,
)

WORKLOADS = ("model_sweep", "kernel", "serve")
TIME_UNITS = ("s", "ms", "us")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and return its raw result dict."""
    if name == "model_sweep":
        import sweep

        return sweep.run(seed, seconds, traced)
    if name == "kernel":
        import kernel

        return kernel.run(seed, seconds, traced)
    import serving

    return serving.run(seed, seconds, traced)


def report(name: str, seed: int, traced: bool, result: dict) -> dict:
    """Print the human summary and return the contract's JSON object."""
    declared = declared_metrics()
    kinds = config()["kinds_by_unit"]
    group = "per_layer" if traced else "end_to_end"
    measured = dict(result[group])
    result["detail"]["host_probe_ms"] = result["probe_s"] * 1e3
    normalized = () if traced else [
        m for m, spec in declared[group].items()
        if spec["unit"] in TIME_UNITS and m in measured]
    if normalized:
        # End-to-end times are host-normalized (see common.HostProbe).
        factor = config()["probe_ref_s"] / result["probe_s"]
        result["detail"]["raw"] = dict(measured)
        for metric in normalized:
            measured[metric] *= factor
    failures = list(result["failures"])
    metrics = {}
    print(f"workload {name} seed {seed} {'traced' if traced else 'untraced'}")
    print("host " + json.dumps(host_facts(), sort_keys=True))
    for key, value in result["detail"].items():
        print(f"  {key}: {json.dumps(value, default=str)}")
    for metric, spec in declared[group].items():
        value = measured.get(metric)
        shown = "n/a"
        if value is not None:
            value = float(value)
            shown = f"{value:.6g}"
            if not math.isfinite(value):
                failures.append(f"metric {metric} is not finite")
        elif group == "end_to_end":
            failures.append(f"metric {metric} was not measured")
        metrics[metric] = {"value": value if value is not None else 0.0,
                           "unit": spec["unit"]}
        kind = kinds[spec["unit"]]
        if metric in normalized:
            kind = "host-normalized time"
        print(f"  {metric} = {shown} {spec['unit']} [{kind}]")
    attempted = max(1, int(result["attempted"]))
    failed = min(len(failures), attempted)
    print(f"  fail_ratio = {failed / attempted:.6g} ratio [count]")
    for f in failures:
        print(f"  VIOLATION: {f}")
    for metric, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0  # reported as a violation above
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        add_source_path()
        declared_metrics()
        config()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced)
    spans = result.pop("spans", None)
    if spans is not None:
        spans.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
    out = report(args.workload, args.seed, traced, result)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

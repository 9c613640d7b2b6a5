"""Measure every workload over several seeds and write a baseline file.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` once per
seed with tracing off, then once with tracing on (first seed). It records
each end-to-end metric's median and quartiles over the seeds, the spread
(interquartile distance over the median, as the acceptance rule takes it),
the per-layer values of the traced run, and each timed layer's share of
the traced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, environment


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, f"trace={trace}", json.dumps(result), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    timed_layers = {
        m["name"] for m in spec["per_layer"] if m["unit"] == "s" and not m["name"].startswith("trace.")
    }
    baseline = {"seeds": seeds, "run_seconds": spec["run_seconds"], "env": environment(seeds[0])}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [invoke(name, seed, spec["run_seconds"], 0) for seed in seeds]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
                "values": values,
            }
        traced = invoke(name, seeds[0], spec["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layers["trace.wall_s"]
        baseline[name] = {
            "why": entry["why"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": layers,
            "layer_shares_of_traced_wall": {
                k: v / wall for k, v in layers.items() if k in timed_layers
            },
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the delaycond CLI: end-to-end metrics, checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py, or ``all`` to run
each in turn. One client runs the workload's CLI command in a fresh child
process, waits for it, checks its outputs and starts the next (a closed
loop with one client) while the next is expected to end within S seconds;
at least one command runs. Before that, ``SETUP_PROBES`` children only
import ``delaycond.cli``.

With ``--trace 0`` the result holds the end-to-end metrics: the medians of
``wall_s`` (time inside ``cli.main``), ``setup_s`` (child start until
``delaycond.cli`` is imported, over the probes and the runs) and
``peak_rss_mb`` (the child's ``ru_maxrss``). With ``--trace 1`` one more child
runs the command with every public function of the package's layer modules
wrapped (see perfbench/spans.py), and the result holds the per-layer metrics
from its spans; its data files must have the same SHA-256 values as the
untraced run's.

A run fails when its exit code is not 0, it raises, or its output check
(perfbench/checks.py) finds a problem. The last line of standard output is
the JSON result; the lines before it give every metric with its unit, the
fail rate and an environment stamp. Exit code 0 means the benchmark ran,
not that every run passed: see ``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_outputs
from spans import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")

SETUP_PROBES = 5

# Every invocation must end within 180 s; children are stopped at this age.
RUN_BUDGET_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(run_dir: str, tag: str, args: list[str], deadline: float) -> dict:
    """Run child.py with ``args``; return its result, or an ``error`` entry."""
    result_path = os.path.join(run_dir, f"{tag}.json")
    log_path = os.path.join(run_dir, f"{tag}.log")
    with open(log_path, "wb") as log:
        spawned_at = time.monotonic()
        argv = [sys.executable, CHILD, SRC, result_path, repr(spawned_at), *args]
        try:
            proc = subprocess.run(
                argv,
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=run_dir,
                timeout=max(deadline - spawned_at, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
    try:
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            result = {"error": f"exit code {proc.returncode}: {handle.read()[-2000:]}"}
    if "error" not in result and result["rc"] != 0:
        result["error"] = f"exit code {result['rc']}"
    return result


def cli_args(workload, config: str, out_dir: str, seed: int) -> list[str]:
    """child.py arguments that run the workload's command once."""
    return [
        "--", workload.subcommand, "--config", config, "--out", out_dir,
        "--seed", str(seed), "--threads", str(nproc()),
    ]


def reference_path(workload, seed: int) -> str:
    """Where the reference outputs for this workload and seed are stored."""
    sub = f"seed-{seed}" if workload.seed_dependent else "any-seed"
    return os.path.join(REFERENCE, workload.name, sub)


def manifest_checksums(out_dir: str) -> dict | None:
    try:
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as handle:
            return json.load(handle)["checksums"]
    except (OSError, ValueError, KeyError):
        return None


def bytes_written(out_dir: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def run_workload(workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; return its metric values, counts and problems.

    With ``trace`` the traced command runs first, and untraced commands
    follow only while one more fits before the deadline, so a slow machine
    loses ``trace.overhead_s`` (reported absent) instead of the whole run.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        config = workload.write_inputs(run_dir, seed)
        reference = reference_path(workload, seed)
        if not os.path.isdir(reference):
            reference = None
        setups, walls, rss = [], [], []
        problems: list[str] = []
        attempted = failed = 0

        for k in range(SETUP_PROBES):
            probe = spawn(run_dir, f"probe{k}", [], deadline)
            if "error" in probe:
                raise RuntimeError(f"import of delaycond.cli failed: {probe['error']}")
            setups.append(probe["setup_s"])

        def measure(tag: str, extra: list[str]) -> tuple[dict, str]:
            nonlocal attempted, failed
            out_dir = os.path.join(run_dir, tag)
            result = spawn(run_dir, tag, extra + cli_args(workload, config, out_dir, seed), deadline)
            attempted += 1
            found = [result["error"]] if "error" in result else check_outputs(
                workload, out_dir, reference
            )
            if found:
                failed += 1
                problems.extend(f"{tag}: {item}" for item in found)
            return result, out_dir

        values: dict = {}
        samples: dict = {}
        warnings: list[str] = []
        slowest = 0.0
        if trace:
            spans_path = os.path.join(WORK, f"{workload.name}.spans.json")
            traced, traced_out = measure("traced", ["--spans", spans_path])
            if "wall_s" not in traced:
                raise RuntimeError(f"the traced run did not complete: {traced['error']}")
            with open(spans_path, encoding="utf-8") as handle:
                values, warnings = layer_metrics(json.load(handle))
            values["runner.bytes_written"] = bytes_written(traced_out)
            values["trace.wall_s"] = slowest = traced["wall_s"]

        start = time.monotonic()
        last_out = None
        while True:
            elapsed, started = time.monotonic() - start, attempted - trace
            # start another command only while it is expected to end in the window
            if started and elapsed + elapsed / started > seconds:
                break
            estimate = slowest + statistics.median(setups)
            if time.monotonic() + 1.2 * estimate > deadline:
                break
            result, out_dir = measure(f"run{attempted}", [])
            if "wall_s" in result:
                setups.append(result["setup_s"])
                walls.append(result["wall_s"])
                rss.append(result["rss_mb"])
                slowest = max(slowest, result["wall_s"])
            if last_out is not None:
                shutil.rmtree(last_out, ignore_errors=True)
            last_out = out_dir

        if trace:
            if not walls:
                warnings.append("trace.overhead_s absent: no untraced run fitted the time limit")
            else:
                values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
                traced_sums, untraced_sums = manifest_checksums(traced_out), manifest_checksums(last_out)
                if traced_sums and untraced_sums and traced_sums != untraced_sums:
                    failed += 1
                    problems.append("traced: data files differ from the untraced run")
        elif not walls:
            raise RuntimeError(f"no run of {workload.name} completed: {problems}")
        else:
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss),
            }
            samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(rss)}
        return {
            "values": values,
            "samples": samples,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "warnings": warnings,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            # never look for a repository above the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc(),
        "threads": nproc(),
        "git_commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(SRC, "delaycond", "cli.py")):
        print(f"error: no delaycond sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    metrics = {}
    attempted = failed = 0
    for name in names:
        outcome = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        for warning in outcome["warnings"]:
            print(f"warning: {name}: {warning}", file=sys.stderr)
        for problem in outcome["problems"]:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in listed:
            value = outcome["values"].get(metric["name"])
            if value is None:
                continue
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
            count = outcome["samples"].get(metric["name"])
            of = f" (median of {count})" if count else ""
            print(f"{name}: {metric['name']} = {value:.6g} {metric['unit']}{of}")
        fail_rate = outcome["failed"] / outcome["attempted"]
        print(f"{name}: fail_rate = {fail_rate:g} ({outcome['failed']} of {outcome['attempted']} runs)")
        if len(names) > 1:
            metrics[prefix + "fail_rate"] = {"value": fail_rate, "unit": "1"}
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Store one run's data files as the reference the output check compares with.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py --workload NAME --seed N

Writes perfbench/reference/NAME/seed-N/ (or any-seed/ for a workload whose
outputs do not depend on the seed), one gzip file per data file. Refresh a
reference only in a change that is meant to alter program output, and say
so in that change.
"""

from __future__ import annotations

import argparse
import gzip
import os
import shutil
import sys
import time

import run
from checks import check_outputs, data_files
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, run.SRC)

    run_dir = os.path.join(run.WORK, f"reference-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        config = workload.write_inputs(run_dir, args.seed)
        out_dir = os.path.join(run_dir, "out")
        cli_args = run.cli_args(workload, config, out_dir, args.seed)
        result = run.spawn(run_dir, "run", cli_args, time.monotonic() + 600.0)
        problems = [result["error"]] if "error" in result else check_outputs(
            workload, out_dir, None
        )
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        target = run.reference_path(workload, args.seed)
        os.makedirs(target, exist_ok=True)
        for name in data_files(workload):
            with open(os.path.join(out_dir, name), "rb") as src:
                payload = src.read()
            with open(os.path.join(target, name + ".gz"), "wb") as raw:
                # mtime 0 keeps the stored bytes a function of the data alone
                with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=9, mtime=0) as dst:
                    dst.write(payload)
        print(f"reference written to {target}")
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

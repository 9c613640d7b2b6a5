#!/usr/bin/env python3
"""Reproduce the shift-system experiments end to end.

Runs the three CLI subcommands on the configs next to this script:
the exhaustive bound check, the conditioning-vs-delays scaling study, and a
full conditioning report. Results land under results/ in the current
directory (override with --out-root).
"""

import argparse
import os
import sys

from delaycond.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

RUNS = [
    ("lemma-check", "shift_lemma.cfg", "shift_lemma"),
    ("scaling", "shift_scaling.cfg", "shift_scaling"),
    ("report", "shift_report.cfg", "shift_report"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="results")
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args(argv)

    for command, config_name, out_name in RUNS:
        config_path = os.path.join(CONFIG_DIR, config_name)
        out_dir = os.path.join(args.out_root, out_name)
        print(f"== {command} ({config_name}) -> {out_dir}")
        code = cli_main(
            [
                command,
                "--config",
                config_path,
                "--out",
                out_dir,
                "--threads",
                str(args.threads),
            ]
        )
        if code != 0:
            print(f"{command} exited with {code}", file=sys.stderr)
            return code
    print("all runs completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

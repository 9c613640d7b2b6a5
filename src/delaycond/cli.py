"""Command-line experiment runner.

Subcommands: ``lemma-check`` (exhaustive shift-system soft-rank bound),
``scaling`` (conditioning vs number of delays), ``report`` (full Monte Carlo
conditioning report). Exit codes: 0 all assertions passed, 1 configuration
or runtime error, 2 an enabled assertion failed (bound violated or oracle
disagreement).
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import DelaycondError
from .runner import run_full_report, run_lemma_check, run_scaling_study


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a key = value config file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=None, help="override base_seed")
    sub.add_argument(
        "--threads", type=int, default=0, help="pair-scan threads; 0 picks the CPU count"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaycond",
        description="Conditioning experiments for delay-coordinate maps",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("lemma-check", "exhaustive shift-system soft-rank bound check"),
        ("scaling", "conditioning-vs-delays scaling study"),
        ("report", "full Monte Carlo conditioning report"),
    ):
        _add_common(subparsers.add_parser(name, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed
        # assertions here, so remap bad usage to the config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        overrides = {} if args.seed is None else {"base_seed": str(args.seed)}
        config = load_config(args.config, overrides)
        out_dir = args.out if args.out is not None else config.outputs
        threads = args.threads

        if args.command == "lemma-check":
            summary = run_lemma_check(config, out_dir, threads=threads)
            for entry in summary["per_m"]:
                status = (
                    "ok"
                    if entry["all_bounds_satisfied"] and entry["oracle_agreement_ok"]
                    else "FAILED"
                )
                print(
                    f"M={entry['num_delays']}: infimum soft rank "
                    f"{entry['infimum']:.6f} over {entry['num_pairs']} pairs "
                    f"[{status}]"
                )
            if not summary["passed"]:
                print("lemma-check: bound violated or oracle disagreement", file=sys.stderr)
                return 2
            print(f"lemma-check passed; reports in {out_dir}")
            return 0

        if args.command == "scaling":
            summary = run_scaling_study(config, out_dir, threads=threads)
            print(
                f"fitted slope of log median-eps vs log M: "
                f"{summary['slope']:.4f} +/- {summary['slope_stderr']:.4f}"
            )
            print(f"reports in {out_dir}")
            return 0

        summary = run_full_report(config, out_dir, threads=threads)
        print(
            f"median eps {summary['eps_median']:.4f}, max eps {summary['eps_max']:.4f}, "
            f"infimum soft rank {summary['infimum_soft_rank']:.4f}"
        )
        print(f"reports in {out_dir}")
        return 0
    except DelaycondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

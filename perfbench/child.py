"""Run one ``delaycond`` CLI command in this fresh process and record its cost.

Usage: child.py SRC_DIR RESULT_JSON SPAWNED_AT [--spans SPANS_JSON] [-- CLI ARGS]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes on the machine, so
``setup_s`` spans interpreter start-up and the import of ``delaycond.cli``.
Without CLI arguments the process only imports and reports ``setup_s``.
With ``--spans`` the public functions of the package are traced and the spans
are written to SPANS_JSON when the command ends.
"""

import sys
import time


def main() -> int:
    src_dir, result_path, spawned_at = sys.argv[1], sys.argv[2], float(sys.argv[3])
    rest = sys.argv[4:]
    sys.path.insert(0, src_dir)
    from delaycond import cli

    setup_s = time.monotonic() - spawned_at

    # imported only now, so that setup_s covers delaycond alone
    import json
    import os
    import resource
    import traceback

    package_dir = os.path.realpath(os.path.dirname(cli.__file__))
    if package_dir != os.path.realpath(os.path.join(src_dir, "delaycond")):
        print(f"delaycond was imported from {package_dir}, not {src_dir}", file=sys.stderr)
        return 3

    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    result = {"setup_s": setup_s}
    rc = 0
    if cli_args:
        recorder = None
        if spans_path is not None:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            recorder.install()
        start = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        except Exception:
            # An exception escaping the CLI is a failed run, not a crash of
            # the benchmark: record it and report a non-zero exit code.
            result["error"] = traceback.format_exc()
            rc = 1
        result["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.write(spans_path)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rc"] = rc
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the output check: a perturbed cell must count as a failure.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Rebuilds the lemma_shift128 outputs from the stored reference (with a fresh
manifest), then checks that the intact copy passes, that a cell changed
within the 1e-12 tolerance passes, and that one cell changed by 1e-9
relative, or set to NaN, fails. Needs no delaycond import; exits 0 when all
four hold.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import sys

from checks import check_outputs, data_files
from run import REFERENCE, WORK
from workloads import LEMMA_SHIFT128

CELL = ("lemma_check_M8.csv", 11, 3)  # file, line (0 = header), soft_rank column


def build_outputs(out_dir: str, reference: str, edit=None) -> None:
    """Write the reference data files to ``out_dir``, optionally editing one
    CSV cell with ``edit(text) -> text``, and a manifest that matches them."""
    os.makedirs(out_dir)
    checksums = {}
    for name in data_files(LEMMA_SHIFT128):
        with gzip.open(os.path.join(reference, name + ".gz"), "rb") as handle:
            payload = handle.read()
        if edit is not None and name == CELL[0]:
            lines = payload.decode("utf-8").split("\r\n")
            cells = lines[CELL[1]].split(",")
            cells[CELL[2]] = edit(cells[CELL[2]])
            lines[CELL[1]] = ",".join(cells)
            payload = "\r\n".join(lines).encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as handle:
            handle.write(payload)
        checksums[name] = hashlib.sha256(payload).hexdigest()
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as handle:
        json.dump({"checksums": checksums}, handle)


def main() -> int:
    reference = os.path.join(REFERENCE, LEMMA_SHIFT128.name, "any-seed")
    root = os.path.join(WORK, f"selftest-{os.getpid()}")
    cases = [
        ("intact copy", None, True),
        ("cell scaled by 1 + 1e-14", lambda c: repr(float(c) * (1 + 1e-14)), True),
        ("cell scaled by 1 + 1e-9", lambda c: repr(float(c) * (1 + 1e-9)), False),
        ("cell set to nan", lambda c: "nan", False),
    ]
    ok = True
    try:
        for k, (label, edit, should_pass) in enumerate(cases):
            out_dir = os.path.join(root, str(k))
            build_outputs(out_dir, reference, edit)
            problems = check_outputs(LEMMA_SHIFT128, out_dir, reference)
            passed = not problems
            verdict = "ok" if passed == should_pass else "WRONG"
            ok = ok and passed == should_pass
            expected = "passes" if should_pass else "fails"
            print(f"{verdict}: {label} {expected}; check found {problems or 'no problem'}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Output check for one benchmark run; every problem it finds fails the run.

A run's outputs pass when:

* the manifest lists exactly the data files the subcommand writes, and each
  file's SHA-256 matches the manifest;
* no CSV cell or JSON number is NaN or infinite;
* the subcommand's invariants hold (see ``INVARIANTS``);
* where a stored reference exists for the workload and seed, every cell
  matches it: integers and text exactly, other numbers to 1e-12 relative
  (the rounding contract in ROADMAP.md). The manifest itself is not
  compared, since it carries a timestamp.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import os
import re

REL_TOL = 1e-12

# Rounding-noise measurements, a few ulps in size; the invariants check them
# against their own tolerance instead of the reference.
NOISE_FIELDS = {"max_oracle_disagreement"}

# At most this many mismatches are listed per file.
MAX_LISTED = 5

_INT = re.compile(r"-?\d+$")


def data_files(workload) -> list[str]:
    """The data files (all but the manifest) that the workload's run writes."""
    if workload.subcommand == "lemma-check":
        return [f"lemma_check_M{m}.csv" for m in workload.delays] + ["lemma_summary.json"]
    if workload.subcommand == "scaling":
        return ["scaling.csv", "scaling_summary.json"]
    return ["embedding_report.json", "per_pair.csv", "geometry.json", "theorem_check.json"]


def parse(name: str, text: str):
    """A CSV file as a list of rows of cells, a JSON file as its value."""
    if name.endswith(".csv"):
        return list(csv.reader(io.StringIO(text)))
    return json.loads(text)


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _nonfinite(name: str, value) -> list[str]:
    bad = []
    if isinstance(value, list) and value and isinstance(value[0], list):  # CSV rows
        for r, row in enumerate(value):
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    bad.append(f"{name}: non-finite cell {cell!r} in row {r}")
        return bad[:MAX_LISTED]

    def walk(obj, where):
        if isinstance(obj, dict):
            for key, item in obj.items():
                walk(item, f"{where}.{key}")
        elif isinstance(obj, list):
            for k, item in enumerate(obj):
                walk(item, f"{where}[{k}]")
        elif isinstance(obj, float) and not math.isfinite(obj):
            bad.append(f"{name}: non-finite value {obj} at {where}")

    walk(value, "")
    return bad[:MAX_LISTED]


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _cells_match(ref: str, got: str) -> bool:
    if ref == got:
        return True
    if _INT.match(ref):
        return False
    try:
        return _close(float(ref), float(got))
    except ValueError:
        return False


def compare(name: str, ref, got) -> list[str]:
    """Mismatches of one parsed data file against its reference."""
    bad: list[str] = []
    if name.endswith(".csv"):
        if len(ref) != len(got):
            return [f"{name}: {len(got)} rows, reference has {len(ref)}"]
        for r, (ref_row, got_row) in enumerate(zip(ref, got)):
            if len(ref_row) != len(got_row):
                bad.append(f"{name}: row {r} has {len(got_row)} cells, reference {len(ref_row)}")
                continue
            for c, (a, b) in enumerate(zip(ref_row, got_row)):
                if not _cells_match(a, b):
                    bad.append(f"{name}: row {r} column {ref[0][c]}: {b} != reference {a}")
        return bad[:MAX_LISTED]

    def walk(a, b, where):
        if isinstance(a, dict):
            if not isinstance(b, dict) or set(a) != set(b):
                bad.append(f"{name}: keys differ at {where or '.'}")
                return
            for key in a:
                if key not in NOISE_FIELDS:
                    walk(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list):
            if not isinstance(b, list) or len(a) != len(b):
                bad.append(f"{name}: length differs at {where}")
                return
            for k, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{k}]")
        elif isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
            if not _close(a, float(b)):
                bad.append(f"{name}: {where}: {b!r} != reference {a!r}")
        elif type(a) is not type(b) or a != b:
            bad.append(f"{name}: {where}: {b!r} != reference {a!r}")

    walk(ref, got, "")
    return bad[:MAX_LISTED]


def _column(table, name: str) -> list[str]:
    k = table[0].index(name)
    return [row[k] for row in table[1:]]


def _lemma_invariants(workload, data) -> list[str]:
    bad = []
    num_pairs = workload.num_samples * (workload.num_samples - 1) // 2
    summary = data["lemma_summary.json"]
    if summary["passed"] is not True:
        bad.append("lemma_summary.json: passed is not true")
    if [entry["num_delays"] for entry in summary["per_m"]] != list(workload.delays):
        bad.append("lemma_summary.json: per_m does not cover the configured delays")
    for entry in summary["per_m"]:
        name = f"lemma_check_M{entry['num_delays']}.csv"
        soft_ranks = [float(v) for v in _column(data[name], "soft_rank")]
        if len(soft_ranks) != num_pairs or entry["num_pairs"] != num_pairs:
            bad.append(f"{name}: {len(soft_ranks)} rows, expected C(n,2) = {num_pairs}")
        if min(soft_ranks) != entry["infimum"]:
            bad.append(f"{name}: minimum soft_rank {min(soft_ranks)} != infimum {entry['infimum']}")
        if set(_column(data[name], "satisfied")) != {"true"}:
            bad.append(f"{name}: a pair breaks the M/2 bound")
    return bad


def _scaling_invariants(workload, data) -> list[str]:
    bad = []
    m_column = [int(v) for v in _column(data["scaling.csv"], "M")]
    if m_column != list(workload.delays):
        bad.append(f"scaling.csv: M column {m_column}, expected one row per M {list(workload.delays)}")
    if data["scaling_summary.json"]["num_delays"] != list(workload.delays):
        bad.append("scaling_summary.json: num_delays does not match the configured delays")
    return bad


def _report_invariants(workload, data) -> list[str]:
    bad = []
    num_pairs = workload.num_samples * (workload.num_samples - 1) // 2
    report = data["embedding_report.json"]
    soft_ranks = [float(v) for v in _column(data["per_pair.csv"], "soft_rank")]
    if len(soft_ranks) != num_pairs:
        bad.append(f"per_pair.csv: {len(soft_ranks)} rows, expected C(n,2) = {num_pairs}")
    if min(soft_ranks) != report["infimum_soft_rank"]:
        bad.append(
            f"per_pair.csv: minimum soft_rank {min(soft_ranks)} != "
            f"infimum_soft_rank {report['infimum_soft_rank']}"
        )
    if len(report["per_draw"]) != report["num_draws"]:
        bad.append("embedding_report.json: per_draw does not hold one entry per draw")
    return bad


INVARIANTS = {
    "lemma-check": _lemma_invariants,
    "scaling": _scaling_invariants,
    "report": _report_invariants,
}


def load_reference(reference_dir: str, name: str):
    with gzip.open(os.path.join(reference_dir, name + ".gz"), "rt", encoding="utf-8") as handle:
        return parse(name, handle.read())


def check_outputs(workload, out_dir: str, reference_dir: str | None) -> list[str]:
    """Every problem found in one run's outputs; empty when the run is correct."""
    try:
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as handle:
            checksums = json.load(handle)["checksums"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"run_manifest.json missing or unreadable: {exc!r}"]
    expected = data_files(workload)
    if sorted(checksums) != sorted(expected):
        return [f"manifest lists {sorted(checksums)}, expected {sorted(expected)}"]

    bad: list[str] = []
    data = {}
    for name in expected:
        path = os.path.join(out_dir, name)
        try:
            if _sha256(path) != checksums[name]:
                bad.append(f"{name}: SHA-256 differs from the manifest")
            with open(path, encoding="utf-8") as handle:
                data[name] = parse(name, handle.read())
        except (OSError, ValueError) as exc:
            bad.append(f"{name}: unreadable: {exc!r}")
            continue
        bad += _nonfinite(name, data[name])
    if bad:
        return bad
    try:
        bad += INVARIANTS[workload.subcommand](workload, data)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        bad.append(f"outputs do not have the documented layout: {exc!r}")
    if reference_dir is not None:
        for name in expected:
            bad += compare(name, load_reference(reference_dir, name), data[name])
    return bad

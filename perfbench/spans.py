"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps every public function of the package's layer modules
from outside the package, so the program itself carries no tracing code. A
span is one call: (id, parent id, function name, start, end, count). Spans
stay in memory until ``write`` saves them once, after the traced command.

Functions are patched at every import site: ``runner`` and
``embedding_analysis`` bind names with ``from .spectral import ...``, so
replacing only the attribute of the defining module would miss their calls.

A span opened on a thread with no open span of its own, such as a draw in
the Monte Carlo thread pool, takes as parent the innermost open span of the
thread that installed the recorder; that thread is blocked inside
``monte_carlo`` while the pool runs, so draws are charged to it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "delaycond"

LAYERS = (
    "config",
    "delay_map",
    "spectral",
    "embedding_analysis",
    "geometry",
    "dynamics",
    "runner",
)

# Result attribute recorded as the span's count, for functions whose work is
# counted in units other than calls.
COUNT_ATTRIBUTES = {
    "spectral.infimum_soft_rank": "num_pairs",
    "embedding_analysis.monte_carlo": "num_draws",
}

WRITERS = ("runner.write_csv", "runner.write_json", "runner.write_manifest")


class SpanRecorder:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, func):
        count_attribute = COUNT_ATTRIBUTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            count = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if count_attribute is not None:
                    count = getattr(result, count_attribute, None)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic, so pool threads may record concurrently
                self.spans.append((span_id, parent, name, start, end, count))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module at every import site."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    replacements[obj] = self.wrap(name, obj)
                    self.wrapped.append(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, attr, replacements[obj])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"wrapped": sorted(self.wrapped), "spans": self.spans}, handle)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per function: calls, summed self time, and summed counts.

    Self time is a span's duration minus the union of its children's
    intervals, so concurrent children in pool threads are not subtracted
    twice.
    """
    children = defaultdict(list)
    for span_id, parent, _name, start, end, _count in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "count": 0}
    )
    for span_id, _parent, name, start, end, count in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children[span_id], start, end)
        if count is None:
            entry["count"] = None
        elif entry["count"] is not None:
            entry["count"] += count
    return dict(out)


# Per-layer metrics: name -> (kind, functions). "self_s" sums the self time
# and "calls" the spans of the listed functions; "count" sums their recorded
# counts.
TIMED = {
    "spectral.infimum_soft_rank_s": ("self_s", ["spectral.infimum_soft_rank"]),
    "spectral.infimum_soft_rank_calls": ("calls", ["spectral.infimum_soft_rank"]),
    "spectral.pairs_scanned": ("count", ["spectral.infimum_soft_rank"]),
    "spectral.shift_system_oracle_s": ("self_s", ["spectral.shift_system_oracle"]),
    "spectral.shift_system_oracle_calls": ("calls", ["spectral.shift_system_oracle"]),
    "delay_map.trajectory_matrices_s": ("self_s", ["delay_map.trajectory_matrices"]),
    "delay_map.trajectory_matrices_calls": ("calls", ["delay_map.trajectory_matrices"]),
    "embedding_analysis.monte_carlo_s": ("self_s", ["embedding_analysis.monte_carlo"]),
    "embedding_analysis.draws": ("count", ["embedding_analysis.monte_carlo"]),
    "delay_map.draw_coeffs_s": ("self_s", ["delay_map.draw_coeffs"]),
    "delay_map.draw_coeffs_calls": ("calls", ["delay_map.draw_coeffs"]),
    "runner.write_s": ("self_s", list(WRITERS)),
    "embedding_analysis.scaling_study_s": ("self_s", ["embedding_analysis.scaling_study"]),
    "geometry.reach_estimate_s": ("self_s", ["geometry.reach_estimate"]),
    "geometry.curve_volume_s": ("self_s", ["geometry.curve_volume"]),
    "geometry.trajectory_manifold_points_s": (
        "self_s",
        ["geometry.trajectory_manifold_points"],
    ),
    "geometry.delay_selection_s": ("self_s", ["geometry.delay_selection"]),
    "dynamics.lyapunov_exponent_inverse_flow_s": (
        "self_s",
        ["dynamics.lyapunov_exponent_inverse_flow"],
    ),
    "config.load_s": ("self_s", ["config.load_config"]),
}


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from a written trace, and warnings.

    A metric whose function was not found to wrap (renamed or merged by a
    later change) is left out with a warning instead of failing the run.
    """
    wrapped = set(trace["wrapped"])
    per_function = summarize(trace["spans"])
    values: dict[str, float] = {}
    warnings: list[str] = []
    for metric, (kind, functions) in TIMED.items():
        missing = [f for f in functions if f not in wrapped]
        if missing:
            warnings.append(f"{metric} absent: no function {', '.join(missing)} to trace")
            continue
        entries = [per_function.get(f, {"calls": 0, "self_s": 0.0, "count": 0}) for f in functions]
        if any(e[kind] is None for e in entries):
            warnings.append(f"{metric} absent: {functions[0]} result has no count")
            continue
        values[metric] = sum(e[kind] for e in entries)
    values["runner.self_s"] = sum(
        entry["self_s"]
        for name, entry in per_function.items()
        if name.startswith("runner.") and name not in WRITERS
    )
    if "spectral.pairs_scanned" in values and values.get("spectral.infimum_soft_rank_s"):
        values["spectral.pairs_per_s"] = (
            values["spectral.pairs_scanned"] / values["spectral.infimum_soft_rank_s"]
        )
    return values, warnings

"""Flat key = value experiment configuration: parsing and validation.

Format: UTF-8 text, one ``key = value`` per line, blank lines ignored. A
``#`` at the start of a line or after whitespace starts a comment; any other
``#`` is part of the value, so ``samples_path = runs#3/pts.csv`` keeps it.
Unknown and duplicate keys are rejected so a typo cannot silently change an
experiment. Every validation failure names the offending key; parse
failures name the line.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .delay_map import ENSEMBLES
from .dynamics import FlowSpec, make_linear_flow, make_shift_flow
from .errors import ConfigError
from .geometry import sample_attractor

_DEFAULT_EPS_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    Every field but ``raw_items`` is the config key of the same name, and
    those fields are the keys a config file may give. ``raw_items`` echoes
    the parsed key/value pairs for the run manifest.
    """

    kind: str
    ambient_dim: int | None
    matrix_path: str | None
    sampling_interval: float
    origin: str
    num_samples: int | None
    samples_path: str | None
    delays: list[int]
    ensemble: str
    num_draws: int
    base_seed: int
    outputs: str
    target_eps_grid: list[float]
    c_user: float | None
    manifold_dim: float | None
    num_bins: int
    raw_items: dict[str, str] = field(default_factory=dict)


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"raw_items"}


def _parse_items(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    items: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        items[key] = value
    return items


def _get_int(items, key, minimum=None):
    try:
        value = int(items[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {items[key]!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _get_float(items, key, positive=False):
    try:
        value = float(items[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {items[key]!r}") from None
    if positive and not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    return value


def _get_int_list(items, key, minimum=1):
    try:
        values = [int(tok) for tok in items[key].split(",")]
    except ValueError:
        raise ConfigError(
            f"{key}: expected comma-separated integers, got {items[key]!r}"
        ) from None
    if any(v < minimum for v in values):
        raise ConfigError(f"{key}: all entries must be >= {minimum}, got {values}")
    return values


def _get_float_list(items, key):
    try:
        return [float(tok) for tok in items[key].split(",")]
    except ValueError:
        raise ConfigError(
            f"{key}: expected comma-separated numbers, got {items[key]!r}"
        ) from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; see the module docstring for format."""
    items = _parse_items(path)
    base_dir = os.path.dirname(os.path.abspath(path))

    if "kind" not in items:
        raise ConfigError("kind: required (shift or linear)")
    kind = items["kind"]
    if kind not in ("shift", "linear"):
        raise ConfigError(f"kind: must be one of shift, linear; got {kind!r}")

    ambient_dim = None
    matrix_path = None
    if kind == "shift":
        if "ambient_dim" not in items:
            raise ConfigError("ambient_dim: required for kind = shift")
        ambient_dim = _get_int(items, "ambient_dim", minimum=2)
    else:
        if "matrix_path" not in items:
            raise ConfigError("matrix_path: required for kind = linear")
        matrix_path = items["matrix_path"]
        if not os.path.isabs(matrix_path):
            matrix_path = os.path.join(base_dir, matrix_path)
        if not os.path.isfile(matrix_path):
            raise ConfigError(f"matrix_path: no such file: {items['matrix_path']!r}")

    samples_path = None
    num_samples = None
    if "samples_path" in items:
        if "num_samples" in items or "origin" in items:
            raise ConfigError(
                "samples_path: give either samples_path or origin/num_samples, not both"
            )
        samples_path = items["samples_path"]
        if not os.path.isabs(samples_path):
            samples_path = os.path.join(base_dir, samples_path)
        if not os.path.isfile(samples_path):
            raise ConfigError(f"samples_path: no such file: {items['samples_path']!r}")
    else:
        if "num_samples" not in items:
            raise ConfigError("num_samples: required when samples_path is not given")
        num_samples = _get_int(items, "num_samples", minimum=2)

    if "delays" not in items:
        raise ConfigError("delays: required (one integer, or a comma list)")
    delays = _get_int_list(items, "delays", minimum=1)

    ensemble = items.get("ensemble", "rademacher")
    if ensemble not in ENSEMBLES:
        raise ConfigError(
            f"ensemble: must be one of {', '.join(ENSEMBLES)}; got {ensemble!r}"
        )

    if ("c_user" in items) != ("manifold_dim" in items):
        raise ConfigError("c_user: c_user and manifold_dim must be given together")
    c_user = _get_float(items, "c_user", positive=True) if "c_user" in items else None
    manifold_dim = (
        _get_float(items, "manifold_dim", positive=True)
        if "manifold_dim" in items
        else None
    )

    target_eps_grid = (
        _get_float_list(items, "target_eps_grid")
        if "target_eps_grid" in items
        else list(_DEFAULT_EPS_GRID)
    )
    if any(not g > 0 for g in target_eps_grid):
        raise ConfigError(f"target_eps_grid: entries must be positive, got {target_eps_grid}")

    return ExperimentConfig(
        kind=kind,
        ambient_dim=ambient_dim,
        matrix_path=matrix_path,
        sampling_interval=(
            _get_float(items, "sampling_interval", positive=True)
            if "sampling_interval" in items
            else 1.0
        ),
        origin=items.get("origin", "e1"),
        num_samples=num_samples,
        samples_path=samples_path,
        delays=delays,
        ensemble=ensemble,
        num_draws=_get_int(items, "num_draws", minimum=1) if "num_draws" in items else 100,
        base_seed=_get_int(items, "base_seed") if "base_seed" in items else 0,
        outputs=items.get("outputs", "results"),
        target_eps_grid=target_eps_grid,
        c_user=c_user,
        manifold_dim=manifold_dim,
        num_bins=_get_int(items, "num_bins", minimum=2) if "num_bins" in items else 16,
        raw_items=items,
    )


def _load_csv(path: str, key: str) -> np.ndarray:
    """The rows of a numeric CSV file, or a ConfigError naming ``key``."""
    with warnings.catch_warnings():
        # numpy only warns on a file with no rows; that is rejected below
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{key}: could not parse CSV: {exc}") from exc
    if rows.shape[0] == 0:
        raise ConfigError(f"{key}: the file holds no rows")
    return rows


def build_flow(config: ExperimentConfig) -> FlowSpec:
    """Instantiate the configured flow."""
    if config.kind == "shift":
        return make_shift_flow(config.ambient_dim, config.sampling_interval)
    matrix = _load_csv(config.matrix_path, "matrix_path")
    return make_linear_flow(matrix, config.sampling_interval)


def parse_origin(origin_text: str, ambient_dim: int) -> np.ndarray:
    """Origin state: 'e<k>' picks the k-th coordinate axis (1-based), or
    a comma-separated coordinate list."""
    text = origin_text.strip()
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if not 1 <= k <= ambient_dim:
            raise ConfigError(f"origin: axis {text!r} out of range for dimension {ambient_dim}")
        origin = np.zeros(ambient_dim)
        origin[k - 1] = 1.0
        return origin
    try:
        origin = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"origin: expected 'e<k>' or comma-separated floats, got {text!r}") from None
    if origin.shape != (ambient_dim,):
        raise ConfigError(
            f"origin: got {origin.size} coordinates, flow dimension is {ambient_dim}"
        )
    return origin


def build_samples(config: ExperimentConfig, flow: FlowSpec):
    """Sample states for the scans.

    Returns (states, description, period): orbit samples carry their
    detected period (None if the orbit never wrapped); explicit sample
    files carry period None and are not assumed orbit-ordered.
    """
    if config.samples_path is not None:
        states = _load_csv(config.samples_path, "samples_path")
        if states.shape[1] != flow.ambient_dim:
            raise ConfigError(
                f"samples_path: states have dimension {states.shape[1]}, "
                f"flow dimension is {flow.ambient_dim}"
            )
        return states, f"file:{os.path.basename(config.samples_path)}", None
    origin = parse_origin(config.origin, flow.ambient_dim)
    sample = sample_attractor(flow, origin, config.num_samples)
    desc = f"orbit(origin={config.origin}, n={config.num_samples})"
    return sample.states, desc, sample.period

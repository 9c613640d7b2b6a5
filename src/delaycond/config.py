"""Flat key = value experiment configuration: parsing and validation.

Format: UTF-8 text, one ``key = value`` per line, blank lines ignored. A
``#`` at the start of a line or after whitespace starts a comment; any other
``#`` is part of the value, so ``samples_path = runs#3/pts.csv`` keeps it.
Unknown and duplicate keys are rejected so a typo cannot silently change an
experiment. Every validation failure names the offending key; parse
failures name the line.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .delay_map import ENSEMBLES
from .dynamics import FlowSpec, make_linear_flow, make_shift_flow
from .errors import ConfigError, InvalidArgumentError, NonInvertibleFlowError
from .geometry import DEFAULT_NUM_BINS, sample_attractor


def _integer(minimum: int):
    """Parser of an integer >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _number(text: str) -> float:
    """Parser of a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _comma_list(parse):
    """Parser of a comma list whose every entry ``parse`` accepts."""
    return lambda text: [parse(token) for token in text.split(",")]


def _distinct(parse):
    """Parser of a list that ``parse`` accepts, with no entry given twice."""
    def parse_distinct(text: str) -> list:
        values = parse(text)
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ValueError(f"{value} is given twice")
        return values
    return parse_distinct


def _choice(*options: str):
    """Parser of one of ``options``."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {text!r}")
        return text
    return parse


def _key(parse, default=None):
    """A config key's field: ``parse`` turns its text into its value, or
    raises ValueError; ``default`` is its value when the file omits it."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"parse": parse})
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    Every field but ``raw_items`` is the config key of the same name, and
    those fields are the keys a config file may give. Each key's parser and
    bound are in its field's metadata and its default is the field's
    default; ``kind`` and ``delays`` have none, ``load_config`` requires
    them. ``raw_items`` echoes the parsed key/value pairs for the run
    manifest.
    """

    kind: str = _key(_choice("shift", "linear"))
    ambient_dim: int | None = _key(_integer(minimum=2))
    matrix_path: str | None = _key(str)
    sampling_interval: float = _key(_number, 1.0)
    origin: str = _key(str, "e1")
    num_samples: int | None = _key(_integer(minimum=2))
    samples_path: str | None = _key(str)
    delays: list[int] = _key(_distinct(_comma_list(_integer(minimum=1))))
    ensemble: str = _key(_choice(*ENSEMBLES), "rademacher")
    num_draws: int = _key(_integer(minimum=1), 100)
    base_seed: int = _key(_integer(minimum=0), 0)
    outputs: str = _key(str, "results")
    target_eps_grid: list[float] = _key(
        _comma_list(_number), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    )
    c_user: float | None = _key(_number)
    manifold_dim: float | None = _key(_number)
    num_bins: int = _key(_integer(minimum=2), DEFAULT_NUM_BINS)
    raw_items: dict[str, str] = field(default_factory=dict)


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"raw_items"}


def _parse_items(path: str) -> dict[str, str]:
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def load_config(path: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate a config file; see the module docstring for format.

    ``overrides`` replaces or adds key/value pairs before they are parsed, so
    an override is validated, and echoed in ``raw_items``, as the file's
    own text would be.
    """
    items = {**_parse_items(path), **(overrides or {})}
    values = {}
    for spec in fields(ExperimentConfig):
        if spec.name in items:
            try:
                values[spec.name] = spec.metadata["parse"](items[spec.name])
            except ValueError as exc:
                raise ConfigError(f"{spec.name}: {exc}") from None

    if "kind" not in items:
        raise ConfigError("kind: required (shift or linear)")
    if values["kind"] == "shift" and "ambient_dim" not in items:
        raise ConfigError("ambient_dim: required for kind = shift")
    if values["kind"] == "linear" and "matrix_path" not in items:
        raise ConfigError("matrix_path: required for kind = linear")
    if "samples_path" in items:
        if "num_samples" in items or "origin" in items:
            raise ConfigError(
                "samples_path: give either samples_path or origin/num_samples, not both"
            )
    elif "num_samples" not in items:
        raise ConfigError("num_samples: required when samples_path is not given")
    if "delays" not in items:
        raise ConfigError("delays: required (one integer, or a comma list)")
    if ("c_user" in items) != ("manifold_dim" in items):
        raise ConfigError("c_user: c_user and manifold_dim must be given together")

    base_dir = os.path.dirname(os.path.abspath(path))
    for key in ("matrix_path", "samples_path"):
        if key in items:
            # an absolute path is kept as given
            values[key] = os.path.join(base_dir, items[key])
            if not os.path.isfile(values[key]):
                raise ConfigError(f"{key}: no such file: {items[key]!r}")
    return ExperimentConfig(**values, raw_items=items)


def _load_csv(path: str, key: str) -> np.ndarray:
    """The rows of a numeric CSV file, or a ConfigError naming ``key``.

    Read as UTF-8 with an optional byte-order mark, which spreadsheet
    exports ("CSV UTF-8") write first.
    """
    with warnings.catch_warnings():
        # numpy only warns on a file with no rows; that is rejected below
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
        except ValueError as exc:
            raise ConfigError(f"{key}: could not parse CSV: {exc}") from exc
    if rows.shape[0] == 0:
        raise ConfigError(f"{key}: the file holds no rows")
    return rows


def build_flow(config: ExperimentConfig) -> FlowSpec:
    """Instantiate the configured flow; a given ``ambient_dim`` must be its dimension.

    A ``matrix_path`` matrix that is not square, not finite or singular is a
    ConfigError naming that key.
    """
    if config.kind == "shift":
        return make_shift_flow(config.ambient_dim)
    matrix = _load_csv(config.matrix_path, "matrix_path")
    try:
        flow = make_linear_flow(matrix)
    except (InvalidArgumentError, NonInvertibleFlowError) as exc:
        raise ConfigError(f"matrix_path: {exc}") from exc
    if config.ambient_dim not in (None, flow.ambient_dim):
        raise ConfigError(
            f"ambient_dim: {config.ambient_dim} does not match the "
            f"{flow.ambient_dim} x {flow.ambient_dim} matrix of matrix_path"
        )
    return flow


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
    files carry period None and are not assumed orbit-ordered. A sample
    file needs at least 2 rows, the bound of ``num_samples``.
    """
    if config.samples_path is not None:
        states = _load_csv(config.samples_path, "samples_path")
        if states.shape[1] != flow.ambient_dim:
            raise ConfigError(
                f"samples_path: states have dimension {states.shape[1]}, "
                f"flow dimension is {flow.ambient_dim}"
            )
        if states.shape[0] < 2:
            raise ConfigError(
                f"samples_path: need at least 2 samples to form a pair, got {states.shape[0]}"
            )
        return states, f"file:{os.path.basename(config.samples_path)}", None
    origin = parse_origin(config.origin, flow.ambient_dim)
    sample = sample_attractor(flow, origin, config.num_samples)
    desc = f"orbit(origin={config.origin}, n={config.num_samples})"
    return sample.states, desc, sample.period

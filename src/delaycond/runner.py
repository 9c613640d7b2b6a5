"""Experiment drivers writing machine-readable reports.

Data files are CSV (header row, ``,`` between cells, CRLF line ends, no
quoting, floats in shortest round-trip form); metadata and summaries are
JSON with sorted keys. Every number is a pure function of (config, package
version), so reruns produce byte-identical data files; the run manifest,
written last, records a SHA-256 checksum per data file plus the fields that
may differ between reruns: the timestamp, the chunk counts and the
environment (versions, threads, CPU count).

Each driver computes its data files as values, then ``_write_run`` writes
them all, so a run that fails leaves the output directory as it was.

A JSON record of one result (a draw's conditioning, the Lyapunov estimate,
the delay selection, the theorem check) holds its dataclass's fields, so a
field added there enters the data file. Column-by-column and field-by-field
documentation lives in docs/report_schema.md.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform

import numpy as np
import scipy

from ._version import __version__
from .config import ExperimentConfig, build_flow, build_samples
from .delay_map import (
    DelayParams,
    MeasurementCoeffs,
    draw_stream,
    time_series,
)
from .dynamics import FlowSpec, lyapunov_exponent_inverse_flow
from .embedding_analysis import (
    EmbeddingReport,
    monte_carlo,
    scaling_study,
    theorem_condition_check,
)
from .errors import ConfigError, NoEstimateError, ZeroVarianceError
from .geometry import (
    REACH_BIAS_NOTE,
    VOLUME_BIAS_NOTE,
    curve_volume,
    delay_selection,
    finite_difference_tangents,
    reach_estimate,
    trajectory_manifold_points,
)
from .spectral import (
    BOUND_SLACK,
    PairScanResult,
    PairTable,
    infimum_soft_rank,
    resolve_threads,
    shift_system_oracle,
)

# Dense soft rank and analytic oracle must agree to this tolerance.
ORACLE_TOLERANCE = 1e-10


# Rows of a CSV formed and written at a time, so the text in flight never
# holds a whole file.
_CSV_BLOCK_ROWS = 4096


def _csv_cells(values: np.ndarray) -> list[str]:
    """The cell texts of a column, each distinct value formatted once.

    Floats are told apart by their bit patterns, so ``-0.0`` and ``0.0``
    keep their own text.
    """
    if values.dtype == bool:
        return np.array(["false", "true"], dtype=object)[values.view(np.uint8)].tolist()
    keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
    distinct, rows = np.unique(keys, return_inverse=True)
    words = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
    return words[rows].tolist()


def write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    """Write the column names, then one row per entry of the 1-D arrays.

    The dialect is the one ``csv.writer`` writes for these cells: ``,``
    between cells, CRLF line ends and no quoting (no header or cell holds a
    comma, quote or line break). Cells are the ``tolist()`` values: ``repr``
    floats (shortest round-trip form) and ``str`` ints; a bool column reads
    ``true``/``false``. The rows are formed and written ``_CSV_BLOCK_ROWS``
    at a time, and each column of a block formats each distinct value once.
    """
    num_rows = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\r\n")
        for start in range(0, num_rows, _CSV_BLOCK_ROWS):
            block = [_csv_cells(values[start:start + _CSV_BLOCK_ROWS]) for values in columns.values()]
            handle.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _counts(scan: PairScanResult, num_delays: int, draws: int) -> dict:
    """The manifest's ``counts.per_m`` entry of one scan and the draws made on its table."""
    return {
        "num_delays": num_delays,
        "pairs": scan.num_pairs,
        "pairs_certified": scan.num_certified,
        "chunks": scan.num_chunks,
        "draws": draws,
    }


def _environment(threads: int) -> dict:
    """The manifest's ``environment``: what the run ran on, ``threads`` the resolved count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "cpu_count": os.cpu_count(),
    }


def write_manifest(
    out_dir: str,
    config: ExperimentConfig,
    names: list[str],
    counts: list[dict],
    threads: int,
) -> None:
    """Write the run manifest (last, once) with per-file checksums.

    ``counts`` (one ``_counts`` entry per delay count) says how much work
    the run did, and ``environment`` what it ran on; both live here, never
    in a data file, since the number of dense-SVD pairs depends on which
    scan path ran and the chunk counts on ``threads``.
    """
    manifest = {
        "artifact_version": __version__,
        "config": dict(sorted(config.raw_items.items())),
        "checksums": {name: _sha256(os.path.join(out_dir, name)) for name in names},
        "counts": {"per_m": counts},
        "environment": _environment(threads),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _write_run(
    out_dir: str,
    config: ExperimentConfig,
    files: dict[str, dict],
    counts: list[dict],
    threads: int,
) -> None:
    """Write each data file of a computed run, then its manifest.

    ``files`` maps a ``.csv`` name to its columns (header name -> 1-D array)
    and any other name to a JSON payload.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            write_csv(path, content)
        else:
            write_json(path, content)
    write_manifest(out_dir, config, list(files), counts, threads)


def run_lemma_check(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Soft-rank bound check of every sample pair of the shift system.

    Writes one CSV per delay count (every pair's soft rank, the analytic
    oracle value, the m/2 bound, and whether it held) plus a summary JSON.
    A pair in the scan's band holds its own dense value, and any other pair
    its screen value, its own up to rounding (``infimum_soft_rank``).
    Returns the summary; ``passed`` is False when any pair broke the bound
    or its soft rank disagreed with the oracle beyond 1e-10. Every sample
    must be an exact basis state e_p, or a ConfigError names the samples'
    key (``origin`` or ``samples_path``) and the first sample that is not.
    """
    threads = resolve_threads(threads)
    if config.kind != "shift":
        raise ConfigError(
            f"kind: lemma-check is defined for the shift system only; got {config.kind}"
        )
    n = config.ambient_dim
    if max(config.delays) > n:
        raise ConfigError(
            f"delays: the shift-system oracle needs M <= N = {n}; got M = {max(config.delays)}"
        )
    flow = build_flow(config)
    samples, desc, _period = build_samples(config, flow)
    # the oracle's separations need each sample to be exactly some e_p
    basis = np.argmax(samples != 0.0, axis=1)
    exact = np.count_nonzero(samples, axis=1) == 1
    exact &= samples[np.arange(len(samples)), basis] == 1.0
    if not exact.all():
        key = "origin" if config.samples_path is None else "samples_path"
        raise ConfigError(
            f"{key}: lemma-check needs exact canonical basis states as samples; "
            f"sample {int(np.argmin(exact))} is not one"
        )

    files = {}
    per_m = []
    counts = []
    passed = True
    for m in config.delays:
        table = PairTable(flow, samples, DelayParams(m))
        scan = infimum_soft_rank(table, threads=threads)
        bound = m / 2.0
        seps = (basis[table.j_idx] - basis[table.i_idx]) % n
        # the oracle depends on the pair only through its separation
        unique_seps, where = np.unique(seps, return_inverse=True)
        oracle = shift_system_oracle(n, m, unique_seps)[where]
        max_disagreement = float(np.max(np.abs(scan.soft_ranks - oracle)))
        satisfied = scan.soft_ranks >= bound - BOUND_SLACK
        all_satisfied = bool(np.all(satisfied))
        files[f"lemma_check_M{m}.csv"] = {
            "i": table.i_idx,
            "j": table.j_idx,
            "d": seps,
            "soft_rank": scan.soft_ranks,
            "oracle_value": oracle,
            "bound_M_over_2": np.full(table.num_pairs, bound),
            "satisfied": satisfied,
        }
        counts.append(_counts(scan, m, 0))
        oracle_ok = max_disagreement <= ORACLE_TOLERANCE
        passed = passed and all_satisfied and oracle_ok
        per_m.append(
            {
                "num_delays": m,
                "infimum": scan.infimum,
                "argmin_pair": list(scan.argmin_pair),
                "num_pairs": scan.num_pairs,
                "all_bounds_satisfied": all_satisfied,
                "max_oracle_disagreement": max_disagreement,
                "oracle_agreement_ok": oracle_ok,
            }
        )

    summary = {
        "ambient_dim": n,
        "samples": desc,
        "per_m": per_m,
        "passed": passed,
    }
    files["lemma_summary.json"] = summary
    _write_run(out_dir, config, files, counts, threads)
    return summary


def _scaling_row(
    flow: FlowSpec, samples: np.ndarray, m: int, draws: list[MeasurementCoeffs], threads: int
) -> tuple[float, dict, EmbeddingReport]:
    """One M of the scaling study: its scan's infimum and counts, and the draws' report.

    The table and its scan are locals, so each M's are freed before the next
    M builds its own.
    """
    table = PairTable(flow, samples, DelayParams(m))
    scan = infimum_soft_rank(table, threads=threads)
    report = monte_carlo(table, draws)
    return scan.infimum, _counts(scan, m, report.num_draws), report


def run_scaling_study(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Median-eps-vs-M table and slope fit; see docs/report_schema.md.

    Every M takes its own table and scan and the same draws.
    """
    threads = resolve_threads(threads)
    delays = config.delays
    if len(delays) < 3:
        raise ConfigError("delays: scaling study needs at least 3 delay counts")
    if delays != sorted(delays):
        raise ConfigError(f"delays: the scaling study needs ascending delay counts, got {delays}")
    flow = build_flow(config)
    samples, desc, _period = build_samples(config, flow)
    draws = draw_stream(config.ensemble, flow.ambient_dim, config.num_draws, config.base_seed)
    rows = [_scaling_row(flow, samples, m, draws, threads) for m in delays]
    infima, counts, reports = zip(*rows)
    medians = [r.quantiles[0.5] for r in reports]
    study = scaling_study(delays, medians)

    table = {
        "M": np.array(delays),
        "infimum_soft_rank": np.array(infima),
        "eps_median": np.array(medians),
        "eps_q05": np.array([r.quantiles[0.05] for r in reports]),
        "eps_q95": np.array([r.quantiles[0.95] for r in reports]),
        "eps_max": np.array([r.eps_max for r in reports]),
    }
    summary = {
        "slope": study.slope,
        "slope_stderr": study.slope_stderr,
        "num_delays": delays,
        "eps_median": table["eps_median"].tolist(),
        "eps_mean": [r.eps_mean for r in reports],
        "eps_max": table["eps_max"].tolist(),
        "ensemble": config.ensemble,
        "num_draws": config.num_draws,
        "base_seed": config.base_seed,
        "samples": desc,
        "ambient_dim": flow.ambient_dim,
    }
    _write_run(
        out_dir,
        config,
        {"scaling.csv": table, "scaling_summary.json": summary},
        list(counts),
        threads,
    )
    return summary


def _manifold_entry(config: ExperimentConfig, table: PairTable, period: int | None) -> dict:
    """The trajectory manifold's volume and reach, or a note saying why there are none.

    The manifold's points are the trajectory vectors of ``table``'s samples,
    which are the orbit in order unless the config names a sample file. No
    draw enters, so the entry is known before any draw is made.
    """
    num_samples = table.shape[0]
    if config.samples_path is not None:
        return {"note": "volume and reach need orbit-ordered samples; got an explicit sample file"}
    if num_samples < 3:
        return {
            "note": "volume and reach need at least 3 orbit-ordered samples for "
            f"finite-difference tangents; got {num_samples}"
        }
    points = trajectory_manifold_points(table)
    closed = period == num_samples
    try:
        reach = reach_estimate(points, finite_difference_tangents(points))
    except NoEstimateError as err:  # the orbit lies on a line
        return {"note": f"reach needs a curved orbit: {err}"}
    return {
        "volume": curve_volume(points, closed=closed),
        "volume_bias": VOLUME_BIAS_NOTE,
        "reach": reach.value,
        "reach_bias": REACH_BIAS_NOTE,
        "reach_excluded_pairs": reach.num_excluded,
        "reach_num_pairs": reach.num_pairs,
        "dim": config.manifold_dim if config.manifold_dim is not None else 1.0,
        "num_points": int(points.shape[0]),
        "closed_curve": closed,
    }


def _dynamics_entries(
    config: ExperimentConfig, table: PairTable, alpha0: MeasurementCoeffs
) -> dict:
    """The inverse flow's Lyapunov estimate and the delay-selection baselines.

    The delay-selection series is the orbit measured by ``alpha0``, the
    first draw.
    """
    samples = table.samples
    lyap = lyapunov_exponent_inverse_flow(table.flow, num_steps=200, seed=config.base_seed)
    entries: dict = {"inverse_flow_lyapunov": vars(lyap)}
    if config.samples_path is None and samples.shape[0] >= 8:
        # orbit-ordered samples are the orbit itself
        series = time_series(samples, alpha0)
        try:
            selection = delay_selection(series, num_bins=config.num_bins)
            entries["delay_selection"] = {
                **vars(selection),
                "series_alpha_seed": alpha0.seed,
                "series_length": int(series.size),
            }
        except ZeroVarianceError:
            entries["delay_selection"] = {
                "note": "series is constant under the first drawn coefficients"
            }
    else:
        entries["delay_selection"] = {
            "note": "needs at least 8 orbit-ordered samples"
        }
    return entries


def _per_pair_columns(
    table: PairTable, scan: PairScanResult, report: EmbeddingReport
) -> dict[str, np.ndarray]:
    """The ``per_pair.csv`` columns of ``table``'s scan and its report that kept per-pair values.

    Soft ranks are coefficient-free; ratio aggregates run over the draws,
    from the report's per-pair order statistics. Rounding is monotone, so
    the state ratios' order statistics are the ratios' own times the pair's
    scale; the medians are the mean of the one or two middle values, formed
    as np.median forms it. State-space-denominator ratios are the secondary
    diagnostic (the conditioning is measured in trajectory space).
    """
    state_scale = table.traj_dist_sq / table.state_dist_sq
    return {
        "i": table.i_idx,
        "j": table.j_idx,
        "state_dist_sq": table.state_dist_sq,
        "traj_dist_sq": table.traj_dist_sq,
        "soft_rank": scan.soft_ranks,
        "ratio_min": report.ratio_min,
        "ratio_median": np.mean(report.ratio_mid, axis=0),
        "ratio_max": report.ratio_max,
        "state_ratio_min": report.ratio_min * state_scale,
        "state_ratio_median": np.mean(report.ratio_mid * state_scale, axis=0),
        "state_ratio_max": report.ratio_max * state_scale,
    }


def run_full_report(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Monte Carlo conditioning report with per-pair and geometry companions."""
    threads = resolve_threads(threads)
    if len(config.delays) != 1:
        raise ConfigError("delays: the report runs a single delay count; give one value")
    flow = build_flow(config)
    samples, desc, period = build_samples(config, flow)
    params = DelayParams(config.delays[0])
    table = PairTable(flow, samples, params)
    manifold = _manifold_entry(config, table, period)
    if config.c_user is not None and "reach" not in manifold:
        raise ConfigError(
            "c_user: the theorem check needs the trajectory manifold's volume and reach, "
            f"which need a curved orbit of at least 3 orbit-ordered samples; {manifold['note']}"
        )
    draws = draw_stream(config.ensemble, flow.ambient_dim, config.num_draws, config.base_seed)
    # before the draws, so that a bad ``num_bins`` fails before any of them
    dynamics = _dynamics_entries(config, table, draws[0])
    # the draws' (draws, pairs) order keys live only as long as the call,
    # and the call runs before the scan, so the two peaks of memory never
    # add up
    report = monte_carlo(table, draws, keep_per_pair=True)
    scan = infimum_soft_rank(table, threads=threads)

    report_payload = {
        "ensemble": config.ensemble,
        "num_draws": config.num_draws,
        "base_seed": config.base_seed,
        "params": {
            "ambient_dim": flow.ambient_dim,
            "num_delays": params.num_delays,
            "num_samples": table.shape[0],
            "sampling_interval": config.sampling_interval,
            "samples": desc,
        },
        "quantiles": {f"{q:.2f}": v for q, v in report.quantiles.items()},
        "eps_median": report.quantiles[0.5],
        "eps_mean": report.eps_mean,
        "eps_max": report.eps_max,
        "failure_rate_curve": {
            "target_eps": list(config.target_eps_grid),
            "rate": [report.failure_rate(g) for g in config.target_eps_grid],
        },
        "infimum_soft_rank": scan.infimum,
        "per_draw": [{"draw": k, **vars(r)} for k, r in enumerate(report.per_draw)],
    }

    files = {
        "embedding_report.json": report_payload,
        "per_pair.csv": _per_pair_columns(table, scan, report),
        "geometry.json": {"trajectory_manifold": manifold, **dynamics},
    }

    if config.c_user is not None:
        if report.quantiles[0.5] == 0.0:
            raise ConfigError(
                "c_user: the theorem check needs a positive epsilon; "
                "the median eps over the draws is 0"
            )
        check = theorem_condition_check(
            infimum_soft_rank=scan.infimum,
            epsilon=report.quantiles[0.5],
            manifold_dim=config.manifold_dim,
            volume=manifold["volume"],
            reach=manifold["reach"],
            c_user=config.c_user,
        )
        files["theorem_check.json"] = {**vars(check), "epsilon_source": "median over draws"}

    counts = [_counts(scan, params.num_delays, report.num_draws)]
    _write_run(out_dir, config, files, counts, threads)
    return report_payload

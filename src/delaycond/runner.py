"""Experiment drivers writing machine-readable reports.

Data files are CSV (RFC 4180, header row, floats in shortest round-trip
form); metadata and summaries are JSON with sorted keys. Every number is a
pure function of (config, package version), so reruns produce byte-identical
data files; the run manifest, written last, records a SHA-256 checksum per
data file plus the one field that may differ between reruns, the timestamp.

Column-by-column and field-by-field documentation lives in
docs/report_schema.md.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os

import numpy as np

from ._version import __version__
from .config import ExperimentConfig, build_flow, build_samples
from .delay_map import DelayParams, derive_seed, draw_coeffs
from .dynamics import FlowSpec, lyapunov_exponent_inverse_flow
from .embedding_analysis import monte_carlo, scaling_study, theorem_condition_check
from .errors import ConfigError, InvalidArgumentError, ZeroVarianceError
from .geometry import (
    REACH_BIAS_NOTE,
    VOLUME_BIAS_NOTE,
    curve_volume,
    delay_selection,
    finite_difference_tangents,
    reach_estimate,
)
from .spectral import _chunks, infimum_soft_rank, shift_system_oracle

# Floating-point slack on exact-equality bound comparisons (the m/2 bound is
# attained exactly at some (n, m, d), where SVD noise must not flip the verdict).
BOUND_SLACK = 1e-9

# Dense soft rank and analytic oracle must agree to this tolerance.
ORACLE_TOLERANCE = 1e-10


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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


def _counts(num_delays: int, num_pairs: int, num_certified: int, draws: int) -> dict:
    return {
        "num_delays": num_delays,
        "pairs": num_pairs,
        "pairs_certified": num_certified,
        "draws": draws,
    }


def write_manifest(
    out_dir: str, config: ExperimentConfig, data_files: list[str], counts: list[dict]
) -> str:
    """Write the run manifest (last, once) with per-file checksums.

    ``counts`` (one ``_counts`` entry per delay count) says how much work
    the run did; it lives here, never in a data file, since the number of
    dense-SVD pairs depends on which scan path ran.
    """
    manifest = {
        "artifact_version": __version__,
        "config": dict(sorted(config.raw_items.items())),
        "checksums": {name: _sha256(os.path.join(out_dir, name)) for name in data_files},
        "counts": {"per_m": counts},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, "run_manifest.json")
    write_json(path, manifest)
    return path


def _basis_index(state: np.ndarray) -> int:
    """Index p with state == e_p exactly; error otherwise."""
    nonzero = np.flatnonzero(state)
    if nonzero.size != 1 or state[nonzero[0]] != 1.0:
        raise InvalidArgumentError(
            "lemma check requires exact canonical basis states as samples"
        )
    return int(nonzero[0])


def run_lemma_check(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Exhaustive soft-rank bound check for the shift system.

    Writes one CSV per delay count (every pair's dense soft rank, the
    analytic oracle value, the m/2 bound, and whether it held) plus a
    summary JSON. Returns the summary; ``passed`` is False when any pair
    broke the bound or the dense value disagreed with the oracle beyond
    1e-10.
    """
    if config.kind != "shift":
        raise InvalidArgumentError(
            "lemma-check is defined for the shift system only; got kind="
            + config.kind
        )
    flow = build_flow(config)
    samples, desc, _period = build_samples(config, flow)
    basis = np.array([_basis_index(s) for s in samples])
    n = flow.ambient_dim

    os.makedirs(out_dir, exist_ok=True)
    data_files = []
    per_m = []
    counts = []
    passed = True
    for m in config.delays:
        params = DelayParams(m)
        scan = infimum_soft_rank(flow, samples, params, keep_per_pair=True, threads=threads)
        table = scan.table
        bound = m / 2.0
        seps = (basis[table.j_idx] - basis[table.i_idx]) % n
        # the oracle depends on the pair only through its separation
        unique_seps, where = np.unique(seps, return_inverse=True)
        oracle = np.array([shift_system_oracle(n, m, int(d)).value for d in unique_seps])
        oracle = oracle[where]
        max_disagreement = float(np.max(np.abs(scan.soft_ranks - oracle)))
        satisfied = scan.soft_ranks >= bound - BOUND_SLACK
        all_satisfied = bool(np.all(satisfied))
        rows = list(zip(
            table.i_idx.tolist(),
            table.j_idx.tolist(),
            seps.tolist(),
            scan.soft_ranks.tolist(),
            oracle.tolist(),
            [bound] * table.num_pairs,
            satisfied.tolist(),
        ))
        name = f"lemma_check_M{m}.csv"
        write_csv(
            os.path.join(out_dir, name),
            ["i", "j", "d", "soft_rank", "oracle_value", "bound_M_over_2", "satisfied"],
            rows,
        )
        data_files.append(name)
        counts.append(_counts(m, scan.num_pairs, scan.num_certified, 0))
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
    write_json(os.path.join(out_dir, "lemma_summary.json"), summary)
    data_files.append("lemma_summary.json")
    write_manifest(out_dir, config, data_files, counts)
    return summary


def run_scaling_study(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Median-eps-vs-M table and slope fit; see docs/report_schema.md."""
    if len(config.delays) < 3:
        raise ConfigError("delays: scaling study needs at least 3 delay counts")
    flow = build_flow(config)
    samples, desc, _period = build_samples(config, flow)
    study = scaling_study(
        flow,
        samples,
        config.delays,
        config.ensemble,
        config.num_draws,
        config.base_seed,
        threads=threads,
    )

    os.makedirs(out_dir, exist_ok=True)
    rows = [
        (r.num_delays, r.infimum_soft_rank, r.eps_median, r.eps_q05, r.eps_q95, r.eps_max)
        for r in study.rows
    ]
    write_csv(
        os.path.join(out_dir, "scaling.csv"),
        ["M", "infimum_soft_rank", "eps_median", "eps_q05", "eps_q95", "eps_max"],
        rows,
    )
    summary = {
        "slope": study.slope,
        "slope_stderr": study.slope_stderr,
        "num_delays": [r.num_delays for r in study.rows],
        "eps_median": [r.eps_median for r in study.rows],
        "eps_mean": [r.eps_mean for r in study.rows],
        "eps_max": [r.eps_max for r in study.rows],
        "ensemble": config.ensemble,
        "num_draws": config.num_draws,
        "base_seed": config.base_seed,
        "samples": desc,
        "ambient_dim": flow.ambient_dim,
    }
    write_json(os.path.join(out_dir, "scaling_summary.json"), summary)
    counts = [
        _counts(r.params["num_delays"], r.num_pairs, r.num_certified, r.num_draws)
        for r in study.reports
    ]
    write_manifest(out_dir, config, ["scaling.csv", "scaling_summary.json"], counts)
    return summary


def _geometry_payload(
    config: ExperimentConfig,
    flow: FlowSpec,
    samples: np.ndarray,
    points: np.ndarray,
    period: int | None,
    orbit_ordered: bool,
) -> dict:
    """``points`` holds the trajectory vector of each sample, one per row."""
    payload: dict = {}

    if orbit_ordered:
        closed = period is not None and period == samples.shape[0]
        volume = curve_volume(points, closed=closed)
        reach = reach_estimate(points, finite_difference_tangents(points))
        payload["trajectory_manifold"] = {
            "volume": volume,
            "volume_bias": VOLUME_BIAS_NOTE,
            "reach": reach.value,
            "reach_bias": REACH_BIAS_NOTE,
            "reach_excluded_pairs": reach.num_excluded,
            "reach_num_pairs": reach.num_pairs,
            "dim": config.manifold_dim if config.manifold_dim is not None else 1.0,
            "num_points": int(points.shape[0]),
            "closed_curve": closed,
        }
    else:
        payload["trajectory_manifold"] = {
            "note": "volume and reach need orbit-ordered samples; got an explicit sample file"
        }

    lyap = lyapunov_exponent_inverse_flow(
        flow, samples[0], num_steps=200, perturbation=1e-8, seed=config.base_seed
    )
    payload["inverse_flow_lyapunov"] = {
        "exponent": lyap.exponent,
        "num_steps": lyap.num_steps,
        "num_probes": lyap.num_probes,
    }

    if orbit_ordered and samples.shape[0] >= 8:
        alpha0 = draw_coeffs(
            config.ensemble, flow.ambient_dim, derive_seed(config.base_seed, 0)
        )
        # orbit-ordered samples are the orbit itself
        series = samples @ alpha0.alpha
        try:
            selection = delay_selection(series, num_bins=config.num_bins)
            payload["delay_selection"] = {
                "autocorr_first_zero": selection.autocorr_first_zero,
                "mi_first_min": selection.mi_first_min,
                "num_bins": selection.num_bins,
                "series_alpha_seed": alpha0.seed,
                "series_length": int(series.size),
            }
        except ZeroVarianceError:
            payload["delay_selection"] = {
                "note": "series is constant under the first drawn coefficients"
            }
    else:
        payload["delay_selection"] = {
            "note": "needs at least 8 orbit-ordered samples"
        }
    return payload


def run_full_report(config: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Monte Carlo conditioning report with per-pair and geometry companions."""
    if len(config.delays) != 1:
        raise ConfigError("delays: the report runs a single delay count; give one value")
    flow = build_flow(config)
    samples, desc, period = build_samples(config, flow)
    params = DelayParams(config.delays[0])
    orbit_ordered = config.samples_path is None

    report = monte_carlo(
        flow,
        samples,
        params,
        config.ensemble,
        config.num_draws,
        config.base_seed,
        threads=threads,
        keep_per_pair=True,
    )
    eps = report.epsilons

    os.makedirs(out_dir, exist_ok=True)
    data_files = []

    report_payload = {
        "ensemble": report.ensemble,
        "num_draws": report.num_draws,
        "base_seed": report.base_seed,
        "params": {**report.params, "samples": desc},
        "quantiles": {f"{q:.2f}": v for q, v in report.quantiles.items()},
        "eps_median": report.quantiles[0.5],
        "eps_mean": float(np.mean(eps)),
        "eps_max": float(np.max(eps)),
        "failure_rate_curve": {
            "target_eps": list(config.target_eps_grid),
            "rate": [report.failure_rate(g) for g in config.target_eps_grid],
        },
        "infimum_soft_rank": report.infimum_soft_rank,
        "per_draw": [
            {
                "draw": k,
                "epsilon": r.epsilon,
                "worst_pair": list(r.worst_pair),
                "alpha_seed": r.alpha_seed,
            }
            for k, r in enumerate(report.per_draw)
        ],
    }
    write_json(os.path.join(out_dir, "embedding_report.json"), report_payload)
    data_files.append("embedding_report.json")

    # Per-pair table: soft ranks are coefficient-free; ratio aggregates run
    # over the draws. State-space-denominator ratios are the secondary
    # diagnostic (the conditioning above is measured in trajectory space).
    table = report.table
    state_dist_sq = table.state_dist_sq
    state_scale = table.traj_dist_sq / state_dist_sq
    # chunk by chunk, so no (draws, pairs) copy is formed. Rounding is
    # monotone, so the state ratios' order statistics are the ratios' own
    # times the pair's scale; the medians are the mean of the middle pair,
    # formed as np.median forms it.
    num_draws = report.ratios.shape[0]
    middle = slice((num_draws - 1) // 2, num_draws // 2 + 1)
    chunk_stats = []
    for chunk in _chunks(table.num_pairs):
        block = np.ascontiguousarray(report.ratios[:, chunk].T)  # (pairs, draws)
        scale = state_scale[chunk]
        lowest, highest = np.min(block, axis=1), np.max(block, axis=1)
        mid = np.partition(block, [middle.start, middle.stop - 1], axis=1)[:, middle]
        chunk_stats.append([
            lowest,
            np.mean(mid, axis=1),
            highest,
            lowest * scale,
            np.mean(mid * scale[:, None], axis=1),
            highest * scale,
        ])
    ratio_columns = [np.concatenate(stat).tolist() for stat in zip(*chunk_stats)]
    rows = list(zip(
        table.i_idx.tolist(),
        table.j_idx.tolist(),
        state_dist_sq.tolist(),
        table.traj_dist_sq.tolist(),
        report.soft_ranks.tolist(),
        *ratio_columns,
    ))
    write_csv(
        os.path.join(out_dir, "per_pair.csv"),
        [
            "i",
            "j",
            "state_dist_sq",
            "traj_dist_sq",
            "soft_rank",
            "ratio_min",
            "ratio_median",
            "ratio_max",
            "state_ratio_min",
            "state_ratio_median",
            "state_ratio_max",
        ],
        rows,
    )
    data_files.append("per_pair.csv")

    points = table.stack.reshape(table.stack.shape[0], -1)
    geometry_payload = _geometry_payload(
        config, flow, samples, points, period, orbit_ordered
    )
    write_json(os.path.join(out_dir, "geometry.json"), geometry_payload)
    data_files.append("geometry.json")

    if config.c_user is not None:
        manifold = geometry_payload["trajectory_manifold"]
        if "volume" not in manifold:
            raise ConfigError(
                "c_user: the theorem check needs trajectory-manifold volume and "
                "reach, which require orbit-ordered samples"
            )
        check = theorem_condition_check(
            infimum_soft_rank=report.infimum_soft_rank,
            epsilon=report.quantiles[0.5],
            manifold_dim=config.manifold_dim,
            volume=manifold["volume"],
            reach=manifold["reach"],
            c_user=config.c_user,
        )
        write_json(
            os.path.join(out_dir, "theorem_check.json"),
            {
                "infimum_soft_rank": check.infimum_soft_rank,
                "epsilon": check.epsilon,
                "epsilon_source": "median over draws",
                "manifold_dim": check.manifold_dim,
                "volume": check.volume,
                "reach": check.reach,
                "c_user": check.c_user,
                "required_soft_rank": check.required_soft_rank,
                "satisfied": check.satisfied,
                "degenerate": check.degenerate,
            },
        )
        data_files.append("theorem_check.json")

    counts = [
        _counts(params.num_delays, report.num_pairs, report.num_certified, report.num_draws)
    ]
    write_manifest(out_dir, config, data_files, counts)
    return report_payload

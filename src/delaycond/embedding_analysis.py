"""Empirical stable-embedding conditioning of delay-coordinate maps.

For a coefficient vector alpha, the per-pair isometry ratio is

    ||F_alpha(x) - F_alpha(y)||^2 / ||x~ - y~||^2,

the squared distance of the measured delay vectors over the squared
distance of the trajectory vectors. A perfectly conditioned measurement has
every ratio equal to 1; the achieved conditioning eps is the largest
deviation |ratio - 1| over the scanned pairs, i.e. the tightest band
(1 - eps, 1 + eps) containing all ratios. Monte Carlo over coefficient
draws yields eps distributions, failure-rate curves, and scaling fits
against the number of delays M.

The denominators live in trajectory space. Ratios against state-space
distances ||x - y||^2 are a separate, clearly labeled diagnostic (see the
report writer); they are not the conditioning measured here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .delay_map import (
    DelayParams,
    MeasurementCoeffs,
    derive_seed,
    draw_coeffs,
    row_squared_norms,
    _check_coeffs,
)
from .dynamics import FlowSpec
from .errors import InvalidArgumentError, NonFiniteTrajectoryError
from .spectral import (
    PairDiagnostics,
    PairTable,
    _pair_table,
    infimum_soft_rank,
    soft_rank,
)

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class ConditioningResult:
    """Tightest eps for one coefficient draw over one sample set.

    ``epsilon`` is max |ratio - 1| over all pairs; ``worst_pair`` attains it
    (lexicographically smallest among ties). ``alpha_seed`` is None for
    user-supplied coefficients.
    """

    epsilon: float
    worst_pair: tuple[int, int]
    alpha_seed: int | None


@dataclass(frozen=True)
class EmbeddingReport:
    """Monte Carlo conditioning summary over coefficient draws.

    ``num_pairs``, ``num_certified`` and ``num_chunks`` are the scan's pair
    count, the number of pairs it took the dense SVD of, and the number of
    chunks of pair differences it formed. ``table``, ``soft_ranks`` (per
    pair) and ``ratios`` (draws x pairs) are kept only when ``monte_carlo``
    is asked to keep per-pair values, else None; their pair axis is in
    ``pair_indices`` order.
    """

    per_draw: list[ConditioningResult]
    num_draws: int
    ensemble: str
    base_seed: int
    quantiles: dict[float, float]
    infimum_soft_rank: float
    params: dict
    num_pairs: int
    num_certified: int
    num_chunks: int
    table: PairTable | None = field(default=None, repr=False)
    soft_ranks: np.ndarray | None = field(default=None, repr=False)
    ratios: np.ndarray | None = field(default=None, repr=False)

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([r.epsilon for r in self.per_draw])

    @property
    def eps_max(self) -> float:
        return float(np.max(self.epsilons))

    @property
    def eps_mean(self) -> float:
        return float(np.mean(self.epsilons))

    def failure_rate(self, target_eps: float) -> float:
        """Fraction of draws whose achieved eps exceeds the target."""
        return float(np.mean(self.epsilons > target_eps))


@dataclass(frozen=True)
class ScalingRow:
    """One delay count's conditioning summary within a scaling study."""

    num_delays: int
    infimum_soft_rank: float
    eps_median: float
    eps_q05: float
    eps_q95: float
    eps_max: float
    eps_mean: float


@dataclass(frozen=True)
class ScalingStudyResult:
    """Medians per M and the log-log slope of median eps against M."""

    rows: list[ScalingRow]
    slope: float
    slope_stderr: float
    reports: list[EmbeddingReport]


@dataclass(frozen=True)
class TheoremCheck:
    """Evaluation of the sufficient soft-rank condition under a user constant.

    satisfied means: infimum_soft_rank >= c_user * eps^-2 * manifold_dim *
    log(sqrt(infimum_soft_rank) * volume^(1/manifold_dim) / reach) AND
    volume >= c_user * reach^manifold_dim. The constant is never defaulted;
    the check reports whether the condition holds under the caller's
    constant, nothing more. ``degenerate`` flags a log argument <= 1, where
    the condition is vacuous and satisfied is reported as False.
    """

    infimum_soft_rank: float
    epsilon: float
    manifold_dim: float
    volume: float
    reach: float
    c_user: float
    satisfied: bool
    degenerate: bool
    required_soft_rank: float


def isometry_ratio(
    flow: FlowSpec,
    x: np.ndarray,
    y: np.ndarray,
    alpha: MeasurementCoeffs,
    params: DelayParams,
) -> PairDiagnostics:
    """Per-pair diagnostics: ratio ||D alpha||^2 / ||D||_F^2 with D = G_x - G_y.

    D and the ratio are read from the two-sample ``PairTable`` of (x, y), so
    the ratio is the one ``conditioning`` and ``monte_carlo`` report for that
    pair; its denominator is the squared trajectory-vector distance
    ||x~ - y~||^2. It is bit for bit that ratio, except that on a
    permutation flow with inexact sums it may round differently (see
    ``PairTable.ratios``).
    """
    a = _check_coeffs(flow, alpha)
    table = _pair_table(flow, x, y, params)
    diff = table.differences(slice(0, 1))[0]
    row_sqs, _ = row_squared_norms(diff)
    return PairDiagnostics(
        soft_rank=soft_rank(diff).value,
        chord_norms=np.sqrt(row_sqs),
        ratio=float(table.ratios(a)[0]),
    )


def _conditioning(
    table: PairTable, coeffs: MeasurementCoeffs, ratios: np.ndarray
) -> ConditioningResult:
    deviations = np.abs(ratios - 1.0)
    k = int(np.argmax(deviations))  # first occurrence = lexicographic pair; a NaN wins
    epsilon = float(deviations[k])
    if not math.isfinite(epsilon):
        i, j = table.pair(k)
        source = "user coefficients" if coeffs.seed is None else f"draw seed {coeffs.seed}"
        raise NonFiniteTrajectoryError(
            f"{source}: the isometry ratio of samples {i} and {j} is not finite; "
            "their measured squared distance overflows"
        )
    return ConditioningResult(
        epsilon=epsilon, worst_pair=table.pair(k), alpha_seed=coeffs.seed
    )


def conditioning(
    flow: FlowSpec,
    samples: np.ndarray,
    alpha: MeasurementCoeffs,
    params: DelayParams,
) -> ConditioningResult:
    """Tightest eps such that every pair ratio lies in (1 - eps, 1 + eps)."""
    _check_coeffs(flow, alpha)
    table = PairTable(flow, samples, params)
    return _conditioning(table, alpha, table.ratios(alpha.alpha))


def _draw_all(
    ensemble: str, n: int, num_draws: int, base_seed: int
) -> list[MeasurementCoeffs]:
    """Draws 0, ..., num_draws - 1 of the stream rooted at ``base_seed``."""
    return [draw_coeffs(ensemble, n, derive_seed(base_seed, k)) for k in range(num_draws)]


def monte_carlo(
    flow: FlowSpec,
    samples: np.ndarray,
    params: DelayParams,
    ensemble: str,
    num_draws: int,
    base_seed: int,
    threads: int = 1,
    keep_per_pair: bool = False,
    draws: list[MeasurementCoeffs] | None = None,
) -> EmbeddingReport:
    """Conditioning distribution over seeded coefficient draws.

    Draw k uses the child seed derived from (base_seed, k), so every number
    in the report is determined by the configuration alone; ``threads``
    splits only the soft-rank scan. The draws run in order on the pair table
    of that scan. ``keep_per_pair`` retains that table, the scan's per-pair
    soft ranks and the full (draws, pairs) ratio matrix for per-pair
    reporting. ``draws``, when given,
    holds the coefficients of those draws, already made; ``scaling_study``
    makes them once for every M. Each must have the flow's dimension, which
    is checked before the scan.
    """
    if num_draws < 1:
        raise InvalidArgumentError(f"num_draws must be >= 1, got {num_draws}")
    if draws is None:  # draw_coeffs checks the ensemble
        draws = _draw_all(ensemble, flow.ambient_dim, num_draws, base_seed)
    elif len(draws) != num_draws:
        raise InvalidArgumentError(f"got {len(draws)} draws for num_draws = {num_draws}")
    else:
        for coeffs in draws:
            _check_coeffs(flow, coeffs)
    scan = infimum_soft_rank(flow, samples, params, threads=threads)
    table = scan.table
    per_draw = []
    ratios = np.empty((num_draws, table.num_pairs)) if keep_per_pair else None
    for k, coeffs in enumerate(draws):
        draw_ratios = table.ratios(coeffs.alpha)
        per_draw.append(_conditioning(table, coeffs, draw_ratios))
        if keep_per_pair:
            ratios[k] = draw_ratios

    eps = np.array([r.epsilon for r in per_draw])
    quantiles = {
        q: float(np.quantile(eps, q)) for q in QUANTILE_LEVELS
    }
    return EmbeddingReport(
        per_draw=per_draw,
        num_draws=num_draws,
        ensemble=ensemble,
        base_seed=int(base_seed),
        quantiles=quantiles,
        infimum_soft_rank=scan.infimum,
        params={
            "ambient_dim": flow.ambient_dim,
            "num_delays": params.num_delays,
            "num_samples": table.shape[0],
            "sampling_interval": flow.sampling_interval,
        },
        num_pairs=scan.num_pairs,
        num_certified=scan.num_certified,
        num_chunks=scan.num_chunks,
        table=table if keep_per_pair else None,
        soft_ranks=scan.soft_ranks if keep_per_pair else None,
        ratios=ratios,
    )


def scaling_study(
    flow: FlowSpec,
    samples: np.ndarray,
    m_list: list[int],
    ensemble: str,
    num_draws: int,
    base_seed: int,
    threads: int = 1,
) -> ScalingStudyResult:
    """Median-eps-vs-M table with a least-squares log-log slope.

    The same coefficient draws (keyed by base_seed and draw index, which do
    not involve M) are made once and reused across delay counts, pairing
    the per-M comparisons. Median eps, not the max, enters the fit; the max
    is reported per row.
    """
    m_list = list(m_list)
    if len(m_list) < 2:
        raise InvalidArgumentError(
            f"need at least 2 delay counts to fit a slope, got {len(m_list)}"
        )
    if any(m_list[i] >= m_list[i + 1] for i in range(len(m_list) - 1)):
        raise InvalidArgumentError(f"delay counts must be ascending, got {m_list}")

    draws = _draw_all(ensemble, flow.ambient_dim, num_draws, base_seed)
    rows = []
    reports = []
    for m in m_list:
        report = monte_carlo(
            flow, samples, DelayParams(m), ensemble, num_draws, base_seed,
            threads=threads, draws=draws,
        )
        rows.append(
            ScalingRow(
                num_delays=m,
                infimum_soft_rank=report.infimum_soft_rank,
                eps_median=report.quantiles[0.5],
                eps_q05=report.quantiles[0.05],
                eps_q95=report.quantiles[0.95],
                eps_max=report.eps_max,
                eps_mean=report.eps_mean,
            )
        )
        reports.append(report)

    log_m = np.log([row.num_delays for row in rows])
    log_eps = np.log([row.eps_median for row in rows])
    design = np.column_stack([log_m, np.ones_like(log_m)])
    coef, _, _, _ = np.linalg.lstsq(design, log_eps, rcond=None)
    slope = float(coef[0])
    dof = len(rows) - 2
    if dof > 0:
        residuals = log_eps - design @ coef
        sigma_sq = float(residuals @ residuals) / dof
        xtx_inv = np.linalg.inv(design.T @ design)
        stderr = math.sqrt(sigma_sq * xtx_inv[0, 0])
    else:
        stderr = math.nan
    return ScalingStudyResult(rows=rows, slope=slope, slope_stderr=stderr, reports=reports)


def _finite_term(name: str, evaluate) -> float:
    """``evaluate()``, which must be finite; an overflow is an error naming the term.

    Python's float power raises ``OverflowError`` and its products go to
    inf; either way the condition cannot be evaluated in double precision.
    """
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidArgumentError(f"theorem check: the term {name} overflows")
    return value


def theorem_condition_check(
    infimum_soft_rank: float,
    epsilon: float,
    manifold_dim: float,
    volume: float,
    reach: float,
    c_user: float,
) -> TheoremCheck:
    """Evaluate the sufficient condition with an explicitly supplied constant.

    All inputs must be positive; the constant hidden in the asymptotic
    statement is supplied by the caller and never invented here. A term of
    the condition that overflows a double is an ``InvalidArgumentError``
    naming it.
    """
    values = {
        "infimum_soft_rank": infimum_soft_rank,
        "epsilon": epsilon,
        "manifold_dim": manifold_dim,
        "volume": volume,
        "reach": reach,
        "c_user": c_user,
    }
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and value > 0 and math.isfinite(value)):
            raise InvalidArgumentError(f"{name} must be a positive finite number")
    # numpy scalars (float32 included) are evaluated in double precision
    infimum_soft_rank, epsilon, manifold_dim, volume, reach, c_user = (
        float(value) for value in values.values()
    )

    log_arg = _finite_term(
        "sqrt(infimum_soft_rank) * volume^(1/manifold_dim) / reach",
        lambda: math.sqrt(infimum_soft_rank) * volume ** (1.0 / manifold_dim) / reach,
    )
    degenerate = log_arg <= 1.0
    if degenerate:
        required = 0.0
        satisfied = False
    else:
        required = _finite_term(
            "required_soft_rank = c_user * epsilon^-2 * manifold_dim * log(...)",
            lambda: c_user * epsilon**-2 * manifold_dim * math.log(log_arg),
        )
        volume_floor = _finite_term(
            "c_user * reach^manifold_dim", lambda: c_user * reach**manifold_dim
        )
        satisfied = bool(infimum_soft_rank >= required and volume >= volume_floor)
    return TheoremCheck(
        infimum_soft_rank=infimum_soft_rank,
        epsilon=epsilon,
        manifold_dim=manifold_dim,
        volume=volume,
        reach=reach,
        c_user=c_user,
        satisfied=satisfied,
        degenerate=degenerate,
        required_soft_rank=required,
    )

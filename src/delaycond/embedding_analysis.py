"""Empirical stable-embedding conditioning of delay-coordinate maps.

For a coefficient vector alpha, the per-pair isometry ratio is

    ||F_alpha(x) - F_alpha(y)||^2 / ||x~ - y~||^2,

the squared distance of the measured delay vectors over the squared
distance of the trajectory vectors. A perfectly conditioned measurement has
every ratio equal to 1; the achieved conditioning eps is the largest
deviation |ratio - 1| over the scanned pairs, i.e. the tightest band
(1 - eps, 1 + eps) containing all ratios. Monte Carlo over coefficient
draws yields eps distributions, failure-rate curves, and scaling fits
against the number of delays M. The pair table, its scan and the draws
are the caller's: ``conditioning`` and ``monte_carlo`` take one
``PairTable``, ``monte_carlo`` takes the draws as a list
(``delay_map.draw_stream`` makes the seeded stream) and its record holds
only what the draws gave. The soft-rank infimum is a property of the
table alone, so ``spectral.infimum_soft_rank`` runs once per table beside
the draws, never inside them, and ``scaling_study`` fits the slope of the
medians the caller measured.

The denominators live in trajectory space. Ratios against state-space
distances ||x - y||^2 are a separate, clearly labeled diagnostic (see the
report writer); they are not the conditioning measured here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .delay_map import DelayParams, MeasurementCoeffs, row_squared_norms, _check_coeffs
from .dynamics import FlowSpec
from .errors import InvalidArgumentError, NonFiniteTrajectoryError
from .spectral import PairDiagnostics, PairTable, _chunks, _pair_table, soft_rank

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

    It holds results only; the ensemble and seeds of the draws, the table
    and its scan are the caller's. ``per_draw`` holds one result per draw,
    in the order given, and ``num_draws`` is its length. ``quantiles`` maps
    each of ``QUANTILE_LEVELS`` to that quantile of the draws' eps.

    When ``monte_carlo`` is asked to keep per-pair values, each pair's order
    statistics of its ratio over the draws are kept, else None: ``ratio_min``
    and ``ratio_max`` (pairs,), and ``ratio_mid`` (1 or 2, pairs), the one
    (odd ``num_draws``) or two (even) middle values, whose mean is the
    median as ``np.median`` forms it. The pair axis is in the pair order of
    the caller's table; no field holds a row per draw.
    """

    per_draw: list[ConditioningResult]
    quantiles: dict[float, float]
    ratio_min: np.ndarray | None = field(default=None, repr=False)
    ratio_mid: np.ndarray | None = field(default=None, repr=False)
    ratio_max: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_draws(self) -> int:
        return len(self.per_draw)

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
class ScalingStudyResult:
    """Least-squares slope of log median eps against log M, and its standard error.

    ``slope_stderr`` is NaN for two delay counts, which leave no residual
    degree of freedom.
    """

    slope: float
    slope_stderr: float


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


def conditioning(table: PairTable, alpha: MeasurementCoeffs) -> ConditioningResult:
    """Tightest eps such that every pair ratio of ``table`` lies in (1 - eps, 1 + eps)."""
    return _conditioning(table, alpha, table.ratios(_check_coeffs(table.flow, alpha)))


def _order_statistics(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's min, one or two middle values (rows of ``mid``) and max.

    A single-kth partition puts the lower middle value in place; the upper
    one is the least value above it. The partitioned copy is this call's
    local, and no returned array is a view of it, so it is freed before
    the caller's next chunk makes its own.
    """
    num_draws = block.shape[0]
    low, high = (num_draws - 1) // 2, num_draws // 2
    part = np.partition(block, low, axis=0)
    if high > low:
        mid = np.stack([part[low], np.min(part[high:], axis=0)])
    else:
        mid = part[low:low + 1].copy()
    return np.min(block, axis=0), mid, np.max(block, axis=0)


def monte_carlo(
    table: PairTable, draws: list[MeasurementCoeffs], keep_per_pair: bool = False
) -> EmbeddingReport:
    """Conditioning distribution of ``table``'s pairs over the given draws.

    Each draw must have the flow's dimension, which is checked before the
    first draw; ``delay_map.draw_stream`` makes the seeded draws. The draws
    run in order on ``table``. ``keep_per_pair`` keeps each pair's order
    statistics over the draws (see ``EmbeddingReport``): the (draws, pairs)
    ratio matrix they come from is reduced ``_chunks`` of pairs at a time
    and freed when this call returns.
    """
    if not draws:
        raise InvalidArgumentError("monte_carlo needs at least one coefficient draw")
    for coeffs in draws:
        _check_coeffs(table.flow, coeffs)
    per_draw = []
    ratios = np.empty((len(draws), table.num_pairs)) if keep_per_pair else None
    for k, coeffs in enumerate(draws):
        draw_ratios = table.ratios(coeffs.alpha)
        per_draw.append(_conditioning(table, coeffs, draw_ratios))
        if keep_per_pair:
            ratios[k] = draw_ratios
    stats = (None, None, None)
    if keep_per_pair:
        chunks = _chunks(table.num_pairs, 1, len(draws))
        per_chunk = [_order_statistics(ratios[:, chunk]) for chunk in chunks]
        stats = tuple(np.concatenate(parts, axis=-1) for parts in zip(*per_chunk))

    eps = np.array([r.epsilon for r in per_draw])
    quantiles = {
        q: float(np.quantile(eps, q)) for q in QUANTILE_LEVELS
    }
    return EmbeddingReport(per_draw, quantiles, *stats)


def scaling_study(m_list: list[int], medians: list[float]) -> ScalingStudyResult:
    """Least-squares log-log slope of the median eps ``medians[k]`` at M = ``m_list[k]``.

    The caller measures each median, one ``monte_carlo`` report per M with
    the same draws, which pairs the per-M comparisons; the median, not the
    max, enters the fit. A median of exactly 0 has no log and is an
    ``InvalidArgumentError`` naming its M.
    """
    m_list = list(m_list)
    if len(m_list) < 2:
        raise InvalidArgumentError(
            f"need at least 2 delay counts to fit a slope, got {len(m_list)}"
        )
    if any(m_list[i] >= m_list[i + 1] for i in range(len(m_list) - 1)):
        raise InvalidArgumentError(f"delay counts must be ascending, got {m_list}")
    if len(medians) != len(m_list):
        raise InvalidArgumentError(
            f"need one median per delay count, got {len(medians)} for {len(m_list)}"
        )
    if 0.0 in medians:
        raise InvalidArgumentError(
            f"the median eps over the draws is 0 at M = {m_list[medians.index(0.0)]}, "
            "so log(eps) and the slope are undefined"
        )

    log_m = np.log(m_list)
    log_eps = np.log(medians)
    design = np.column_stack([log_m, np.ones_like(log_m)])
    coef, _, _, _ = np.linalg.lstsq(design, log_eps, rcond=None)
    slope = float(coef[0])
    dof = len(m_list) - 2
    if dof > 0:
        residuals = log_eps - design @ coef
        sigma_sq = float(residuals @ residuals) / dof
        xtx_inv = np.linalg.inv(design.T @ design)
        stderr = math.sqrt(sigma_sq * xtx_inv[0, 0])
    else:
        stderr = math.nan
    return ScalingStudyResult(slope=slope, slope_stderr=stderr)


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

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

from .delay_map import DelayParams, MeasurementCoeffs, _check_coeffs
from .dynamics import FlowSpec
from .errors import InvalidArgumentError, NonFiniteTrajectoryError
from .spectral import PairTable, _chunks, _pair_table, soft_rank

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
    in the order given, and ``num_draws`` is its length. ``epsilons`` is the
    array of the draws' eps, and ``eps_max``, ``eps_mean``,
    ``failure_rate`` and ``quantiles`` (each of ``QUANTILE_LEVELS`` mapped
    to that quantile) are formed from it on each read.

    When ``monte_carlo`` is asked to keep per-pair values, each pair's order
    statistics of its ratio over the draws are kept, else None: ``ratio_min``
    and ``ratio_max`` (pairs,), and ``ratio_mid`` (1 or 2, pairs), the one
    (odd ``num_draws``) or two (even) middle values, whose mean is the
    median as ``np.median`` forms it. Each is the bits that ``np.min``,
    ``np.partition`` and ``np.max`` over a (draws, pairs) block of the
    draws' ratios would give, though no such block is formed. The pair axis
    is in the pair order of the caller's table; no field holds a row per
    draw.
    """

    per_draw: list[ConditioningResult]
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

    @property
    def quantiles(self) -> dict[float, float]:
        eps = self.epsilons
        return {q: float(np.quantile(eps, q)) for q in QUANTILE_LEVELS}

    def failure_rate(self, target_eps: float) -> float:
        """Fraction of draws whose achieved eps exceeds the target."""
        return float(np.mean(self.epsilons > target_eps))


@dataclass(frozen=True)
class PairDiagnostics:
    """One pair's soft rank, chord norms and isometry ratio.

    ``ratio`` is the squared-distance ratio of the measured delay vectors to
    the trajectory vectors. ``chord_norms[m]`` is the distance between the
    m-th backward iterates of the two states.
    """

    soft_rank: float
    chord_norms: np.ndarray
    ratio: float


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
    ``PairTable.delay_vectors``).
    """
    a = _check_coeffs(flow, alpha)
    table = _pair_table(flow, x, y, params)
    diff = table.differences(slice(0, 1))[0]
    return PairDiagnostics(
        soft_rank=soft_rank(diff).value,
        chord_norms=np.sqrt(np.einsum("mn,mn->m", diff, diff)),
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


# A ratio's order key is the exponent and top 10 mantissa bits of its float64
# (its bits >> _KEY_SHIFT) less ``_KEY_BASE``, those bits just below 2^-15,
# so that the ratios from 2^-15 to just below 2^17 get 1 to 2^15 - 1;
# doubled, plus 1 where a dropped bit is set.
_KEY_SHIFT = 42
_KEY_BASE = ((1023 - 15) << 10) - 1
_DROPPED_BITS = np.uint64((1 << _KEY_SHIFT) - 1)
# Ratios are clipped to the largest double below 2^-15 and the largest double
# with the top key's kept bits, so a ratio outside the binades gets the odd
# key below or at the top of them.
_KEY_LOW, _KEY_HIGH = np.array(
    [((_KEY_BASE + 1) << _KEY_SHIFT) - 1, ((_KEY_BASE + 0x8000) << _KEY_SHIFT) - 1],
    dtype=np.uint64,
).view(np.float64)

# Doubles or int64s held per draw and pair, at most, while the middle values
# are formed again: a buffered entry's draw, class and pair, its ratio and two
# sort orders. The slices of the order keys are cut at this many.
_ENTRY_FLOATS = 6


def _order_keys(ratios: np.ndarray) -> np.ndarray:
    """The uint16 order key of each ratio, which is finite and >= +0.

    Keys are monotone: a ratio's key never exceeds a larger ratio's. An even
    key means that its ratio is exactly ``_key_values`` of it; the ratios of
    one odd key lie strictly between the values of the even keys around it.
    """
    bits = np.clip(ratios, _KEY_LOW, _KEY_HIGH).view(np.uint64)
    # the kept bits rounded up (1 more where a dropped bit is set), plus the
    # kept bits
    keys = bits + _DROPPED_BITS
    keys >>= _KEY_SHIFT
    bits >>= _KEY_SHIFT
    keys += bits
    keys -= 2 * _KEY_BASE
    return keys.astype(np.uint16)


def _key_values(keys: np.ndarray) -> np.ndarray:
    """The ratio each even key stands for, exactly."""
    return (((keys.astype(np.uint64) >> 1) + _KEY_BASE) << _KEY_SHIFT).view(np.float64)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, column by column: the order of ``pdist``'s "sqeuclidean"."""
    total = np.zeros(rows.shape[0])
    for column in rows.T:
        total += column * column
    return total


def _exact_ratios(
    table: PairTable, draws: list[MeasurementCoeffs], draw_idx: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """``table.ratios(draws[k].alpha)[p]`` of each entry (k, p), bit for bit.

    The entries are taken in draw order, in ``_chunks`` of delay-vector
    differences, and each draw's rows of a chunk come from one
    ``delay_vectors`` call.
    """
    order = np.argsort(draw_idx, kind="stable")
    values = np.empty(order.size)
    for chunk in _chunks(order.size, 1, table.shape[1]):
        entries = order[chunk]
        draw_of = draw_idx[entries]
        # each entry's samples i and j, side by side
        ends = np.stack([table.i_idx[pairs[entries]], table.j_idx[pairs[entries]]], axis=1)
        diffs = np.empty((entries.size, table.shape[1]))
        bounds = [0, *(np.flatnonzero(np.diff(draw_of)) + 1), entries.size]
        for a, b in zip(bounds, bounds[1:]):
            rows = table.delay_vectors(draws[draw_of[a]].alpha, ends[a:b].ravel())
            diffs[a:b] = rows[0::2] - rows[1::2]
        values[entries] = _squared_norms(diffs) / table.traj_dist_sq[pairs[entries]]
    return values


def _resolve_classes(
    table: PairTable, draws: list[MeasurementCoeffs], mid: np.ndarray, pending: list
) -> None:
    """Write each pending pick: the value at its rank among its class's ratios.

    A class is ``2 * pair + c``: the entries of one pair with one key. Each
    pending slice holds its entries (draw indices, classes) and its picks
    (rows of ``mid``, classes, ranks within the class).
    """
    draw_idx, classes, slots, pick_classes, ranks = (
        np.concatenate(column) for column in zip(*pending)
    )
    values = _exact_ratios(table, draws, draw_idx, classes >> 1)
    order = np.lexsort((values, classes))
    first = np.searchsorted(classes[order], pick_classes)
    mid[slots, pick_classes >> 1] = values[order[first + ranks]]


def _middle_ratios(
    table: PairTable, draws: list[MeasurementCoeffs], keys: np.ndarray
) -> np.ndarray:
    """Each pair's one or two middle ratios over the draws, from its (draws, pairs) order keys.

    Keys are monotone, so the ratio at a middle rank has the key at that
    rank, which one single-kth partition per ``_chunks`` slice of pairs
    finds. An even key is its ratio. The ratios with an odd middle key (its
    class, among the pair's keys) are formed again (``_exact_ratios``), and
    the middle value is the one at its rank among them. A slice is cut so
    that its entries would fit in ``_CHUNK_BYTES`` even if every one were
    formed again, and the entries are buffered over slices until they
    number a slice's keys.
    """
    num_draws = keys.shape[0]
    low, high = (num_draws - 1) // 2, num_draws // 2
    mid = np.empty((high - low + 1, table.num_pairs))
    parts = _chunks(table.num_pairs, 1, _ENTRY_FLOATS * num_draws)
    capacity = (parts[0].stop - parts[0].start) * num_draws
    pending, buffered = [], 0
    for part in parts:
        block = keys[:, part]
        ordered = np.partition(block, low, axis=0)
        top = ordered[low]
        # the low middle value's rank among the ratios of its key
        rank = low - np.count_nonzero(ordered[:low] < top, axis=0)
        tops = np.stack([top, np.min(ordered[high:], axis=0)] if high > low else [top])
        del ordered
        mid[:, part] = _key_values(tops)
        odd = (tops & 1).astype(bool)
        if not odd.any():
            continue
        # class 2p holds pair p's keys equal to its low middle key, class
        # 2p + 1 those equal to a different high one, which the high rank
        # leads; 0 is no key (a ratio below the binades has key 1)
        slots, cols = np.nonzero(odd)
        same = tops[slots, cols] == top[cols]
        pairs = np.arange(part.start, part.stop)
        picks = (slots, 2 * pairs[cols] + ~same, np.where(same, rank[cols] + slots, 0))
        probes = np.where(odd, tops, 0)
        members = block == probes[0]
        if high > low:
            members |= block == probes[1]
        # a flat index is far cheaper to find than a 2-D one
        draw_idx, col = np.divmod(np.flatnonzero(members), members.shape[1])
        classes = 2 * pairs[col] + (block[draw_idx, col] != top[col])
        pending.append((draw_idx, classes, *picks))
        buffered += draw_idx.size
        if buffered >= capacity:
            _resolve_classes(table, draws, mid, pending)
            pending, buffered = [], 0
    if pending:
        _resolve_classes(table, draws, mid, pending)
    return mid


def monte_carlo(
    table: PairTable, draws: list[MeasurementCoeffs], keep_per_pair: bool = False
) -> EmbeddingReport:
    """Conditioning distribution of ``table``'s pairs over the given draws.

    Each draw must have the flow's dimension, which is checked before the
    first draw; ``delay_map.draw_stream`` makes the seeded draws. The draws
    run in order on ``table``. ``keep_per_pair`` keeps each pair's order
    statistics over the draws (see ``EmbeddingReport``). The draws update
    each pair's min and max and store a 2-byte order key per draw and pair
    (``_order_keys``), from which ``_middle_ratios`` derives the middle
    values exactly; no (draws, pairs) block of ratios is held.
    """
    if not draws:
        raise InvalidArgumentError("monte_carlo needs at least one coefficient draw")
    for coeffs in draws:
        _check_coeffs(table.flow, coeffs)
    per_draw = []
    if keep_per_pair:
        keys = np.empty((len(draws), table.num_pairs), dtype=np.uint16)
        ratio_min, ratio_max = np.full(table.num_pairs, np.inf), np.zeros(table.num_pairs)
    for k, coeffs in enumerate(draws):
        draw_ratios = table.ratios(coeffs.alpha)
        per_draw.append(_conditioning(table, coeffs, draw_ratios))
        if keep_per_pair:
            np.minimum(ratio_min, draw_ratios, out=ratio_min)
            np.maximum(ratio_max, draw_ratios, out=ratio_max)
            keys[k] = _order_keys(draw_ratios)
    if not keep_per_pair:
        return EmbeddingReport(per_draw)
    return EmbeddingReport(per_draw, ratio_min, _middle_ratios(table, draws, keys), ratio_max)


def scaling_study(m_list: list[int], medians: list[float]) -> ScalingStudyResult:
    """Least-squares log-log slope of the median eps ``medians[k]`` at M = ``m_list[k]``.

    The caller measures each median, one ``monte_carlo`` report per M with
    the same draws, which pairs the per-M comparisons; the median, not the
    max, enters the fit. Every M and every median must be positive and
    finite, to have a finite log; else an ``InvalidArgumentError`` names the M.
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
    for m, median in zip(m_list, medians):
        if not (0 < m < math.inf and 0 < median < math.inf):
            raise InvalidArgumentError(
                f"the median eps over the draws is {median:g} at M = {m}, but the fit "
                "needs every M and median positive and finite, so that their logs exist"
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

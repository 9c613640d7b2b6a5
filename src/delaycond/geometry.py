"""Geometric estimators: attractor sampling, curve volume, reach, delay baselines.

Point sets are plain arrays with one point per row: the trajectory manifold
of a sample set is the (n, M N) array of its trajectory vectors, read from
the caller's ``PairTable``.

Estimator bias directions, reported alongside every value:

* Chordal curve volume underestimates the true arc length (chords are
  shorter than arcs) and converges from below under refinement.
* The point-cloud reach quotient converges to the true reach from above as
  sampling densifies; on a finite sample it can sit on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowSpec, _check_state, generate_orbit, step
from .errors import (
    InvalidArgumentError,
    NoEstimateError,
    NonFiniteTrajectoryError,
    ZeroVarianceError,
)
from .spectral import PairTable, _scaled_norms

VOLUME_BIAS_NOTE = "chordal sum; underestimates arc length, converges from below"
REACH_BIAS_NOTE = (
    "point-cloud quotient; converges to the reach from above in the dense limit"
)

# Relative tolerance for recognizing a return to the orbit's starting state.
_PERIOD_TOLERANCE = 1e-9

# Normal components below this fraction of the chord length count as zero.
_NORMAL_EXCLUSION = 1e-12

# Point sets with a point of this norm or more are rejected: (2 * 2^511)^2 =
# 2^1024 overflows.
_LARGEST_NORM = 2.0**511

# Histogram bins per axis of the mutual-information baseline, by default; a
# series of any length may use this many.
DEFAULT_NUM_BINS = 16


@dataclass(frozen=True)
class AttractorSample:
    """The states of an orbit, with its periodic wrap removed.

    ``period`` is the detected orbit period when the orbit returned to its
    starting state within the requested length, else None.
    """

    states: np.ndarray  # (num_unique, N), orbit order
    period: int | None


@dataclass(frozen=True)
class ReachEstimate:
    """Minimum of the pairwise reach quotient, with exclusion bookkeeping."""

    value: float
    num_excluded: int
    num_pairs: int


@dataclass(frozen=True)
class DelaySelection:
    """Classical delay-selection baselines for a scalar series."""

    autocorr_first_zero: int | None
    mi_first_min: int | None
    num_bins: int


def sample_attractor(flow: FlowSpec, x0: np.ndarray, n: int) -> AttractorSample:
    """First n orbit states with the periodic wrap deduplicated.

    The period k is the first return to x0: the first of the n later states
    (one lookahead state included) with ||x_k - x0|| <= 1e-9 ||x0||. Both
    norms are ``spectral._scaled_norms``, so no square of a tiny orbit
    underflows to a false return. Only the first full period of states is
    kept. Fewer than 2 unique states (a fixed point) is an error since no
    pair scan can be formed, and so is an x0 with no finite norm (a
    non-finite entry, or squares that overflow), or one of the n states that
    is not finite (the forward flow overflows, raised by ``generate_orbit``).
    """
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 samples, got n={n}")
    x0 = _check_state(flow, x0)
    # an overflowing distance (inf) or one to an overflowing state (nan) is no return
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(float(np.linalg.norm(x0))):
            raise NonFiniteTrajectoryError(
                "the orbit's first state has no finite norm: an entry is not finite, "
                "or the sum of its squares overflows"
            )
        states = generate_orbit(flow, x0, n)
        # one lookahead state so a period of exactly n is still detected
        returns = np.vstack([states[1:], step(flow, states[-1])])
        returns -= states[0]
        tolerance = _PERIOD_TOLERANCE * _scaled_norms(states[:1])[0]
        returned = np.flatnonzero(_scaled_norms(returns) <= tolerance)
    period = int(returned[0]) + 1 if returned.size else None
    unique = states if period is None else states[:period]
    if unique.shape[0] < 2:
        raise InvalidArgumentError(
            "orbit has a single unique state (fixed point); cannot form pairs"
        )
    return AttractorSample(states=unique, period=period)


def trajectory_manifold_points(table: PairTable) -> np.ndarray:
    """Read-only (n, M N) view of ``table.stack``: row i is the trajectory vector of sample i.

    A reshape of ``table.stack``: the table's stored stack, or on a
    permutation flow one gathered for this call, so row i is the
    ``trajectory_vector`` of ``table.samples[i]`` at the table's M bit for
    bit.
    """
    points = table.stack.reshape(table.shape[0], -1)
    points.setflags(write=False)
    return points


def _point_set(points: np.ndarray, min_points: int) -> np.ndarray:
    """``points`` as a 2-D float array of at least ``min_points`` rows, every entry finite.

    A 1-D array is one point. A NaN entry would drop out of every
    comparison and an infinite one swamp every sum, so either is an error.
    So is a largest norm of 2^511 or more: no chord is longer than twice it,
    and below that every chord square, and each reach quotient, is finite.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D point array, got shape {points.shape}")
    if points.shape[0] < min_points:
        raise InvalidArgumentError(f"need at least {min_points} points, got {points.shape[0]}")
    if not np.all(np.isfinite(points)):
        raise InvalidArgumentError("every point entry must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected here
        largest = float(np.max(_scaled_norms(points)))
    if not largest < _LARGEST_NORM:
        raise InvalidArgumentError(
            f"a point has norm {largest:.3g}; the squares of chords between points "
            f"of norm {_LARGEST_NORM:.3g} or more can overflow"
        )
    return points


def curve_volume(points: np.ndarray, closed: bool = False) -> float:
    """Arc length of an ordered point sequence as the sum of chord lengths."""
    points = _point_set(points, 2)
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(np.sum(chords))
    if closed:
        total += float(np.linalg.norm(points[-1] - points[0]))
    return total


def reach_estimate(points: np.ndarray, tangents: np.ndarray) -> ReachEstimate:
    """Minimum over ordered pairs of ||b-a||^2 / (2 ||normal part of b-a||).

    The normal part is taken against the 1-D tangent line at a, so this is
    the curve specialization of the pointwise reach quotient. Pairs whose
    normal component vanishes (below 1e-12 of the chord length) are excluded
    and counted; if every pair is excluded the points are collinear with
    their tangents and no finite estimate exists.
    """
    points = _point_set(points, 3)
    tangents = np.atleast_2d(np.asarray(tangents, dtype=float))
    n = points.shape[0]
    if tangents.shape != points.shape:
        raise InvalidArgumentError(
            f"tangent array shape {tangents.shape} does not match points {points.shape}"
        )
    tangent_norms = np.linalg.norm(tangents, axis=1)
    if not np.allclose(tangent_norms, 1.0, atol=1e-8):
        raise InvalidArgumentError("tangents must be unit vectors")

    best = math.inf
    num_excluded = 0
    for a in range(n):
        diffs = points - points[a]
        chord_sq = np.einsum("ij,ij->i", diffs, diffs)
        along = diffs @ tangents[a]
        diffs -= np.outer(along, tangents[a])  # now the normal parts
        normal_norm = np.linalg.norm(diffs, axis=1)
        keep = normal_norm > _NORMAL_EXCLUSION * np.sqrt(chord_sq)
        keep[a] = False  # a point and itself form no pair
        num_excluded += n - 1 - int(np.count_nonzero(keep))
        if np.any(keep):
            quotients = chord_sq[keep] / (2.0 * normal_norm[keep])
            best = min(best, float(np.min(quotients)))

    num_pairs = n * (n - 1)
    if not math.isfinite(best):
        raise NoEstimateError(
            "every pair had a vanishing normal component; "
            "the sampled curve is a line (infinite reach)"
        )
    return ReachEstimate(value=best, num_excluded=num_excluded, num_pairs=num_pairs)


def finite_difference_tangents(points: np.ndarray) -> np.ndarray:
    """Unit tangents from central differences; one-sided at the endpoints."""
    points = _point_set(points, 3)
    if np.any(np.all(np.diff(points, axis=0) == 0.0, axis=1)):
        raise InvalidArgumentError("repeated consecutive points have no tangent")
    diffs = np.empty_like(points)
    diffs[0] = points[1] - points[0]
    diffs[1:-1] = (points[2:] - points[:-2]) / 2.0
    diffs[-1] = points[-1] - points[-2]
    norms = np.linalg.norm(diffs, axis=1)
    if np.any(norms == 0.0):
        raise InvalidArgumentError(
            "a central difference vanished (curve folds back on itself)"
        )
    return diffs / norms[:, None]


def _demeaned(series: np.ndarray) -> np.ndarray:
    """The series less its mean; its entries and centred sum of squares must be finite.

    Every lag statistic is formed from the centred series, and a finite
    sum of squares bounds each entry below 1.4e154, so no lagged product
    and no histogram range can overflow.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-D series, got shape {series.shape}")
    if not np.all(np.isfinite(series)):
        raise InvalidArgumentError("every series entry must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = series - np.mean(series)
        if not math.isfinite(np.dot(centered, centered)):
            raise InvalidArgumentError("the series' centred sum of squares overflows")
    if not np.any(centered):
        raise ZeroVarianceError("series is constant; lag structure is undefined")
    return centered


def _lag_window(length: int, max_lag: int | None) -> int:
    """The largest lag scanned: ``max_lag``, by default a quarter of ``length``, if it fits."""
    if max_lag is None:
        max_lag = length // 4
    if max_lag < 1 or length < 4 * max_lag:
        raise InvalidArgumentError(
            f"series of length {length} supports lags up to {length // 4}, "
            f"requested {max_lag}"
        )
    return max_lag


def autocorr_first_zero(series: np.ndarray, max_lag: int | None = None) -> int | None:
    """First lag at which the biased autocorrelation crosses zero.

    Scans lags 1 .. max_lag (default: a quarter of the series length) and
    returns the first lag with non-positive autocorrelation, or None.
    """
    centered = _demeaned(series)
    max_lag = _lag_window(centered.size, max_lag)
    denom = float(np.dot(centered, centered))
    for lag in range(1, max_lag + 1):
        r = float(np.dot(centered[:-lag], centered[lag:])) / denom
        if r <= 0.0:
            return lag
    return None


def _histogram_mi(x: np.ndarray, y: np.ndarray, num_bins: int) -> float:
    """Mutual information (nats) of an equal-width joint histogram."""
    joint, _, _ = np.histogram2d(x, y, bins=num_bins)
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / (px @ py)[mask])))


def mutual_information_first_min(
    series: np.ndarray, num_bins: int = DEFAULT_NUM_BINS, max_lag: int | None = None
) -> int | None:
    """First strict local minimum of the lagged mutual information.

    The mutual information I(s_t; s_{t+lag}) is estimated from an
    equal-width histogram with ``num_bins`` bins per axis. Lag 0 (the
    self-information) serves as the left neighbor of lag 1. Returns None
    when no strict local minimum occurs within max_lag (default: a quarter
    of the series length). ``num_bins`` may not exceed the series length,
    or ``DEFAULT_NUM_BINS`` for a shorter series: each lag's histogram holds
    about (num_bins + 2)^2 counts, so an unbounded bin count would exhaust
    memory, and more bins than points leave most cells empty.
    """
    if num_bins < 2:
        raise InvalidArgumentError(f"num_bins must be >= 2, got {num_bins}")
    centered = _demeaned(series)
    length = centered.size
    if num_bins > max(length, DEFAULT_NUM_BINS):
        raise InvalidArgumentError(
            f"num_bins must be <= max(series length {length}, {DEFAULT_NUM_BINS}), "
            f"got {num_bins}"
        )
    max_lag = _lag_window(length, max_lag)
    mi = np.empty(max_lag + 1)
    mi[0] = _histogram_mi(centered, centered, num_bins)
    for lag in range(1, max_lag + 1):
        mi[lag] = _histogram_mi(centered[:-lag], centered[lag:], num_bins)
    for lag in range(1, max_lag):
        if mi[lag] < mi[lag - 1] and mi[lag] < mi[lag + 1]:
            return lag
    return None


def delay_selection(series: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> DelaySelection:
    """Both classical delay baselines for one series."""
    return DelaySelection(
        autocorr_first_zero=autocorr_first_zero(series),
        mi_first_min=mutual_information_first_min(series, num_bins=num_bins),
        num_bins=num_bins,
    )

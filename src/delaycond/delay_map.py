"""Measurement coefficients, time series, and backward-iterate trajectory arrays.

The scalar time series is s_n = <alpha, x_n>. Stacking M consecutive past
samples gives the delay vector; stacking the M backward iterates of a state
gives the M x N trajectory matrix G (row m is Phi^{-m}(x)) and, flattened
row by row, the trajectory vector in R^{MN}. Each is a plain read-only
array. The delay vector is computed as G_x @ alpha. ``_backward_rows``
forms the backward iterates (``_gathered_rows`` gathers them on a
permutation flow); ``dynamics`` iterates the flow for orbits and Lyapunov probes.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowSpec, _check_seed, _check_state
from .errors import DimensionMismatchError, InvalidArgumentError, NonFiniteTrajectoryError

ENSEMBLES = ("rademacher", "gaussian")

_PACKAGE = __name__.partition(".")[0]


@dataclass(frozen=True)
class MeasurementCoeffs:
    """Coefficient vector selecting the linear measurement functional <alpha, .>.

    ``seed`` is the integer that reproduces a drawn vector; it is None for
    user-supplied coefficients. Every entry of ``alpha`` must be finite.
    """

    alpha: np.ndarray
    ensemble: str  # "rademacher" | "gaussian" | "user"
    seed: int | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.alpha)):
            raise InvalidArgumentError("coefficients must be finite")


@dataclass(frozen=True)
class DelayParams:
    """Number of delays M stacked into each delay vector."""

    num_delays: int

    def __post_init__(self):
        if self.num_delays < 1:
            raise InvalidArgumentError(
                f"num_delays must be >= 1, got {self.num_delays}"
            )


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for draw ``index`` of a stream rooted at ``base_seed``.

    Keying on (base_seed, index) makes every draw reproducible independently
    of evaluation order. Both must be >= 0.
    """
    _check_seed(base_seed, "base_seed")
    _check_seed(index, "draw index")
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])


def _check_ensemble(ensemble: str) -> None:
    if ensemble not in ENSEMBLES:
        raise InvalidArgumentError(
            f"unknown ensemble {ensemble!r}, expected one of {ENSEMBLES}"
        )


def draw_coeffs(ensemble: str, n: int, seed: int) -> MeasurementCoeffs:
    """Draw a reproducible coefficient vector from the named ensemble.

    "rademacher" draws i.i.d. +/-1 entries, "gaussian" i.i.d. standard
    normals. The same (ensemble, n, seed) always yields the same vector.
    """
    _check_ensemble(ensemble)
    if n < 1:
        raise InvalidArgumentError(f"coefficient dimension must be >= 1, got {n}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    if ensemble == "rademacher":
        alpha = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    else:
        alpha = rng.standard_normal(n)
    alpha.setflags(write=False)
    return MeasurementCoeffs(alpha=alpha, ensemble=ensemble, seed=int(seed))


def draw_stream(
    ensemble: str, n: int, num_draws: int, base_seed: int
) -> list[MeasurementCoeffs]:
    """Draws 0, ..., num_draws - 1 of the stream rooted at ``base_seed``.

    Draw k is ``draw_coeffs(ensemble, n, derive_seed(base_seed, k))``, so
    each draw is the same whatever the number of draws made with it.
    """
    if num_draws < 1:
        raise InvalidArgumentError(f"num_draws must be >= 1, got {num_draws}")
    return [draw_coeffs(ensemble, n, derive_seed(base_seed, k)) for k in range(num_draws)]


def user_coeffs(alpha: np.ndarray) -> MeasurementCoeffs:
    """Wrap an explicit coefficient vector."""
    alpha = np.ascontiguousarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise InvalidArgumentError("coefficients must be a non-empty 1-D vector")
    alpha.setflags(write=False)
    return MeasurementCoeffs(alpha=alpha, ensemble="user", seed=None)


def _check_coeffs(flow: FlowSpec, alpha: MeasurementCoeffs) -> np.ndarray:
    if alpha.alpha.shape != (flow.ambient_dim,):
        raise DimensionMismatchError(
            f"coefficient vector has length {alpha.alpha.shape[0]}, "
            f"flow ambient dimension is {flow.ambient_dim}"
        )
    return alpha.alpha


def time_series(orbit: np.ndarray, alpha: MeasurementCoeffs) -> np.ndarray:
    """Scalar observations s_n = <alpha, x_n> along an orbit's (length, N) states."""
    if orbit.shape[1] != alpha.alpha.shape[0]:
        raise DimensionMismatchError(
            f"coefficient vector has length {alpha.alpha.shape[0]}, "
            f"orbit states have dimension {orbit.shape[1]}"
        )
    return orbit @ alpha.alpha


def _warn_excess_delays(flow: FlowSpec, params: DelayParams) -> None:
    """Warn when M > N, naming the first caller outside the package."""
    if params.num_delays > flow.ambient_dim:
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE):
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"num_delays={params.num_delays} exceeds the ambient dimension "
            f"{flow.ambient_dim}; the soft rank plateaus at the ambient dimension",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _gathered_rows(states: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Row k of each state gathered by ``powers[k]``, as a C-contiguous (n, m, N) array.

    With powers = ``permutation_powers(flow.permutation, m)`` these are the
    backward iterates of each state. Rows k >= 1 get ``+ 0.0``, which makes
    them bit for bit the matvecs by ``flow.inverse``, whose zero sums are
    +0.0. (``states[:, powers]`` gathers the same values, but not in C order,
    which slows every later pass over the result.)
    """
    out = np.take(states, powers, axis=1)
    out[:, 1:] += 0.0
    return out


def _backward_rows(flow: FlowSpec, states: np.ndarray, m: int, named: bool) -> np.ndarray:
    """Rows x, Phi^{-1}(x), ..., Phi^{-m+1}(x) of each state, as an (n, m, N) array.

    The rows are the matvecs by ``flow.inverse``, state by state, whatever
    the flow, in a C-contiguous array; a permutation flow's ``PairTable``
    gathers the same bits instead (``_gathered_rows``). Raises
    NonFiniteTrajectoryError naming the first non-finite row of the first
    state that has one (and that state's index, when ``named``).
    """
    out = np.empty((states.shape[0], m, flow.ambient_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, cur in enumerate(states):
            for k in range(m):
                out[i, k] = cur
                if k + 1 < m:
                    cur = flow.inverse @ cur
    _check_finite_rows(np.isfinite(out).all(axis=2), m, named)
    return out


def _check_finite_rows(finite: np.ndarray, m: int, named: bool) -> None:
    """Raise at the first False of ``finite[i, k]``: iterate k (of m) of state i is not finite."""
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        k = int(np.argmin(finite[i]))
        where = f"sample {i}: " if named else ""
        raise NonFiniteTrajectoryError(
            f"{where}backward iterate at delay index {k} of {m} is not finite; "
            "the inverse flow overflows or the state is not finite"
        )


def trajectory_matrix(flow: FlowSpec, x: np.ndarray, params: DelayParams) -> np.ndarray:
    """Read-only M x N matrix of backward iterates; row 0 is x itself."""
    x = _check_state(flow, x)
    _warn_excess_delays(flow, params)
    g = _backward_rows(flow, x[None], params.num_delays, named=False)[0]
    g.setflags(write=False)
    return g


def trajectory_matrices(
    flow: FlowSpec, samples: np.ndarray, params: DelayParams
) -> np.ndarray:
    """Stack of trajectory matrices, shape (len(samples), M, N).

    Each sample is iterated independently, so entry i equals
    ``trajectory_matrix(flow, samples[i], params)`` bit for bit regardless
    of which other samples are in the stack.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    _check_sample_dim(flow, samples)
    _warn_excess_delays(flow, params)
    return _backward_rows(flow, samples, params.num_delays, named=True)


def _check_sample_dim(flow: FlowSpec, samples: np.ndarray) -> None:
    if samples.shape[1] != flow.ambient_dim:
        raise DimensionMismatchError(
            f"samples have dimension {samples.shape[1]}, "
            f"flow ambient dimension is {flow.ambient_dim}"
        )


def trajectory_vector(flow: FlowSpec, x: np.ndarray, params: DelayParams) -> np.ndarray:
    """Concatenation [x, Phi^{-1}(x), ..., Phi^{-M+1}(x)] in R^{MN}, read-only.

    The row-wise flattening of the trajectory matrix, so reshaping back to
    (M, N) reproduces the matrix exactly.
    """
    return trajectory_matrix(flow, x, params).reshape(-1)


def delay_vector(
    flow: FlowSpec, x: np.ndarray, alpha: MeasurementCoeffs, params: DelayParams
) -> np.ndarray:
    """Length-M vector of past measurements: entry m is <alpha, Phi^{-m}(x)>.

    Exactly ``trajectory_matrix(flow, x, params) @ alpha``, the delay map
    F_alpha(x) = G_x alpha.
    """
    a = _check_coeffs(flow, alpha)
    return trajectory_matrix(flow, x, params) @ a


def basis_delay_vector(
    flow: FlowSpec, x: np.ndarray, p: int, params: DelayParams
) -> np.ndarray:
    """Delay vector of the p-th canonical coordinate functional (0-based).

    A copy of column p of the trajectory matrix: entry m is coordinate p of
    Phi^{-m}(x).
    """
    if not 0 <= p < flow.ambient_dim:
        raise InvalidArgumentError(
            f"basis index p={p} out of range [0, {flow.ambient_dim})"
        )
    return trajectory_matrix(flow, x, params)[:, p].copy()


def row_squared_norms(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-row squared norms and their sum.

    Summing per-row dot products keeps the trajectory-vector norm and the
    matrix Frobenius norm bitwise identical (the vector is the row-wise
    flattening of the matrix). ``isometry_ratio`` takes its chord norms from
    here; every ratio denominator, ``PairTable.traj_dist_sq``, comes from
    ``pdist`` and agrees to rounding.
    """
    row_sqs = np.einsum("mn,mn->m", mat, mat)
    return row_sqs, float(np.sum(row_sqs))

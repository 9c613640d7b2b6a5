"""Invertible discrete-time linear flows, orbits, and inverse-flow Lyapunov estimates.

States are plain 1-D numpy arrays of length ``flow.ambient_dim``. A flow
advances the state by one sampling interval; the inverse is precomputed once
at construction (from a rank-revealing decomposition) because backward
iteration sits in the innermost loop of trajectory-matrix construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NonInvertibleFlowError,
)

# Flows with smaller relative smallest singular value are rejected: backward
# iterates are numerically meaningless beyond this point.
SINGULARITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class FlowSpec:
    """An invertible linear map on R^N applied once per sampling interval.

    ``kind`` is "shift" for the cyclic shift (ones on the superdiagonal and
    in the bottom-left corner) and "linear" otherwise. ``sampling_interval``
    is metadata carried into reports, positive and finite; the dynamics are
    already discretized.

    ``permutation`` is set at construction when ``inverse`` is an exact 0/1
    permutation matrix P, else None: then P x == x[permutation] for every x,
    and backward iterates are gathers that move values without rounding.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    kind: str
    sampling_interval: float = 1.0
    permutation: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not 0 < self.sampling_interval < math.inf:
            raise InvalidArgumentError(
                f"sampling interval must be positive and finite, got {self.sampling_interval}"
            )
        object.__setattr__(self, "permutation", _permutation_of(self.inverse))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Orbit:
    """Forward orbit x, Phi(x), Phi^2(x), ... as rows of ``states``."""

    states: np.ndarray  # (length, N)

    @property
    def origin(self) -> np.ndarray:
        return self.states[0]

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Average exponential separation rate of nearby backward trajectories."""

    exponent: float  # nats per step; -inf when the separation underflowed
    num_steps: int
    num_probes: int


def _permutation_of(mat: np.ndarray) -> np.ndarray | None:
    """Index vector p with mat @ x == x[p] when mat is an exact 0/1 permutation matrix."""
    ones = mat == 1.0
    if mat.ndim != 2 or not np.all(ones | (mat == 0.0)):
        return None
    # one 1 per row and per column also rules out a non-square matrix
    if not (np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)):
        return None
    perm = np.argmax(ones, axis=1)
    perm.setflags(write=False)
    return perm


def permutation_powers(perm: np.ndarray, m: int) -> np.ndarray:
    """(m, N) index array whose row k is the index vector of P^k, P x == x[perm].

    Row k satisfies (P^k x) == x[row k] for every x; row 0 is the identity.
    """
    powers = np.empty((m, perm.size), dtype=np.intp)
    powers[0] = np.arange(perm.size)
    for k in range(1, m):
        powers[k] = powers[k - 1][perm]
    return powers


def is_permutation_orbit(flow: FlowSpec, states: np.ndarray) -> bool:
    """Whether ``states`` is one exact orbit of a permutation flow, in either direction.

    True when ``flow.permutation`` is set and, with P = ``flow.inverse``,
    either states[i + 1] == P states[i] for every i (backward order) or
    states[i] == P states[i + 1] for every i (the forward order of
    ``generate_orbit``). Then state i is P^(+/-i) applied to state 0, and
    the trajectory matrices of any two states j - i apart differ from those
    of states 0 and j - i only by one column permutation.
    """
    perm = flow.permutation
    if perm is None:
        return False
    moved = states[:, perm]  # row i is P states[i]
    return bool(np.all(states[1:] == moved[:-1]) or np.all(states[:-1] == moved[1:]))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def make_shift_flow(n: int, sampling_interval: float = 1.0) -> FlowSpec:
    """Cyclic shift flow on R^n: Phi e_j = e_{j-1 mod n}.

    The matrix has ones on the superdiagonal and a one in the bottom-left
    corner. It is an orthogonal permutation, so the inverse is the transpose
    (exact in floating point).
    """
    if n < 2:
        raise InvalidArgumentError(f"shift flow needs ambient dimension >= 2, got {n}")
    phi = np.zeros((n, n))
    idx = np.arange(n - 1)
    phi[idx, idx + 1] = 1.0
    phi[n - 1, 0] = 1.0
    return FlowSpec(
        matrix=_freeze(phi),
        inverse=_freeze(phi.T),
        kind="shift",
        sampling_interval=float(sampling_interval),
    )


def make_linear_flow(matrix: np.ndarray, sampling_interval: float = 1.0) -> FlowSpec:
    """Wrap a square invertible matrix as a flow, precomputing its inverse.

    Invertibility is checked on the singular values: the flow is rejected
    when sigma_min <= 1e-12 * sigma_max. The inverse is assembled from the
    same decomposition.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidArgumentError(f"flow matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidArgumentError("flow matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(mat)
    if s[0] == 0.0 or s[-1] <= SINGULARITY_THRESHOLD * s[0]:
        raise NonInvertibleFlowError(
            f"flow matrix is numerically singular (sigma_min/sigma_max = "
            f"{0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e})"
        )
    inverse = (vt.T / s) @ u.T
    return FlowSpec(
        matrix=_freeze(mat),
        inverse=_freeze(inverse),
        kind="linear",
        sampling_interval=float(sampling_interval),
    )


def _check_seed(seed: int, name: str = "seed") -> None:
    """Reject a negative seed, which numpy's seeding takes as a raw ValueError."""
    if seed < 0:
        raise InvalidArgumentError(f"{name} must be >= 0, got {seed}")


def _check_state(flow: FlowSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (flow.ambient_dim,):
        raise DimensionMismatchError(
            f"state has shape {x.shape}, flow ambient dimension is {flow.ambient_dim}"
        )
    return x


def step(flow: FlowSpec, x: np.ndarray) -> np.ndarray:
    """Advance one sampling interval: x -> Phi x."""
    return flow.matrix @ _check_state(flow, x)


def inverse_step(flow: FlowSpec, x: np.ndarray) -> np.ndarray:
    """Go back one sampling interval: x -> Phi^{-1} x."""
    return flow.inverse @ _check_state(flow, x)


def generate_orbit(flow: FlowSpec, x0: np.ndarray, length: int) -> Orbit:
    """Forward orbit of exactly ``length`` states starting at x0.

    When ``flow.matrix`` is an exact 0/1 permutation matrix and x0 is
    finite, each step is the gather ``cur[forward] + 0.0`` instead of the
    matvec, with the same bits: each matvec entry sums one exact 1 * x and
    zeros, and that sum turns -0.0 into +0.0 as ``+ 0.0`` does.
    """
    if length < 1:
        raise InvalidArgumentError(f"orbit length must be >= 1, got {length}")
    cur = _check_state(flow, x0)
    # a gather keeps an infinity where the matvec's 0 * inf makes NaN
    forward = _permutation_of(flow.matrix) if np.all(np.isfinite(cur)) else None
    states = np.empty((length, flow.ambient_dim))
    for n in range(length):
        states[n] = cur
        if n + 1 < length:
            cur = flow.matrix @ cur if forward is None else cur[forward] + 0.0
    return Orbit(states=_freeze(states))


def lyapunov_exponent_inverse_flow(
    flow: FlowSpec,
    x0: np.ndarray,
    num_steps: int,
    perturbation: float,
    num_probes: int = 4,
    seed: int = 0,
) -> LyapunovEstimate:
    """Maximal Lyapunov exponent of the inverse flow by perturbation tracking.

    Each probe starts a second trajectory displaced by ``perturbation`` in a
    random direction and measures how fast the two backward trajectories
    separate. The flows here are linear, so the separation evolves exactly by
    the inverse matrix and is propagated directly, renormalized after every
    step; this keeps the estimate finite even when the base orbit itself
    grows without bound. Per-step log gains are averaged over the last
    ``num_steps`` steps after a short transient (one tenth of the run, at
    least 10 steps) so the probe direction has aligned with the dominant
    growth direction. Probe results are averaged.

    For a shift flow the result is 0 (the flow is an isometry). A collapsed
    separation is reported as ``exponent = -inf``.
    """
    if num_steps < 10:
        raise InvalidArgumentError(f"num_steps must be >= 10, got {num_steps}")
    if not (perturbation > 0 and math.isfinite(perturbation)):
        raise InvalidArgumentError(f"perturbation must be positive and finite, got {perturbation}")
    if num_probes < 1:
        raise InvalidArgumentError(f"num_probes must be >= 1, got {num_probes}")
    _check_seed(seed)
    _check_state(flow, x0)
    burn_in = max(10, num_steps // 10)

    probe_means = []
    for probe in range(num_probes):
        rng = np.random.default_rng([seed, probe])
        direction = rng.standard_normal(flow.ambient_dim)
        with np.errstate(over="ignore"):
            offset = perturbation * direction
            scale = float(np.linalg.norm(offset))
        if not 0.0 < scale < math.inf:
            # the norm of the displacement overflows or underflows; only its
            # direction is propagated, so take it from the unscaled draw
            offset, scale = direction, float(np.linalg.norm(direction))
        delta = offset / scale
        log_gains = np.empty(num_steps)
        for m in range(burn_in + num_steps):
            delta = flow.inverse @ delta
            gain = float(np.linalg.norm(delta))
            if gain == 0.0:
                return LyapunovEstimate(
                    exponent=-math.inf, num_steps=num_steps, num_probes=num_probes
                )
            if m >= burn_in:
                log_gains[m - burn_in] = math.log(gain)
            delta /= gain
        probe_means.append(float(np.mean(log_gains)))

    return LyapunovEstimate(
        exponent=float(np.mean(probe_means)),
        num_steps=num_steps,
        num_probes=num_probes,
    )

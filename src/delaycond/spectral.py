"""Soft ranks, exhaustive pair scans, and the analytic shift-system oracle.

The soft rank of a nonzero matrix is its squared Frobenius norm over its
squared spectral norm: the effective number of significant singular values,
between 1 and the rank. The scan over sample pairs minimizes the soft rank
of the trajectory-matrix differences D = G_x - G_y; its minimum over a
finite sample only upper-bounds the minimum over the whole attractor, so
results carry the pair count.

Every pair quantity comes from one ``PairTable`` per (flow, samples, M),
which checks the samples and forms the pair differences and isometry
ratios; the one-pair functions read the two-sample table of their pair.

For a permutation flow on integer-valued samples of bounded size (the shift
on basis states), the table runs in exact mode and builds no trajectory
stack: each trajectory matrix is one (M, N) gather of its sample, so a pair
difference is a gather of the sample difference, and the trajectory
distances are M times the state distances. With coefficients of bounded
size too (Rademacher draws), the delay vectors are ``samples @ O_alpha.T``
with O_alpha one (M, N) gather of alpha, instead of ``stack @ alpha``.
Every product and partial sum on either path is then an integer of at most
2^53, exact in double precision in any order of summation, so both give the
same bits. The bounds are in ``PairTable`` and ``PairTable.ratios``; any
other input takes the (n, M, N) stack, built once per table (in exact mode,
on first use).

The scan runs in two passes over chunks of pair differences: a screen, then
a certification pass that takes the dense SVD of every pair the screen
places within a rounding band of its minimum. The reported minimum and
argmin come from those dense values, so they equal an exhaustive dense
scan's bit for bit, exact analytic ties included. Chunks of either pass are
spread over the ``threads`` workers, and a pass of at least ``threads``
pairs has at least one chunk per worker. A chunk is sized in bytes, at most
``_CHUNK_BYTES`` of differences or one pair, so a worker's working set does
not grow with M N. There are two screens:

- When the samples are one exact orbit of a permutation flow (the cyclic
  shift's orbits, checked by ``dynamics.is_permutation_orbit``), the
  trajectory matrix of state i is that of state 0 with its columns permuted,
  so pair (i, j) has the exact singular values of pair (0, j - i). The
  screen is the dense soft rank of the n - 1 representatives (0, d), and a
  kept separation class sends all its pairs to the certification pass.
- Otherwise each pair is screened from its smaller Gram matrix (D D^T, or
  D^T D when M > N): its trace is ||D||_F^2 and its top eigenvalue
  ||D||_2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from ._parallel import ordered_map, resolve_threads
from .delay_map import DelayParams, _gathered_rows, _warn_excess_delays, trajectory_matrices
from .dynamics import FlowSpec, _check_state, is_permutation_orbit, permutation_powers
from .errors import (
    DegeneratePairError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    UndefinedSoftRankError,
)

# Bytes of one chunk of pair data, in every scan pass (M N floats per pair)
# and in the report's per-pair reductions (one float per draw and pair).
# Each scan worker holds one chunk of differences at a time.
_CHUNK_BYTES = 4 << 20

# Relative distance below which two states are treated as coincident.
COINCIDENCE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class SoftRankResult:
    """Soft rank with the norms and singular values behind it."""

    value: float
    frobenius_sq: float
    spectral_sq: float
    singular_values: np.ndarray  # descending


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
class PairScanResult:
    """Minimum soft rank over all sample pairs (an upper bound estimate).

    ``argmin_pair`` is lexicographically smallest among ties.
    ``num_certified`` counts the pairs whose dense SVD the minimum was taken
    over: the screen's rounding band, or every pair when the scan keeps
    per-pair values. ``num_chunks`` counts the chunks of pair differences
    the scan formed, over all its passes. ``soft_ranks`` holds every pair's
    dense soft rank in ``pair_indices`` order when the scan is asked to keep
    per-pair values, else None. ``table`` is the pair table the scan ran
    on, for callers that go on to use the same pairs.
    """

    infimum: float
    argmin_pair: tuple[int, int]
    num_pairs: int
    num_certified: int
    num_chunks: int
    table: PairTable = field(repr=False)
    soft_ranks: np.ndarray | None = field(default=None, repr=False)


def soft_rank(g: np.ndarray) -> SoftRankResult:
    """Squared Frobenius norm over squared spectral norm of a nonzero matrix."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D matrix, got shape {g.shape}")
    if not np.any(g):
        raise UndefinedSoftRankError("soft rank of the zero matrix is undefined (0/0)")
    s = np.linalg.svd(g, compute_uv=False)
    frobenius_sq = float(np.sum(s * s))
    spectral_sq = float(s[0] * s[0])
    return SoftRankResult(
        value=frobenius_sq / spectral_sq,
        frobenius_sq=frobenius_sq,
        spectral_sq=spectral_sq,
        singular_values=s,
    )


def matrix_rank_of(result: SoftRankResult) -> int:
    """Number of singular values above 1e-10 times the largest."""
    s = result.singular_values
    return int(np.sum(s > 1e-10 * s[0]))


def pair_soft_rank(
    flow: FlowSpec, x: np.ndarray, y: np.ndarray, params: DelayParams
) -> SoftRankResult:
    """Soft rank of the trajectory-matrix difference G_x - G_y.

    Read from the two-sample ``PairTable`` of (x, y), so it is the scan's
    dense value of that pair bit for bit.
    """
    return soft_rank(_pair_table(flow, x, y, params).differences(slice(0, 1))[0])


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of all i < j pairs in lexicographic order."""
    i_idx, j_idx = np.triu_indices(n, k=1)
    return i_idx, j_idx


def _band_rtol(m: int, n: int) -> float:
    """Bound rtol on the relative rounding error of a computed soft rank of an m x n D.

    It bounds both the gap between a Gram-screened and a dense soft rank and
    the gap between a dense soft rank and the exact value. With unit
    roundoff u and p = min(m, n): each Gram entry is an inner product of
    length max(m, n), so the Gram is off by at most max(m, n) u ||D||_F^2
    <= m n u ||D||_2^2 in norm, which moves its top eigenvalue by as much,
    and its trace, ||D||_F^2, by at most (m + n) u relative; eigvalsh and
    the SVD are backward stable, adding c p u and c m n u with LAPACK's
    modest constant c. The factor 16 covers these terms with room: at
    m = 32, n = 256 the bound is 3e-11, while measured gaps stay below
    4e-15, and 5.7e-14 between the dense values of one orbit separation
    class. The Gram screen's band is (1 + rtol) / (1 - rtol) <= 1 + 3 rtol;
    the orbit screen's is its square, ((1 + rtol) / (1 - rtol))^2 <= 1 + 5
    rtol, since both its screen value and the screened dense value are
    off the class's exact value. Both inequalities hold for rtol <= 0.1.
    """
    return 16.0 * float(np.finfo(float).eps) * (m * n + m + n)


class PairTable:
    """The C(n, 2) sample pairs of one (flow, samples, M), in ``pair_indices`` order.

    Construction checks that there are at least 2 samples, decides exact
    mode, builds the trajectory stack outside it (which checks that every
    sample and backward iterate is finite), then checks that no squared
    trajectory distance overflows and that no two samples coincide. This
    is the library's one coincidence rule; a coincident pair is an error,
    never skipped. ``samples`` is a copy of the samples and
    ``shape`` is the stack's (n, M, N). ``state_dist_sq[k]`` is the squared
    state-space distance of pair k, and ``traj_dist_sq[k]`` its squared
    trajectory-vector distance, the denominator of its isometry ratio.

    The table is in exact mode when the flow is a permutation flow
    (``flow.permutation`` set), every sample is integer-valued and
    M N (2 max|x|)^2 <= 2^53; such samples are finite. Each row of a
    trajectory matrix is then a permutation of its sample, so ||x~ - y~||^2
    = M ||x - y||^2, and every square and partial sum of either side is an
    integer of at most 2^53, an exact double in any order of summation.
    ``traj_dist_sq`` is then ``M * state_dist_sq``, bit for bit the ``pdist``
    of the flattened stack, and ``differences`` gathers each pair from its
    sample difference; ``stack`` is gathered from the samples only when read.
    """

    def __init__(self, flow: FlowSpec, samples: np.ndarray, params: DelayParams):
        samples = np.array(samples, dtype=float, ndmin=2)
        n = samples.shape[0]
        if n < 2:
            raise InvalidArgumentError(f"need at least 2 samples to form a pair, got {n}")
        m, n_amb = params.num_delays, flow.ambient_dim
        self.samples = samples
        self.shape = (n, m, n_amb)
        self._max_abs = float(np.max(np.abs(samples), initial=0.0))
        # exact mode, decided before anything is built: its samples are finite
        exact = (
            flow.permutation is not None
            and samples.shape[1] == n_amb
            and _is_integral(samples)
            and _sums_exactly(m * n_amb, 2.0, self._max_abs)
        )
        self.i_idx, self.j_idx = pair_indices(n)
        self.state_dist_sq = pdist(samples, "sqeuclidean")  # condensed, in pair_indices order
        if exact:
            _warn_excess_delays(flow, params)
            self._stack = None
            # the (M, N) index arrays of P^m and P^-m: gathering by powers
            # forms the backward iterates, and alpha[inverse_powers] is O_alpha
            self._powers = permutation_powers(flow.permutation, m)
            self._inverse_powers = permutation_powers(np.argsort(flow.permutation), m)
            self.traj_dist_sq = m * self.state_dist_sq
        else:
            # built before the distance test below: it names a non-finite
            # sample, which that test would take for a coincident pair
            # (inf <= 1e-12 * inf)
            self._stack = trajectory_matrices(flow, samples, params)  # all finite
            self._powers = self._inverse_powers = None
            self.traj_dist_sq = _stack_traj_dist_sq(self._stack)
        # before the coincidence test, which would take the overflowing norms
        # of such samples for a coincidence (inf <= 1e-12 * inf)
        overflow = np.flatnonzero(~np.isfinite(self.traj_dist_sq))
        if overflow.size:
            i, j = self.pair(int(overflow[0]))
            raise NonFiniteTrajectoryError(
                f"samples {i} and {j}: their squared trajectory distance overflows"
            )
        norms = np.linalg.norm(samples, axis=1)
        scales = np.maximum(norms[self.i_idx], norms[self.j_idx])
        # bit for bit pdist(samples), which takes the square root of the same sums
        bad = np.flatnonzero(np.sqrt(self.state_dist_sq) <= COINCIDENCE_THRESHOLD * scales)
        if bad.size:
            i, j = self.pair(int(bad[0]))
            raise DegeneratePairError(
                f"samples {i} and {j} coincide; "
                "their isometry ratio and soft rank are undefined"
            )

    @property
    def stack(self) -> np.ndarray:
        """The (n, M, N) trajectory stack; in exact mode, gathered on first use."""
        if self._stack is None:
            self._stack = _gathered_rows(self.samples, self._powers)
        return self._stack

    @property
    def num_pairs(self) -> int:
        return int(self.i_idx.size)

    def pair(self, k: int) -> tuple[int, int]:
        return int(self.i_idx[k]), int(self.j_idx[k])

    def differences(self, pairs: slice | np.ndarray) -> np.ndarray:
        """stack[i] - stack[j] of the pairs at a slice or an index array of the pair order.

        In exact mode each is gathered from its sample difference, with
        ``+ 0.0`` on rows m >= 1 as the stack has (``_gathered_rows``): the
        same bits, signed zeros included. Otherwise a slice takes, for each
        i in it, one subtraction from a slice of the stack (the partners j
        of one i are consecutive), with no gathered copies.
        """
        if self._powers is not None:
            sample_diffs = self.samples[self.i_idx[pairs]] - self.samples[self.j_idx[pairs]]
            return _gathered_rows(sample_diffs, self._powers)
        stack = self._stack
        if not isinstance(pairs, slice):
            return stack[self.i_idx[pairs]] - stack[self.j_idx[pairs]]
        out = np.empty((pairs.stop - pairs.start,) + stack.shape[1:])
        k = pairs.start
        while k < pairs.stop:
            i, j = self.pair(k)
            take = min(pairs.stop - k, stack.shape[0] - j)
            offset = k - pairs.start
            np.subtract(stack[i], stack[j : j + take], out=out[offset : offset + take])
            k += take
        return out

    def ratios(self, alpha: np.ndarray) -> np.ndarray:
        """Isometry ratio ||D alpha||^2 / ||D||_F^2 of every pair.

        The numerator is the ``pdist`` of the delay vectors F_alpha(x) = G_x
        alpha. In exact mode with an integer-valued alpha and M (2 N max|x|
        max|alpha|)^2 <= 2^53, they are formed as ``samples @ O_alpha.T``:
        row m of O_alpha is alpha permuted by P^m, one (M, N) gather. Every
        product and partial sum of that product and of the ``pdist`` is then
        an integer of at most 2^53, so the delay vectors and the numerator are
        bit for bit those of ``stack @ alpha``, whatever the order of
        summation. Other alpha take ``stack @ alpha``.
        """
        powers = self._inverse_powers
        if (
            powers is not None
            and _is_integral(alpha)
            and _sums_exactly(
                powers.shape[0], 2.0 * powers.shape[1], self._max_abs, np.max(np.abs(alpha))
            )
        ):
            measured = _gathered_delay_vectors(self.samples, powers, alpha)
        else:
            measured = _stack_delay_vectors(self.stack, alpha)
        return pdist(measured, "sqeuclidean") / self.traj_dist_sq


def _pair_table(
    flow: FlowSpec, x: np.ndarray, y: np.ndarray, params: DelayParams
) -> PairTable:
    """The two-sample table of states x and y, which the one-pair functions read."""
    return PairTable(flow, np.stack([_check_state(flow, x), _check_state(flow, y)]), params)


def _is_integral(values: np.ndarray) -> bool:
    """Whether every entry is an integer (NaN is not; an infinity passes)."""
    return bool(np.all(values == np.rint(values)))


def _sums_exactly(terms: int, *factors: float) -> bool:
    """Whether ``terms`` squares of integers up to prod(factors) in size sum to at most 2^53.

    The factors are integer-valued; the bound is taken in exact integer
    arithmetic, and an infinite factor fails it.
    """
    if not all(math.isfinite(factor) for factor in factors):
        return False
    return terms * math.prod(int(factor) for factor in factors) ** 2 <= 2**53


# The two ways of forming the pair denominators and the delay vectors; tests
# replace them to show which one ran.
def _stack_traj_dist_sq(stack: np.ndarray) -> np.ndarray:
    return pdist(stack.reshape(stack.shape[0], -1), "sqeuclidean")


def _stack_delay_vectors(stack: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return stack @ alpha  # (n, M)


def _gathered_delay_vectors(
    samples: np.ndarray, inverse_powers: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    return samples @ alpha[inverse_powers].T  # O_alpha = alpha[inverse_powers]


def _screened_soft_ranks(diffs: np.ndarray) -> np.ndarray:
    """Trace over top eigenvalue of the smaller Gram (D D^T or D^T D), per difference."""
    transposed = diffs.transpose(0, 2, 1)
    if diffs.shape[1] <= diffs.shape[2]:
        gram = diffs @ transposed
    else:
        gram = transposed @ diffs
    return np.einsum("kii->k", gram) / np.linalg.eigvalsh(gram)[:, -1]


def _dense_soft_ranks(diffs: np.ndarray) -> np.ndarray:
    """Soft rank of each difference from its full singular-value list."""
    svals = np.linalg.svd(diffs, compute_uv=False)
    frobenius_sq = np.sum(svals * svals, axis=1)
    spectral_sq = svals[:, 0] * svals[:, 0]
    return frobenius_sq / spectral_sq


def _chunks(num: int, parts: int, item_floats: int) -> list[slice]:
    """``range(num)`` in order, in slices of at most ``_CHUNK_BYTES`` of items.

    Each item is ``item_floats`` doubles; a slice holds at least one item,
    however large. A pass of fewer than ``parts`` full chunks is cut instead
    into ``min(parts, num)`` slices of ``ceil(num / parts)`` items or one
    fewer, so that every worker gets one slice and none is left over.
    """
    per_chunk = max(1, _CHUNK_BYTES // (8 * item_floats))
    if num < parts * per_chunk:
        bounds = [-(-num * k // parts) for k in range(parts + 1)]
        return [slice(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]
    return [slice(start, min(start + per_chunk, num)) for start in range(0, num, per_chunk)]


def infimum_soft_rank(
    flow: FlowSpec,
    samples: np.ndarray,
    params: DelayParams,
    keep_per_pair: bool = False,
    threads: int = 1,
) -> PairScanResult:
    """Exact minimum of the pair soft rank over all C(n, 2) sample pairs.

    Coincident samples are a hard error, never skipped. ``infimum`` and
    ``argmin_pair`` are dense-SVD values, identical to a sequential scan of
    every pair, whichever ``threads`` (0 picks the CPU count) evaluate the
    chunks. With ``keep_per_pair`` every pair gets the dense SVD and the
    result keeps the values as ``soft_ranks``. Without it only the pairs in
    the rounding band of a screen get it: the separation classes of an
    exact permutation-flow orbit (``dynamics.is_permutation_orbit``), screened
    by their representatives (0, d), or else the pairs by the Gram screen.
    """
    workers = resolve_threads(threads)
    table = PairTable(flow, samples, params)
    num_pairs = table.num_pairs
    rtol = _band_rtol(*table.shape[1:])
    pair_floats = table.shape[1] * table.shape[2]
    num_chunks = 0

    def scan_pass(soft_ranks, num: int, select=lambda part: part) -> np.ndarray:
        """``soft_ranks`` of the pairs ``select(part)`` over the chunks of ``range(num)``."""
        nonlocal num_chunks
        parts = _chunks(num, workers, pair_floats)
        num_chunks += len(parts)
        return np.concatenate(
            ordered_map(lambda part: soft_ranks(table.differences(select(part))), parts, workers)
        )

    if keep_per_pair:
        candidates = np.arange(num_pairs)
        values = scan_pass(_dense_soft_ranks, num_pairs)
    else:
        if is_permutation_orbit(flow, table.samples):
            # pair (i, j) has the exact singular values of the pair (0, j - i),
            # and the pairs (0, d) lead the pair order
            representatives = scan_pass(_dense_soft_ranks, table.shape[0] - 1)
            # a representative and every member's dense value are each within
            # rtol of the class's exact value, so the representative screens
            # each member within (1 + rtol) / (1 - rtol), and the band is
            # ((1 + rtol) / (1 - rtol))^2 <= 1 + 5 rtol
            cutoff = np.min(representatives) * (1.0 + 5.0 * rtol)
            in_band = ~(representatives > cutoff)[table.j_idx - table.i_idx - 1]
        else:
            screened = scan_pass(_screened_soft_ranks, num_pairs)
            # if every screened value is within rtol of its dense value, each
            # pair at or below the dense minimum screens within (1 + rtol) /
            # (1 - rtol) <= 1 + 3 rtol of the screened minimum
            in_band = ~(screened > np.min(screened) * (1.0 + 3.0 * rtol))
        # NaN fails every comparison, so a NaN screen value sends its pairs to the SVD
        candidates = np.flatnonzero(in_band)
        values = scan_pass(_dense_soft_ranks, candidates.size, lambda part: candidates[part])

    best = int(np.argmin(values))  # first occurrence = lexicographic tie-break
    return PairScanResult(
        infimum=float(values[best]),
        argmin_pair=table.pair(int(candidates[best])),
        num_pairs=num_pairs,
        num_certified=int(candidates.size),
        num_chunks=num_chunks,
        table=table,
        soft_ranks=values if keep_per_pair else None,
    )


def shift_system_oracle(n: int, m: int, d: int) -> SoftRankResult:
    """Analytic soft rank of G_x - G_y for shift-flow basis states d apart.

    The rows of G_x - G_y are e_{a+k} - e_{a+d+k} (indices mod n), so the
    Gram matrix is 2 I_M minus ones at index offsets congruent to +/-d mod n.
    For m = n the Gram is circulant with eigenvalues 4 sin^2(pi j d / n);
    for m < n it is built explicitly and solved densely. The squared
    Frobenius norm is the trace, exactly 2m.

    The result always satisfies value >= m/2: the Gram's largest eigenvalue
    is at most 4 because each backward iterate appears in at most two rows.
    """
    if n < 2:
        raise InvalidArgumentError(f"ambient dimension must be >= 2, got {n}")
    if not 1 <= d <= n - 1:
        raise InvalidArgumentError(f"separation d={d} out of range [1, {n - 1}]")
    if not 1 <= m <= n:
        raise InvalidArgumentError(f"num_delays m={m} out of range [1, {n}]")

    if m == n:
        j = np.arange(n)
        eigs = 4.0 * np.sin(np.pi * j * d / n) ** 2
    else:
        rows = np.arange(m)[:, None]
        cols = np.arange(m)[None, :]
        gram = 2.0 * np.eye(m)
        gram -= ((rows - cols) % n == d).astype(float)
        gram -= ((cols - rows) % n == d).astype(float)
        eigs = np.linalg.eigvalsh(gram)

    eigs = np.sort(np.clip(eigs, 0.0, None))[::-1]
    frobenius_sq = 2.0 * m  # exact trace of the Gram
    spectral_sq = float(eigs[0])
    value = frobenius_sq / spectral_sq
    if not value >= m / 2 - 1e-9:
        raise AssertionError(
            f"shift oracle produced value {value} below the m/2 bound for "
            f"(n={n}, m={m}, d={d})"
        )
    return SoftRankResult(
        value=value,
        frobenius_sq=frobenius_sq,
        spectral_sq=spectral_sq,
        singular_values=np.sqrt(eigs),
    )

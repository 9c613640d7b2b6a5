"""Soft ranks, exhaustive pair scans, and the analytic shift-system oracle.

The soft rank of a nonzero matrix is its squared Frobenius norm over its
squared spectral norm: the effective number of significant singular values,
between 1 and the rank. The scan over sample pairs minimizes the soft rank
of the trajectory-matrix differences D = G_x - G_y; its minimum over a
finite sample only upper-bounds the minimum over the whole attractor, so
results carry the pair count.

Every pair quantity comes from one ``PairTable`` per (flow, samples, M),
which checks the samples and forms the pair differences and isometry
ratios. The caller builds the table once and passes it to every function
that works over all pairs (the scan here, the conditioning and Monte Carlo
draws, the trajectory-manifold points); no result carries it. The scan is
the caller's too: it runs once per table, and the draws never rerun it.
The one-pair functions read the two-sample table of their pair.

For a permutation flow (``flow.permutation`` set, as for the cyclic shift)
the table builds no trajectory stack: every row of a trajectory matrix is
a permutation of its sample, so a pair difference is a gather of the sample
difference, the trajectory distances are M times the state distances, and
the delay vectors are ``samples @ O_alpha.T`` with O_alpha one (M, N)
gather of alpha, instead of ``stack @ alpha``. Where every sum of both
forms is an exact integer (small integer samples and coefficients, as the
shift on basis states with Rademacher draws) they give the same bits;
otherwise they agree to rounding. Every other flow takes the (n, M, N)
stack, built once per table.

The scan runs in two passes over chunks of pair indices: a screen that
gives every pair a value, then a certification pass that replaces the value
of every pair within a rounding band of the screen's minimum by its dense
SVD value. The reported minimum and argmin come from those dense values, so
they equal an exhaustive dense scan's bit for bit, exact analytic ties
included. Both passes run on one pool of ``threads`` workers, which the
scan owns; each chunk's task forms the chunk's differences
(``PairTable.differences``) and their soft ranks. A chunk holds at most
``_CHUNK_BYTES`` of differences (or one pair), so a worker's working set
does not grow with M N, and at most a quarter of one worker's share of the
pass, so a pass too small to fill its chunks is cut into about four chunks
per worker and each worker holds a fraction of it. The screen value of a
pair comes from the smaller Gram matrix of its difference (D D^T, or D^T D
when M > N): its trace is ||D||_F^2 and its top eigenvalue ||D||_2^2. When
the samples are one exact orbit of a permutation flow (the cyclic shift's
orbits, checked by ``dynamics.is_permutation_orbit``), the trajectory
matrix of state i is that of state 0 with its columns permuted, so pair
(i, j) has the exact singular values of pair (0, j - i); the screen then
runs over those n - 1 class representatives alone and gives every pair the
value of its class.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .delay_map import (
    DelayParams,
    _check_finite_rows,
    _check_sample_dim,
    _gathered_rows,
    _warn_excess_delays,
    trajectory_matrices,
)
from .dynamics import FlowSpec, _check_state, is_permutation_orbit, permutation_powers
from .errors import (
    DegeneratePairError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    UndefinedSoftRankError,
)

# Bytes of at most one chunk of pair data, in every scan pass (M N floats per
# pair), in the report's per-pair reductions (one float per draw and pair)
# and in the shift oracle's Gram batches (M^2 floats per separation). Each
# scan worker holds one chunk of differences at a time, and on a stack, while
# it forms them, one gathered block of the same size.
_CHUNK_BYTES = 4 << 20

# Chunks per worker of a pass too small to fill its chunks' bytes: a pass
# the budget does not cap is cut into about this many slices per worker.
_CHUNKS_PER_WORKER = 4

# The most workers ``threads`` may ask for, well above the core counts the
# scan gains from. A small pass is cut into about ``_CHUNKS_PER_WORKER``
# chunks per worker, and each busy worker is an OS thread, so an unbounded
# count would start one thread per pair (8 128 on a 128-sample table).
MAX_THREADS = 256

# Relative distance below which two states are treated as coincident.
COINCIDENCE_THRESHOLD = 1e-12

# Floating-point slack on exact-equality bound comparisons (the m/2 bound is
# attained exactly at some (n, m, d), where SVD noise must not flip the verdict).
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class SoftRankResult:
    """Soft rank with the norms and singular values behind it.

    From ``shift_system_oracle`` over an array of separations, each field
    holds one entry per separation along a leading axis.
    """

    value: float | np.ndarray
    frobenius_sq: float | np.ndarray
    spectral_sq: float | np.ndarray
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
    ``num_certified`` counts the pairs in the screen's rounding band, whose
    dense SVD the minimum was taken over. ``num_chunks`` counts the chunks
    of pair differences the scan formed, over both its passes.
    ``soft_ranks`` holds every pair's soft rank in ``pair_indices`` order: a
    certified pair's own dense value, any other pair's Gram-screened value
    (on an orbit, that of its class representative (0, j - i)), its own up
    to rounding.
    """

    infimum: float
    argmin_pair: tuple[int, int]
    num_pairs: int
    num_certified: int
    num_chunks: int
    soft_ranks: np.ndarray = field(repr=False)


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

    A Gram-screened and a dense soft rank are each within rtol of the exact
    value. With unit roundoff u and p = min(m, n): each Gram entry is an
    inner product of length max(m, n), so the Gram is off by at most
    max(m, n) u ||D||_F^2 <= m n u ||D||_2^2 in norm, which moves its top
    eigenvalue by as much, and its trace, ||D||_F^2, by at most (m + n) u
    relative; eigvalsh and the SVD are backward stable, adding c p u and
    c m n u with LAPACK's modest constant c. The factor 16 covers these
    terms with room: at m = 32, n = 256 the bound is 3e-11, while measured
    gaps stay below 4e-15, and 5.7e-14 between the dense values of one orbit
    separation class.

    The scan's band is 1 + 5 rtol. A screen value and the dense value it
    stands for (on an orbit, a class representative's Gram value and a
    member's dense value, both off the class's exact value) are each within
    rtol of one exact value, so they differ by at most a factor (1 + rtol) /
    (1 - rtol). A pair at the dense minimum therefore screens within
    ((1 + rtol) / (1 - rtol))^2 <= 1 + 5 rtol of the smallest screen value;
    the inequality holds for rtol <= 0.1.
    """
    return 16.0 * float(np.finfo(float).eps) * (m * n + m + n)


class PairTable:
    """The C(n, 2) sample pairs of one (flow, samples, M), in ``pair_indices`` order.

    Construction checks that there are at least 2 samples of the flow's
    dimension, each finite with finite backward iterates, then that no
    squared trajectory distance overflows, that no two samples coincide and
    that no squared trajectory distance underflows to a subnormal number.
    This is the library's one coincidence rule; a coincident pair is an
    error, never skipped. ``flow`` is the flow, ``samples`` a copy of the
    samples and ``shape`` the stack's (n, M, N). ``state_dist_sq[k]`` is the
    squared state-space distance of pair k, and ``traj_dist_sq[k]`` its
    squared trajectory-vector distance, the denominator of its isometry
    ratio.

    On a permutation flow (``flow.permutation`` set) each row of a
    trajectory matrix is a permutation of its sample, so ||x~ - y~||^2 =
    M ||x - y||^2: ``traj_dist_sq`` is ``M * state_dist_sq``, the ``pdist``
    of the flattened stack to rounding (bit for bit where every sum is an
    exact integer), and ``stack`` gathers it afresh on each read. Every
    other flow builds the stack at construction; no read changes the table.
    """

    def __init__(self, flow: FlowSpec, samples: np.ndarray, params: DelayParams):
        samples = np.array(samples, dtype=float, ndmin=2)
        n = samples.shape[0]
        if n < 2:
            raise InvalidArgumentError(f"need at least 2 samples to form a pair, got {n}")
        m, n_amb = params.num_delays, flow.ambient_dim
        self.flow = flow
        self.samples = samples
        self.shape = (n, m, n_amb)
        self.i_idx, self.j_idx = pair_indices(n)
        self.state_dist_sq = pdist(samples, "sqeuclidean")  # condensed, in pair_indices order
        # the stack's typed errors come before the distance tests below, which
        # would take a non-finite sample for a coincident pair (inf <= 1e-12 * inf)
        if flow.permutation is not None:
            _check_sample_dim(flow, samples)
            # each backward iterate is a permutation of its sample
            _check_finite_rows(np.isfinite(samples).all(axis=1, keepdims=True), m, named=True)
            _warn_excess_delays(flow, params)
            self._stack = None
            # the (M, N) index arrays of P^m and P^-m: gathering by powers
            # forms the backward iterates, and alpha[inverse_powers] is O_alpha
            self._powers = permutation_powers(flow.permutation, m)
            self._inverse_powers = permutation_powers(np.argsort(flow.permutation), m)
            with np.errstate(over="ignore"):  # an overflow is reported just below
                self.traj_dist_sq = m * self.state_dist_sq
        else:
            self._stack = trajectory_matrices(flow, samples, params)  # all finite
            self._powers = self._inverse_powers = None
            self.traj_dist_sq = pdist(self._stack.reshape(n, -1), "sqeuclidean")
        # before the coincidence test, which would take the overflowing norms
        # of such samples for a coincidence (inf <= 1e-12 * inf)
        self._reject(~np.isfinite(self.traj_dist_sq), NonFiniteTrajectoryError,
                     ": their squared trajectory distance overflows")
        norms = _scaled_norms(samples)
        scales = np.maximum(norms[self.i_idx], norms[self.j_idx])
        # bit for bit pdist(samples); below about 1e-162 the squares underflow
        # to 0, so each pair this flags has its distance formed again, scaled
        dists = np.sqrt(self.state_dist_sq)
        close = np.flatnonzero(dists <= COINCIDENCE_THRESHOLD * scales)
        dists[close] = _scaled_norms(samples[self.i_idx[close]] - samples[self.j_idx[close]])
        self._reject(dists <= COINCIDENCE_THRESHOLD * scales, DegeneratePairError,
                     " coincide; their isometry ratio and soft rank are undefined")
        # subnormal squares carry too few bits for the scan's rounding band
        self._reject(self.traj_dist_sq < np.finfo(float).tiny, NonFiniteTrajectoryError,
                     ": their squared trajectory distance underflows")

    def _reject(self, bad: np.ndarray, error: type, what: str) -> None:
        """Raise ``error`` naming the first pair where ``bad`` holds, then ``what``."""
        first = np.flatnonzero(bad)
        if first.size:
            i, j = self.pair(int(first[0]))
            raise error(f"samples {i} and {j}{what}")

    @property
    def stack(self) -> np.ndarray:
        """The (n, M, N) trajectory stack; on a permutation flow, gathered on each read."""
        return self._stack if self._powers is None else _gathered_rows(self.samples, self._powers)

    @property
    def num_pairs(self) -> int:
        return int(self.i_idx.size)

    def pair(self, k: int) -> tuple[int, int]:
        return int(self.i_idx[k]), int(self.j_idx[k])

    def differences(self, pairs: slice | np.ndarray) -> np.ndarray:
        """stack[i] - stack[j] of the pairs at a slice or an index array of the pair order.

        On a permutation flow each is gathered from its sample difference,
        with ``+ 0.0`` on rows m >= 1 as the stack has (``_gathered_rows``):
        the stack's bits, signed zeros included, since a gather commutes
        with the subtraction. Otherwise the stack rows of the i's are
        gathered, and those of the j's subtracted in place.
        """
        i, j = self.i_idx[pairs], self.j_idx[pairs]
        if self._powers is not None:
            return _gathered_rows(self.samples[i] - self.samples[j], self._powers)
        out = self._stack[i]
        out -= self._stack[j]
        return out

    def ratios(self, alpha: np.ndarray) -> np.ndarray:
        """Isometry ratio ||D alpha||^2 / ||D||_F^2 of every pair.

        The numerator is the ``pdist`` of the delay vectors F_alpha(x) = G_x
        alpha. On a permutation flow they are ``samples @ O_alpha.T``, with
        row m of O_alpha alpha permuted by P^m: ``stack @ alpha`` to
        rounding, bit for bit where every sum is an exact integer. That one
        product may round a sample's row differently for another number of
        samples; any other flow takes each sample's own ``G_x @ alpha``.
        """
        if self._inverse_powers is not None:
            measured = self.samples @ alpha[self._inverse_powers].T
        else:
            measured = self._stack @ alpha  # (n, M)
        return pdist(measured, "sqeuclidean") / self.traj_dist_sq


def resolve_threads(threads: int) -> int:
    """The number of workers ``threads`` asks for: itself, or for 0 the usable CPUs.

    The usable CPUs are the CPUs this process may run on, its affinity set;
    where the platform has no ``sched_getaffinity``, ``os.cpu_count()``.
    ``threads`` outside ``[0, MAX_THREADS]`` is an ``InvalidArgumentError``.
    """
    if not 0 <= threads <= MAX_THREADS:
        raise InvalidArgumentError(f"threads: must be in [0, {MAX_THREADS}], got {threads}")
    if threads:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pair_table(
    flow: FlowSpec, x: np.ndarray, y: np.ndarray, params: DelayParams
) -> PairTable:
    """The two-sample table of states x and y, which the one-pair functions read."""
    return PairTable(flow, np.stack([_check_state(flow, x), _check_state(flow, y)]), params)


def _scaled_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, whose sum of squares is scaled to [1, N] by the row's peak."""
    peaks = np.max(np.abs(rows), axis=1, keepdims=True)
    return peaks[:, 0] * np.linalg.norm(rows / np.where(peaks > 0, peaks, 1.0), axis=1)


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
    """``range(num)`` in order, in slices of equal size but the last.

    Each item is ``item_floats`` doubles. A slice holds the fewer of
    ``_CHUNK_BYTES`` of items and ``ceil(num / (_CHUNKS_PER_WORKER * parts))``
    items, and at least one item, however large. A pass the budget caps
    fills its chunks; a smaller one is cut into about ``_CHUNKS_PER_WORKER``
    slices per worker, so each worker holds a fraction of the pass.
    """
    size = max(1, min(_CHUNK_BYTES // (8 * item_floats), -(-num // (_CHUNKS_PER_WORKER * parts))))
    return [slice(start, min(start + size, num)) for start in range(0, num, size)]


def infimum_soft_rank(table: PairTable, threads: int = 1) -> PairScanResult:
    """Exact minimum of the pair soft rank over all C(n, 2) pairs of ``table``.

    The table has checked the samples (a coincident pair is an error at its
    construction, never skipped). Every pair gets a Gram-screened value: on
    an exact permutation-flow orbit (``dynamics.is_permutation_orbit``) that
    of its class representative (0, j - i), else its own. Every pair in the
    screen's rounding band gets its own dense SVD, which replaces its screen
    value in ``soft_ranks``. ``infimum`` and ``argmin_pair`` are those dense
    values, identical to a sequential dense scan of every pair, whichever
    ``threads`` (0 picks the usable CPUs) evaluate the chunks. A pair off the
    band keeps a screen value above the band, within rounding of its own
    dense value, so ``min(soft_ranks) == infimum``.

    Both passes share one pool of ``resolve_threads(threads)`` workers. Each
    task forms its own differences when it starts, so at most ``workers``
    chunks are alive at once.
    """
    workers = resolve_threads(threads)
    num_pairs = table.num_pairs
    band = 1.0 + 5.0 * _band_rtol(*table.shape[1:])
    pair_floats = table.shape[1] * table.shape[2]
    num_chunks = 0
    orbit = is_permutation_orbit(table.flow, table.samples)

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def scan_pass(soft_ranks, pairs: np.ndarray) -> np.ndarray:
            """``soft_ranks`` of the pairs at the index array ``pairs``, chunk by chunk."""
            nonlocal num_chunks
            parts = _chunks(pairs.size, workers, pair_floats)
            num_chunks += len(parts)
            return np.concatenate(
                list(pool.map(lambda part: soft_ranks(table.differences(pairs[part])), parts))
            )

        # the pairs (0, d) lead the pair order
        screened = scan_pass(
            _screened_soft_ranks, np.arange(table.shape[0] - 1 if orbit else num_pairs)
        )
        if orbit:
            # pair (i, j) has the exact singular values of the pair (0, j - i)
            screened = screened[table.j_idx - table.i_idx - 1]
        # NaN fails every comparison, so a NaN screen value sends its pair to the SVD
        candidates = np.flatnonzero(~(screened > np.min(screened) * band))
        values = scan_pass(_dense_soft_ranks, candidates)
    # every pair off the band keeps its screen value, above the cutoff and so
    # above the minimum, which stays that of the certified pairs
    soft_ranks = screened
    soft_ranks[candidates] = values

    best = int(np.argmin(values))  # first occurrence = lexicographic tie-break
    return PairScanResult(
        infimum=float(values[best]),
        argmin_pair=table.pair(int(candidates[best])),
        num_pairs=num_pairs,
        num_certified=int(candidates.size),
        num_chunks=num_chunks,
        soft_ranks=soft_ranks,
    )


def shift_system_oracle(n: int, m: int, d: int | np.ndarray) -> SoftRankResult:
    """Analytic soft rank of G_x - G_y for shift-flow basis states d apart.

    The rows of G_x - G_y are e_{a+k} - e_{a+d+k} (indices mod n), so the
    Gram matrix is 2 I_M minus ones at index offsets congruent to +/-d mod n.
    For m = n the Gram is circulant with eigenvalues 4 sin^2(pi j d / n);
    for m < n it is built explicitly and solved densely. The squared
    Frobenius norm is the trace, exactly 2m.

    ``d`` is one separation or a 1-D integer array of them. For an array,
    every field gains a leading separation axis, and the Grams are solved
    together, one batched ``eigvalsh`` per ``_chunks`` slice of Grams (at
    most ``_CHUNK_BYTES``); each separation gets the bits its own scalar
    call gives.

    The result always satisfies value >= m/2: the Gram's largest eigenvalue
    is at most 4 because each backward iterate appears in at most two rows.
    """
    seps = np.asarray(d)
    if n < 2:
        raise InvalidArgumentError(f"ambient dimension must be >= 2, got {n}")
    if seps.ndim > 1 or seps.dtype.kind not in "iu":
        raise InvalidArgumentError(f"separation d must be an integer or 1-D integer array; got {d!r}")
    if not np.all((seps >= 1) & (seps <= n - 1)):
        raise InvalidArgumentError(f"separation d={d} out of range [1, {n - 1}]")
    if not 1 <= m <= n:
        raise InvalidArgumentError(f"num_delays m={m} out of range [1, {n}]")

    batch = np.atleast_1d(seps)[:, None]
    if m == n:
        j = np.arange(n)
        eigs = 4.0 * np.sin(np.pi * j * batch / n) ** 2
    else:
        offsets = (np.arange(m)[:, None] - np.arange(m)[None, :]) % n
        eigs = np.empty((batch.shape[0], m))
        for part in _chunks(batch.shape[0], 1, m * m):
            gram = np.broadcast_to(2.0 * np.eye(m), (part.stop - part.start, m, m)).copy()
            gram -= offsets == batch[part, :, None]
            gram -= offsets.T == batch[part, :, None]
            eigs[part] = np.linalg.eigvalsh(gram)

    eigs = np.sort(np.clip(eigs, 0.0, None))[:, ::-1]
    frobenius_sq = 2.0 * m  # exact trace of the Gram
    spectral_sq = eigs[:, 0]
    value = frobenius_sq / spectral_sq
    below = np.flatnonzero(~(value >= m / 2 - BOUND_SLACK))
    if below.size:
        k = below[0]
        raise AssertionError(
            f"shift oracle produced value {value[k]} below the m/2 bound for "
            f"(n={n}, m={m}, d={batch[k, 0]})"
        )
    if seps.ndim == 0:
        return SoftRankResult(
            value=float(value[0]),
            frobenius_sq=frobenius_sq,
            spectral_sq=float(spectral_sq[0]),
            singular_values=np.sqrt(eigs[0]),
        )
    return SoftRankResult(
        value=value,
        frobenius_sq=np.full(value.shape, frobenius_sq),
        spectral_sq=spectral_sq,
        singular_values=np.sqrt(eigs),
    )



import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from delaycond import (
    DegeneratePairError,
    DelayParams,
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    UndefinedSoftRankError,
    draw_coeffs,
    draw_stream,
    infimum_soft_rank,
    make_linear_flow,
    make_shift_flow,
    monte_carlo,
    pair_soft_rank,
    shift_system_oracle,
    soft_rank,
    trajectory_matrices,
)
from delaycond import embedding_analysis, runner, spectral
from delaycond.dynamics import _gathered_rows, is_permutation_orbit
from delaycond.spectral import PairTable, pair_indices

from test_dynamics import (
    PERMUTATION_KINDS,
    exact_orbit,
    permutation_flow,
    relabelled_shift_flow,
    well_conditioned_flow,
)


def matrix_rank_of(g):
    """Number of singular values of the matrix ``g`` above 1e-10 times the largest."""
    s = np.linalg.svd(g, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0]))


def usable_cpus():
    """The CPUs this process may run on; the CPU count where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Adjacent basis states of the 8-state shift with 4 delays: the pair Gram is
# 2I minus the path adjacency, eigenvalues 2 - 2 cos(k pi / 5).
ADJACENT_SHIFT8_M4 = 8.0 / (2.0 + 2.0 * math.cos(math.pi / 5.0))


def assert_kept_soft_ranks(flow, samples, params, soft_ranks):
    """A scan's per-pair values against ``pair_soft_rank`` alone; returns the scan's band.

    The screen value of pair (i, j) is its Gram-screened value; on an exact
    permutation-flow orbit it is that of its class representative
    (0, j - i). The band is 1 + 5 rtol. A pair within the band of the
    smallest screen value has its own dense value bit for bit, and a pair
    off the band its screen value bit for bit, which lies within
    (1 + rtol) / (1 - rtol) of its own.
    """
    samples = np.asarray(samples, dtype=float)
    i_idx, j_idx = pair_indices(samples.shape[0])
    own = np.array(
        [pair_soft_rank(flow, samples[i], samples[j], params) for i, j in zip(i_idx, j_idx)]
    )
    rtol = spectral._band_rtol(params.num_delays, flow.ambient_dim)
    table = PairTable(flow, samples, params)
    if is_permutation_orbit(flow, samples):
        # the pairs (0, d) lead the pair order
        representatives = table.differences(slice(0, samples.shape[0] - 1))
        screen = spectral._screened_soft_ranks(representatives)[j_idx - i_idx - 1]
    else:
        screen = spectral._screened_soft_ranks(table.differences(slice(0, table.num_pairs)))
    in_band = ~(screen > np.min(screen) * (1.0 + 5.0 * rtol))
    assert soft_ranks.tobytes() == np.where(in_band, own, screen).tobytes()
    ratio = soft_ranks / own
    assert np.all(ratio <= (1.0 + rtol) / (1.0 - rtol))
    assert np.all(1.0 / ratio <= (1.0 + rtol) / (1.0 - rtol))
    return in_band


def exhaustive_soft_ranks(flow, samples, params):
    """The dense soft rank of every pair's difference, from one trajectory stack."""
    stack = trajectory_matrices(flow, samples, params)
    i_idx, j_idx = pair_indices(stack.shape[0])
    return spectral._dense_soft_ranks(stack[i_idx] - stack[j_idx])


class TestSoftRank:
    def test_identity_has_full_soft_rank(self):
        assert soft_rank(np.eye(2)) == 2.0

    def test_rank_one_matrix(self):
        assert soft_rank(np.ones((2, 2))) == 1.0

    def test_diagonal_two_one(self):
        assert soft_rank(np.diag([2.0, 1.0])) == 1.25

    def test_vector_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"2-D matrix, got shape \(3,\)"):
            soft_rank(np.ones(3))

    def test_zero_matrix_undefined(self):
        with pytest.raises(UndefinedSoftRankError):
            soft_rank(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "g, message",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite matrix"),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), "finite matrix"),
            (1e200 * np.eye(2), "overflow"),
            (1e-170 * np.eye(2), "underflows to 0"),
        ],
        ids=["NaN entry", "inf entry", "squares overflow", "squares underflow"],
    )
    def test_non_finite_or_unsquarable_matrix_rejected(self, g, message):
        with pytest.raises(InvalidArgumentError, match=message):
            soft_rank(g)

    def test_result_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            s = np.linalg.svd(g, compute_uv=False)
            assert np.all(np.diff(s) <= 0.0)
            assert soft_rank(g) == float(np.sum(s * s)) / float(s[0] * s[0])

    def test_bounds_on_1000_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            g = rng.standard_normal((m, n))
            rank = matrix_rank_of(g)
            assert 1.0 - 1e-12 <= soft_rank(g) <= rank + 1e-9
            assert rank <= min(m, n)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(
            min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        negate=st.booleans(),
    )
    def test_scale_invariance(self, seed, scale, negate):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 6))
        c = -scale if negate else scale
        base = soft_rank(g)
        assert abs(soft_rank(c * g) - base) <= 1e-12 * base

    def test_equal_singular_values_give_rank(self):
        # permutation matrices have all singular values exactly 1
        assert soft_rank(np.eye(5)) == 5.0
        assert soft_rank(make_shift_flow(7).matrix) == 7.0


class TestPairSoftRank:
    def test_disjoint_support_reaches_m(self):
        flow = make_shift_flow(16)
        eye = np.eye(16)
        assert abs(pair_soft_rank(flow, eye[0], eye[8], DelayParams(4)) - 4.0) <= 1e-12

    def test_adjacent_pair_matches_path_gram(self):
        flow = make_shift_flow(8)
        eye = np.eye(8)
        res = pair_soft_rank(flow, eye[0], eye[1], DelayParams(4))
        assert abs(res - ADJACENT_SHIFT8_M4) <= 1e-10

    def test_coincident_points_rejected(self):
        flow = make_shift_flow(8)
        x = np.eye(8)[0]
        with pytest.raises(DegeneratePairError):
            pair_soft_rank(flow, x, x.copy(), DelayParams(4))

    def test_mismatched_pair_is_a_typed_error(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
            pair_soft_rank(make_shift_flow(4), np.eye(4)[0], np.ones(3), DelayParams(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_state_is_named(self, bad):
        y = np.eye(4)[1]
        y[2] = bad
        with pytest.raises(NonFiniteTrajectoryError, match="sample 1: "):
            pair_soft_rank(make_shift_flow(4), np.eye(4)[0], y, DelayParams(2))

    def test_full_rank_before_any_chord_cycle_closes(self):
        # the chords e_m - e_{m+d} trace the d-jump cycles of Z_n; the
        # difference matrix keeps full rank exactly while no cycle completes,
        # i.e. while m <= n - gcd(n, d)
        flow = make_shift_flow(12)
        eye = np.eye(12)
        for d in (1, 3, 5, 6):
            g = math.gcd(12, d)
            for m in (2, 5, 12 - g):
                stack = trajectory_matrices(flow, eye[[0, d]], DelayParams(m))
                assert matrix_rank_of(stack[0] - stack[1]) == m

    def test_rank_drops_once_per_completed_chord_cycle(self):
        flow = make_shift_flow(12)
        eye = np.eye(12)
        for d, m in [(1, 12), (3, 11), (6, 11)]:
            g = math.gcd(12, d)
            stack = trajectory_matrices(flow, eye[[0, d]], DelayParams(m))
            assert matrix_rank_of(stack[0] - stack[1]) == m - max(0, m - (12 - g))


class TestInfimumSoftRank:
    def test_shift8_basis_scan(self):
        flow = make_shift_flow(8)
        scan = infimum_soft_rank(PairTable(flow, np.eye(8), DelayParams(4)))
        assert abs(scan.infimum - ADJACENT_SHIFT8_M4) <= 1e-10
        assert scan.infimum >= 4.0 / 2.0
        # the minimum sits on a circularly adjacent pair (all tie analytically,
        # so the numeric argmin may land on any of them, deterministically)
        i, j = scan.argmin_pair
        assert j - i == 1 or (i, j) == (0, 7)
        assert scan.num_pairs == 28
        assert scan.soft_ranks.shape == (28,)
        assert scan.infimum == np.min(scan.soft_ranks)
        rerun = infimum_soft_rank(PairTable(flow, np.eye(8), DelayParams(4)))
        assert rerun.argmin_pair == scan.argmin_pair
        assert rerun.infimum == scan.infimum

    def test_argmin_tie_break_is_lexicographic(self):
        # exact float ties resolve to the first pair in (i, j) order
        flow = make_shift_flow(16)
        scan = infimum_soft_rank(PairTable(flow, np.eye(16), DelayParams(1)))
        assert np.all(scan.soft_ranks == 1.0)  # single-row differences are rank one
        assert scan.argmin_pair == (0, 1)

    def test_matches_sequential_pair_scan(self):
        # a pair in the band has its own dense value bit for bit; off the band,
        # a pair of the orbit has the Gram-screened value of (0, j - i), and a
        # pair of the shuffled states its own, within rounding of its dense value
        flow = make_shift_flow(8)
        eye = np.eye(8)
        params = DelayParams(3)
        # either band is the circularly adjacent basis pairs, 7 + 1
        for samples in (eye, eye[[1, 0, *range(2, 8)]]):
            scan = infimum_soft_rank(PairTable(flow, samples, params))
            in_band = assert_kept_soft_ranks(flow, samples, params, scan.soft_ranks)
            assert scan.num_certified == np.count_nonzero(in_band) == 8
            assert np.min(scan.soft_ranks) == scan.infimum

    @pytest.mark.parametrize("n", [6, 13, 24])
    def test_shift_bound_holds_for_all_delays(self, n):
        flow = make_shift_flow(n)
        eye = np.eye(n)
        for m in range(1, n + 1):
            scan = infimum_soft_rank(PairTable(flow, eye, DelayParams(m)))
            assert scan.infimum >= m / 2.0 - 1e-9

    def test_duplicate_samples_are_an_error_not_a_skip(self):
        flow = make_shift_flow(6)
        samples = np.vstack([np.eye(6)[0], np.eye(6)[3], np.eye(6)[0]])
        with pytest.raises(DegeneratePairError, match="samples 0 and 2 coincide"):
            infimum_soft_rank(PairTable(flow, samples, DelayParams(2)))
        # (0, 3) precedes (1, 2) in (i, j) order
        samples = np.eye(6)[[0, 3, 3, 0]]
        with pytest.raises(DegeneratePairError, match="samples 0 and 3 coincide"):
            infimum_soft_rank(PairTable(flow, samples, DelayParams(2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_sample_is_named_not_coincident(self, bad):
        # inf <= 1e-12 * inf: a distance test alone takes an infinite
        # sample for a coincident pair
        samples = np.eye(6)[:4]
        samples[2, 1] = bad
        with pytest.raises(NonFiniteTrajectoryError, match="sample 2: "):
            infimum_soft_rank(PairTable(make_shift_flow(6), samples, DelayParams(2)))

    def test_huge_states_at_a_finite_distance_do_not_coincide(self):
        # ||x||^2 overflows, but ||x~ - y~||^2 = 2e300 is finite and the
        # relative distance 1e-10 is above the coincidence threshold
        x = 1e160 * np.eye(8)[0]
        y = x + 1e150 * np.eye(8)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = infimum_soft_rank(PairTable(make_shift_flow(8), [x, y], DelayParams(2)))
        assert scan.infimum == 2.0

    def test_underflowing_trajectory_distance_is_a_typed_error(self):
        # soft ranks do not depend on the scale of the samples, but subnormal
        # squared distances (at 1e-160; 1e-150 keeps them normal) carry too
        # few bits for the rounding band
        rng = np.random.default_rng(0)
        flow = make_linear_flow(np.linalg.qr(rng.standard_normal((4, 4)))[0])
        samples = rng.standard_normal((6, 4))
        params = DelayParams(3)
        base = infimum_soft_rank(PairTable(flow, samples, params))
        small = infimum_soft_rank(PairTable(flow, 1e-150 * samples, params))
        np.testing.assert_allclose(small.soft_ranks, base.soft_ranks, rtol=1e-12, atol=0)
        message = "samples 0 and 1: their squared trajectory distance underflows"
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            infimum_soft_rank(PairTable(flow, 1e-160 * samples, params))
        # a distinct pair at 1e-10 relative, named after the coincidence test
        x = 1e-150 * np.eye(4)[0]
        tiny = np.vstack([np.eye(4)[3], x, x + 1e-160 * np.eye(4)[1]])
        with pytest.raises(NonFiniteTrajectoryError, match="samples 1 and 2: .* underflows"):
            infimum_soft_rank(PairTable(flow, tiny, params))
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            pair_soft_rank(flow, tiny[1], tiny[2], params)

    @pytest.mark.parametrize("kind", ["orthogonal", "shift"])
    @pytest.mark.parametrize("scale", [1e-155, 1e-165, 1e-170, 1e-200])
    def test_states_below_1e_162_are_not_coincident(self, kind, scale):
        # below about 1e-162 the squared state distances underflow to 0, which
        # the coincidence test alone takes for coincident states
        rng = np.random.default_rng(0)
        orthogonal = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        flow = make_linear_flow(orthogonal) if kind == "orthogonal" else make_shift_flow(4)
        samples = scale * rng.standard_normal((6, 4))
        params = DelayParams(3)
        message = "samples 0 and 1: their squared trajectory distance underflows"
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            infimum_soft_rank(PairTable(flow, samples, params))
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            pair_soft_rank(flow, samples[0], samples[1], params)
        samples[3] = samples[1]
        with pytest.raises(DegeneratePairError, match="samples 1 and 3 coincide"):
            infimum_soft_rank(PairTable(flow, samples, params))

    def test_needs_two_samples(self):
        flow = make_shift_flow(6)
        with pytest.raises(InvalidArgumentError):
            infimum_soft_rank(PairTable(flow, np.eye(6)[:1], DelayParams(2)))

    def test_overflowing_stack_is_a_typed_error(self):
        flow = make_linear_flow(0.25 * np.eye(4))
        with pytest.raises(NonFiniteTrajectoryError, match="sample 0"):
            infimum_soft_rank(PairTable(flow, np.eye(4), DelayParams(600)))


@st.composite
def permutation_orbit_cases(draw):
    """Exact orbits of a shift or a relabelled shift, forward or backward, n <= period."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 16))
    flow = relabelled_shift_flow(seed, n) if draw(st.booleans()) else make_shift_flow(n)
    if draw(st.booleans()):
        origin = np.random.default_rng(seed).standard_normal(n)
    else:
        origin = np.eye(n)[draw(st.integers(0, n - 1))]
    num = draw(st.integers(2, n))  # both orbits have period n
    samples = exact_orbit(flow, origin, num, backward=draw(st.booleans()))
    return flow, samples, DelayParams(draw(st.integers(1, n + 3)))


@st.composite
def scan_cases(draw):
    """Flow, samples, delays (M up to N + 3) and whether the scan takes the orbit screen.

    Random linear flows, tie-heavy shifts on basis states in any order, or
    exact permutation-flow orbits.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    branch = draw(st.sampled_from(["linear", "basis", "orbit"]))
    if branch == "orbit":
        flow, samples, params = draw(permutation_orbit_cases())
    elif branch == "linear":
        n = draw(st.integers(2, 8))
        flow = well_conditioned_flow(seed, n)
        num = draw(st.integers(2, 12))
        samples = np.random.default_rng(seed).standard_normal((num, n))
        params = DelayParams(draw(st.integers(1, n + 3)))
    else:
        n = draw(st.integers(2, 16))
        flow = make_shift_flow(n)
        rows = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        samples = np.eye(n)[rows]
        params = DelayParams(draw(st.integers(1, n + 3)))
    gated = is_permutation_orbit(flow, samples)
    assert gated or branch != "orbit"
    return flow, samples, params, gated


def counting_screen(rows):
    """The Gram screen, appending to ``rows`` the number of differences each call receives."""
    screen = spectral._screened_soft_ranks

    def counted(diffs):
        rows.append(diffs.shape[0])
        return screen(diffs)

    return counted


def per_pair_bytes(report) -> list[bytes]:
    """The bytes of a report's kept per-pair order statistics, to compare bit for bit."""
    return [getattr(report, name).tobytes() for name in ("ratio_min", "ratio_mid", "ratio_max")]


def _per_pair_csv(table, scan, report) -> bytes:
    """The ``per_pair.csv`` bytes of ``table``'s scan and its report that kept per-pair values."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "per_pair.csv")
        runner.write_csv(path, runner._per_pair_columns(table, scan, report))
        with open(path, "rb") as handle:
            return handle.read()


class TestScreenedScan:
    """The Gram screen plus dense certification against the exhaustive dense scan."""

    @staticmethod
    def exhaustive(flow, samples, params):
        """Every pair's dense value, their minimum, and its lexicographically first pair."""
        values = exhaustive_soft_ranks(flow, samples, params)
        first = int(np.argmin(values))
        i_idx, j_idx = pair_indices(samples.shape[0])
        return values, float(values[first]), (int(i_idx[first]), int(j_idx[first]))

    @settings(max_examples=80, deadline=None)
    @given(
        case=scan_cases(),
        threads=st.sampled_from([0, 1, 2, 4]),
        chunk=st.sampled_from([1, 3, 7, 512]),
        num_draws=st.integers(1, 6),
    )
    def test_matches_exhaustive_dense_scan(self, case, threads, chunk, num_draws):
        flow, samples, params, gated = case
        reference, infimum, argmin = self.exhaustive(flow, samples, params)
        default_table = PairTable(flow, samples, params)
        default_scan = infimum_soft_rank(default_table, threads=threads)
        draws = draw_stream("rademacher", flow.ambient_dim, num_draws, 3)
        default_report = monte_carlo(default_table, draws, keep_per_pair=True)
        # ``chunk`` pairs per scan chunk; the one-byte budget puts every pass,
        # the report's per-pair reductions included, in one-pair chunks
        budget = 1 if chunk == 1 else chunk * 8 * params.num_delays * flow.ambient_dim
        # the screen takes the representatives (0, d) of an orbit, else every pair
        screened = samples.shape[0] - 1 if gated else reference.size
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_CHUNK_BYTES", budget)
            mp.setattr(spectral, "_screened_soft_ranks", counting_screen(rows))
            table = PairTable(flow, samples, params)
            scan = infimum_soft_rank(table, threads=threads)
            assert sum(rows) == screened
            report = monte_carlo(table, draws, keep_per_pair=True)
            assert sum(rows) == screened  # the draws rerun no scan
        assert scan.infimum == infimum
        assert scan.argmin_pair == argmin
        assert scan.num_pairs == reference.size
        assert 1 <= scan.num_certified <= scan.num_pairs
        # every pair's value, whatever the chunks
        assert scan.soft_ranks.shape == default_scan.soft_ranks.shape == reference.shape
        assert scan.soft_ranks.tobytes() == default_scan.soft_ranks.tobytes()
        assert scan.num_certified == default_scan.num_certified
        in_band = assert_kept_soft_ranks(flow, samples, params, scan.soft_ranks)
        assert scan.num_certified == np.count_nonzero(in_band)
        assert scan.soft_ranks[in_band].tobytes() == reference[in_band].tobytes()
        assert np.min(scan.soft_ranks) == infimum
        # the screen, then the band
        scanned = screened + scan.num_certified
        assert math.ceil(scanned / chunk) <= scan.num_chunks <= scanned
        assert per_pair_bytes(report) == per_pair_bytes(default_report)
        assert _per_pair_csv(table, scan, report) == _per_pair_csv(
            default_table, default_scan, default_report
        )

    @settings(max_examples=60, deadline=None)
    @given(case=scan_cases(), perm_seed=st.integers(0, 2**32 - 1))
    def test_permuting_the_samples_permutes_the_soft_ranks(self, case, perm_seed):
        flow, samples, params, _ = case
        num = samples.shape[0]
        perm = np.random.default_rng(perm_seed).permutation(num)
        table = PairTable(flow, samples, params)
        permuted_table = PairTable(flow, samples[perm], params)
        scan = infimum_soft_rank(table)
        permuted = infimum_soft_rank(permuted_table)
        # permuted pair (a, b) is pair {perm[a], perm[b]} of the original samples
        index = np.zeros((num, num), dtype=int)
        index[table.i_idx, table.j_idx] = np.arange(scan.num_pairs)
        a, b = perm[permuted_table.i_idx], perm[permuted_table.j_idx]
        expected = scan.soft_ranks[index[np.minimum(a, b), np.maximum(a, b)]]
        np.testing.assert_allclose(permuted.soft_ranks, expected, rtol=1e-12, atol=0)
        assert abs(permuted.infimum - scan.infimum) <= 1e-12 * scan.infimum
        # the soft rank lies between 1 and the rank; the upper end allows rounding
        rank_bound = min(params.num_delays, flow.ambient_dim)
        assert np.all(permuted.soft_ranks >= 1.0)
        assert np.all(permuted.soft_ranks <= rank_bound * (1.0 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(case=permutation_orbit_cases())
    def test_only_an_orbit_order_screens_its_representatives_alone(self, case):
        flow, samples, params = case
        num = samples.shape[0]

        def screened_rows(samples):
            rows = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "_screened_soft_ranks", counting_screen(rows))
                infimum_soft_rank(PairTable(flow, samples, params))
            return sum(rows)

        assert screened_rows(samples) == num - 1
        assert screened_rows(samples[::-1]) == num - 1  # the other direction
        if num >= 4:  # three states of a 3-cycle are an orbit in any order
            assert screened_rows(samples[[1, 0, *range(2, num)]]) == num * (num - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(case=permutation_orbit_cases(), other=scan_cases())
    def test_orbit_per_pair_values_match_the_exhaustive_scan(self, case, other):
        flow, samples, params = case
        # both directions of the orbit, the same states out of orbit order,
        # and one more input unless it is an orbit
        inputs = [(flow, orbit, params) for orbit in (samples, samples[::-1])]
        inputs.append((flow, samples[[1, 0, *range(2, samples.shape[0])]], params))
        if not other[3]:
            inputs.append(other[:3])
        for flow, samples, params in inputs:
            values, infimum, argmin = self.exhaustive(flow, samples, params)
            scan, two_threads = (
                infimum_soft_rank(PairTable(flow, samples, params), threads=threads)
                for threads in (1, 2)
            )
            assert (scan.infimum, scan.argmin_pair) == (infimum, argmin)
            in_band = assert_kept_soft_ranks(flow, samples, params, scan.soft_ranks)
            assert scan.num_certified == np.count_nonzero(in_band)
            assert scan.soft_ranks[in_band].tobytes() == values[in_band].tobytes()
            assert np.min(scan.soft_ranks) == infimum
            # each within the rounding of two values of one exact value
            rtol = spectral._band_rtol(params.num_delays, flow.ambient_dim)
            ratio = scan.soft_ranks / values
            assert np.all(ratio <= (1.0 + rtol) / (1.0 - rtol))
            assert np.all(1.0 / ratio <= (1.0 + rtol) / (1.0 - rtol))
            assert two_threads.soft_ranks.tobytes() == scan.soft_ranks.tobytes()
            assert (two_threads.infimum, two_threads.argmin_pair, two_threads.num_certified) == (
                scan.infimum, scan.argmin_pair, scan.num_certified
            )

    @settings(max_examples=60, deadline=None)
    @given(case=scan_cases(), k=st.integers(-20, 20), alpha_seed=st.integers(0, 2**32 - 1))
    def test_scaling_the_samples_leaves_soft_ranks_and_ratios(self, case, k, alpha_seed):
        flow, samples, params, gated = case
        alpha = np.random.default_rng(alpha_seed).standard_normal(flow.ambient_dim)
        base_table = PairTable(flow, samples, params)
        base = infimum_soft_rank(base_table)
        ratios = base_table.ratios(alpha)
        # a scaled orbit is still an orbit, so the screen takes its representatives
        screened = samples.shape[0] - 1 if gated else base.num_pairs
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_screened_soft_ranks", counting_screen(rows))
            # 2^k scales every entry exactly, so nothing may move
            scaled_table = PairTable(flow, 2.0**k * samples, params)
            scaled = infimum_soft_rank(scaled_table)
            assert sum(rows) == screened
            assert np.array_equal(scaled.soft_ranks, base.soft_ranks)
            assert np.array_equal(scaled_table.ratios(alpha), ratios)
            assert (scaled.infimum, scaled.argmin_pair, scaled.num_certified) == (
                base.infimum, base.argmin_pair, base.num_certified
            )
            # 3 x rounds the samples: a rounding change, held to 1e-12 relative;
            # a ratio is at most ||alpha||^2, which scales its rounding
            tripled_table = PairTable(flow, 3.0 * samples, params)
            tripled = infimum_soft_rank(tripled_table)
            assert sum(rows) == 2 * screened
        np.testing.assert_allclose(tripled.soft_ranks, base.soft_ranks, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            tripled_table.ratios(alpha), ratios, rtol=0, atol=1e-12 * (alpha @ alpha)
        )
        assert abs(tripled.infimum - base.infimum) <= 1e-12 * base.infimum

    def test_analytic_ties_resolve_like_the_dense_scan(self):
        # all circularly adjacent pairs tie analytically; the Gram screen's
        # rounding puts its own minimum on a different one of them
        flow = make_shift_flow(32)
        params = DelayParams(5)
        _, infimum, argmin = self.exhaustive(flow, np.eye(32), params)
        scan = infimum_soft_rank(PairTable(flow, np.eye(32), params))
        assert (scan.infimum, scan.argmin_pair) == (infimum, argmin)

    @pytest.mark.parametrize("threads", [-1, spectral.MAX_THREADS + 1, 10**9])
    def test_threads_out_of_range_rejected_before_any_pool(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pass was cut or a thread pool started")

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(spectral, "_chunks", no_pool)
        with pytest.raises(InvalidArgumentError, match="threads: "):
            infimum_soft_rank(
                PairTable(make_shift_flow(4), np.eye(4), DelayParams(2)), threads=threads
            )

    @pytest.mark.parametrize("threads", [0, 1, 2, 3])
    @pytest.mark.parametrize("orbit", [False, True])
    def test_one_scan_starts_one_pool_of_the_resolved_workers(self, monkeypatch, orbit, threads):
        pools = []

        class RecordingPool(spectral.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", RecordingPool)
        order = np.arange(8) if orbit else np.random.default_rng(2).permutation(8)
        scan = infimum_soft_rank(
            PairTable(make_shift_flow(8), np.eye(8)[order], DelayParams(3)), threads=threads
        )
        # both passes, the screen and certification, ran on it
        assert scan.num_chunks >= 2
        assert pools == [spectral.resolve_threads(threads)]

    def test_the_thread_bound_itself_is_accepted(self):
        # one pair, so one chunk per pass; the pool starts a thread only for
        # a chunk that finds none idle
        scan = infimum_soft_rank(
            PairTable(make_shift_flow(2), np.eye(2), DelayParams(1)),
            threads=spectral.MAX_THREADS,
        )
        assert (scan.num_pairs, scan.num_chunks) == (1, 2)

    @pytest.mark.parametrize("num", [0, 1, 4, 5, 255, 1000])
    @pytest.mark.parametrize("threads", [0, 1, 2, 3])
    @pytest.mark.parametrize("chunk", [0, 1, 7, 512])
    @pytest.mark.parametrize("item_floats", [1, 96])
    def test_chunks_cover_the_pairs_in_at_least_one_part_per_worker(
        self, monkeypatch, num, threads, chunk, item_floats
    ):
        # a budget just short of chunk + 1 items holds ``chunk``; 0 means
        # less than one item, which still gets a chunk of its own
        monkeypatch.setattr(spectral, "_CHUNK_BYTES", (chunk + 1) * 8 * item_floats - 1)
        chunk = max(chunk, 1)
        workers = spectral.resolve_threads(threads)
        parts = spectral._chunks(num, workers, item_floats)
        assert [k for part in parts for k in range(num)[part]] == list(range(num))
        sizes = [part.stop - part.start for part in parts]
        assert min(workers, num) <= len(parts) <= num
        # one rule: every slice but the last holds the fewer of ``chunk`` and
        # a quarter of one worker's share, and the last no more
        size = max(1, min(chunk, -(-num // (4 * workers))))
        assert set(sizes[:-1]) <= {size} and all(1 <= last <= size for last in sizes[-1:])
        if num >= 4 * workers * chunk:  # a pass the budget caps keeps whole chunks
            assert size == chunk
        else:  # a smaller one gets about four slices per worker
            assert len(parts) >= min(num, 2 * workers)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_chunks_stay_within_the_byte_budget(self, monkeypatch, shuffled, threads):
        # the largest step of the lemma check on the 128-state shift orbit,
        # and the same states out of orbit order, whose screen takes every
        # pair
        m, n = 32, 128
        passes = []
        chunks = spectral._chunks

        def recording_chunks(num, workers, item_floats):
            parts = chunks(num, workers, item_floats)
            passes.append([part.stop - part.start for part in parts])
            return parts

        monkeypatch.setattr(spectral, "_chunks", recording_chunks)
        order = np.random.default_rng(5).permutation(n) if shuffled else np.arange(n)
        table = PairTable(make_shift_flow(n), np.eye(n)[order], DelayParams(m))
        scan = infimum_soft_rank(table, threads=threads)
        assert sum(map(len, passes)) == scan.num_chunks
        assert [sum(chunks) for chunks in passes] == [
            scan.num_pairs if shuffled else n - 1, scan.num_certified
        ]
        for chunks in passes:
            # a quarter of one worker's share of the pass, and the byte budget
            assert max(chunks) <= max(1, -(-sum(chunks) // (4 * threads)))
            assert all(pairs * m * n * 8 <= spectral._CHUNK_BYTES or pairs == 1 for pairs in chunks)
        # either band is the circularly adjacent basis pairs, 127 + 1
        assert scan.num_certified == n
        if shuffled:  # a pass the budget caps fills its chunks
            assert max(passes[0]) == spectral._CHUNK_BYTES // (m * n * 8)

    def test_zero_threads_resolve_to_the_cpu_count(self):
        assert spectral.resolve_threads(0) == usable_cpus()
        assert spectral.resolve_threads(3) == 3

    @pytest.mark.parametrize("cpu_count, expected", [(5, 5), (None, 1)])
    def test_zero_threads_without_affinity_resolve_to_cpu_count(
        self, monkeypatch, cpu_count, expected
    ):
        # a platform without sched_getaffinity reports os.cpu_count(), which may be unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert spectral.resolve_threads(0) == expected

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_zero_threads_follow_the_cpu_affinity(self):
        # narrowed to one CPU, the process may run one worker at a time
        # however many CPUs the machine has
        usable = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(usable)})
            assert spectral.resolve_threads(0) == 1
        finally:
            os.sched_setaffinity(0, usable)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_small_passes_get_a_chunk_per_worker(self, monkeypatch, threads):
        # 7 representatives and their certified pairs each fit in one chunk's bytes
        passes = []
        chunks = spectral._chunks

        def recording_chunks(num, workers, item_floats):
            parts = chunks(num, workers, item_floats)
            passes.append((len(parts), workers))
            return parts

        monkeypatch.setattr(spectral, "_chunks", recording_chunks)
        infimum_soft_rank(
            PairTable(make_shift_flow(8), np.eye(8), DelayParams(3)), threads=threads
        )
        assert [workers for _, workers in passes] == [threads, threads]
        assert all(count >= threads for count, _ in passes)


@st.composite
def integer_cases(draw):
    """A permutation flow, distinct integer-valued samples, M up to N + 3, an integer alpha.

    Samples are signed basis states (-e_k carries -0.0) or small integers
    with -0.0 among them; alpha is Rademacher, in {-1, 0, 1}, or small user
    integers with -0.0 among them. Every sum of either path is an exact
    integer, so the gathered path gives the stack path's bits.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_amb = draw(st.integers(2, 12))
    flow = permutation_flow(draw(st.sampled_from(PERMUTATION_KINDS)), seed, n_amb)
    rng = np.random.default_rng(seed)
    num = draw(st.integers(2, 10))
    if draw(st.booleans()):
        rows = rng.choice(2 * n_amb, size=min(num, 2 * n_amb), replace=False)
        samples = np.where(rows < n_amb, 1.0, -1.0)[:, None] * np.eye(n_amb)[rows % n_amb]
    else:
        samples = np.unique(rng.integers(-5, 6, size=(num, n_amb)).astype(float), axis=0)
        samples[(samples == 0.0) & (rng.random(samples.shape) < 0.5)] = -0.0
        assume(samples.shape[0] >= 2)
    ensemble = draw(st.sampled_from(["rademacher", "ternary", "user"]))
    if ensemble == "rademacher":
        alpha = draw_coeffs("rademacher", n_amb, seed).alpha
    else:
        high = 1 if ensemble == "ternary" else 5
        alpha = rng.integers(-high, high + 1, size=n_amb).astype(float)
        alpha[(alpha == 0.0) & (rng.random(n_amb) < 0.5)] = -0.0
    return flow, samples, DelayParams(draw(st.integers(1, n_amb + 3))), alpha


@st.composite
def float_cases(draw):
    """A permutation flow, distinct Gaussian samples at one scale, M up to N + 3, a Gaussian alpha.

    The scale is 10^k for k in -100..100; about a fifth of the sample
    entries are -0.0. The gathered path rounds differently from the stack
    path here.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_amb = draw(st.integers(2, 12))
    flow = permutation_flow(draw(st.sampled_from(PERMUTATION_KINDS)), seed, n_amb)
    rng = np.random.default_rng(seed)
    samples = 10.0 ** draw(st.integers(-100, 100)) * rng.standard_normal(
        (draw(st.integers(2, 10)), n_amb)
    )
    samples[rng.random(samples.shape) < 0.2] = -0.0
    assume(np.unique(samples, axis=0).shape[0] == samples.shape[0])
    alpha = draw_coeffs("gaussian", n_amb, seed).alpha
    return flow, samples, DelayParams(draw(st.integers(1, n_amb + 3))), alpha


def _path_taken(*args):
    raise AssertionError("a path that this input does not take ran")


def _basis_with_entry(entry: float) -> np.ndarray:
    samples = np.eye(6)[:4].copy()
    samples[1, 2] = entry
    return samples


class TestPermutationTables:
    """Gathered denominators and delay vectors of permutation flows against the stack path."""

    @staticmethod
    def check(flow, samples, params, alpha, bitwise, gathered=True):
        """traj_dist_sq and ratios against the stack's, with the path not taken made to raise.

        The reference stack is the literal matvecs of ``trajectory_matrices``,
        whatever the flow. Bit for bit when ``bitwise``; else traj_dist_sq
        within 1e-12 relative and each ratio within 1e-12 max(1, |ratio|),
        since a ratio near zero is formed with cancellation.
        """
        stack = trajectory_matrices(flow, samples, params)
        traj_dist_sq = pdist(stack.reshape(stack.shape[0], -1), "sqeuclidean")
        ratios = pdist(stack @ alpha, "sqeuclidean") / traj_dist_sq
        # each path calls its function first: the stack path trajectory_matrices,
        # the gathered path permutation_powers
        untaken = "trajectory_matrices" if gathered else "permutation_powers"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, untaken, _path_taken)
            table = PairTable(flow, samples, params)
            table_ratios = table.ratios(alpha)
        assert table.state_dist_sq.tobytes() == pdist(samples, "sqeuclidean").tobytes()
        if bitwise:
            assert table.traj_dist_sq.tobytes() == traj_dist_sq.tobytes()
            assert table_ratios.tobytes() == ratios.tobytes()
        else:
            assert np.all(np.abs(table.traj_dist_sq - traj_dist_sq) <= 1e-12 * traj_dist_sq)
            bound = 1e-12 * np.maximum(1.0, np.abs(ratios))
            assert np.all(np.abs(table_ratios - ratios) <= bound)

    @settings(max_examples=150, deadline=None)
    @given(case=integer_cases())
    def test_integer_inputs_are_bit_equal_to_the_stack(self, case):
        self.check(*case, bitwise=True)

    @settings(max_examples=150, deadline=None)
    @given(case=float_cases())
    def test_float_inputs_agree_with_the_stack(self, case):
        self.check(*case, bitwise=False)

    @pytest.mark.parametrize(
        "samples, m",
        [
            (_basis_with_entry(0.5), 4),
            (_basis_with_entry(2.0**40), 4),
            (_basis_with_entry(-(2.0**40)), 4),
            # N = 2, M = 1: a squared distance of 52 significant bits, still exact
            (np.array([[2.0**25 + 1, 3.0], [-1.0, -(2.0**25 + 1)]]), 1),
        ],
        ids=["half", "2^40", "-2^40", "2^25+1"],
    )
    def test_integer_samples_are_bit_equal_else_within_1e_12(self, samples, m):
        n_amb = samples.shape[1]
        alpha = draw_coeffs("rademacher", n_amb, 3).alpha
        # every sum of these integers is exact, however large
        integers = bool(np.all(samples == np.rint(samples)))
        self.check(make_shift_flow(n_amb), samples, DelayParams(m), alpha, bitwise=integers)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 2.0**40])
    def test_fractional_or_large_alpha_is_bit_equal_on_basis_states(self, scale):
        flow = relabelled_shift_flow(5, 7)
        samples = exact_orbit(flow, np.eye(7)[2], 7, backward=False)
        alpha = scale * draw_coeffs("gaussian", 7, 11).alpha
        if scale == 2.0**40:
            alpha = np.rint(alpha)
        # on basis states each delay-vector entry is one coefficient, exact
        self.check(flow, samples, DelayParams(5), alpha, bitwise=True)

    def test_non_permutation_flows_are_bit_equal_to_the_stack(self):
        flow = well_conditioned_flow(2, 5)
        alpha = draw_coeffs("rademacher", 5, 2).alpha
        self.check(flow, np.eye(5), DelayParams(3), alpha, bitwise=True, gathered=False)

    def test_state_distances_are_the_square_of_pdist(self):
        # the coincidence check takes sqrt(state_dist_sq) for pdist(samples),
        # across scales where the squares overflow to inf or underflow to 0
        rng = np.random.default_rng(0)
        for scale in [1e-170, 1e-160, 1e-100, 1.0, 1e100, 1e155, 1e170]:
            for _ in range(20):
                samples = scale * rng.standard_normal((5, int(rng.integers(1, 30))))
                dists = pdist(samples)
                assert np.sqrt(pdist(samples, "sqeuclidean")).tobytes() == dists.tobytes()


class TestStackDifferences:
    """A stack-built table's pair differences: one gather and one in-place subtraction."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_amb=st.integers(2, 8),
        num=st.integers(4, 10),
        m=st.integers(1, 6),
        data=st.data(),
    )
    def test_differences_are_the_per_pair_subtractions(self, seed, n_amb, num, m, data):
        flow = well_conditioned_flow(seed, n_amb)
        samples = np.random.default_rng(seed).standard_normal((num, n_amb))
        table = PairTable(flow, samples, DelayParams(m))
        stack = trajectory_matrices(flow, samples, DelayParams(m))
        pairs = table.num_pairs
        start = data.draw(st.integers(0, pairs - 1), label="start")
        stop = data.draw(st.integers(start + 1, pairs), label="stop")
        picked = np.array(
            data.draw(st.lists(st.integers(0, pairs - 1), min_size=1, max_size=12)),
            dtype=np.intp,
        )
        # the partners of i = 0 end at num - 2, so this slice crosses into i = 1
        crossing = slice(num - 3, num + 1)
        for part, indices in [
            (slice(start, stop), np.arange(start, stop)),
            (crossing, np.arange(num - 3, num + 1)),
            (picked, picked),
        ]:
            diffs = table.differences(part)
            expected = np.array([stack[table.i_idx[k]] - stack[table.j_idx[k]] for k in indices])
            assert diffs.flags.c_contiguous
            assert diffs.tobytes() == expected.tobytes()


class TestDelayVectors:
    """The delay-vector rows and the squared distances the report forms again, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(case=scan_cases(), pick=st.data())
    def test_rows_are_the_full_products_rows(self, case, pick):
        # a stack row is its own G_x @ alpha; a permutation flow forms the
        # product over every sample, then indexes it
        flow, samples, params, _ = case
        table = PairTable(flow, samples, params)
        ensemble = pick.draw(st.sampled_from(["gaussian", "rademacher"]))
        alpha = draw_coeffs(ensemble, flow.ambient_dim, pick.draw(st.integers(0, 99))).alpha
        rows = np.array(
            pick.draw(st.lists(st.integers(0, samples.shape[0] - 1), min_size=1, max_size=20)),
            dtype=np.intp,
        )
        if flow.permutation is None:
            full = table.stack @ alpha
        else:
            full = table.samples @ alpha[table._inverse_powers].T
        assert table.delay_vectors(alpha, slice(None)).tobytes() == full.tobytes()
        assert table.delay_vectors(alpha, rows).tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("m", range(1, 41))
    def test_column_order_sums_are_pdists(self, m):
        # entries of mixed scales, 1e-150 to 1e150, where the order of the
        # sum shows, with +0.0 and -0.0 among them
        rng = np.random.default_rng(m)
        for _ in range(20):
            rows = rng.standard_normal((9, m)) * 10.0 ** rng.choice(
                [-150, -8, 0, 8, 150], size=(9, m)
            )
            rows[rng.random(rows.shape) < 0.15] = 0.0
            rows[rng.random(rows.shape) < 0.15] = -0.0
            i_idx, j_idx = pair_indices(9)
            sums = embedding_analysis._squared_norms(rows[i_idx] - rows[j_idx])
            assert sums.tobytes() == pdist(rows, "sqeuclidean").tobytes()


class TestStackFreePermutationTables:
    """Permutation-flow tables gather each pair difference from the samples and build no stack."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(integer_cases(), float_cases()), data=st.data())
    def test_differences_are_bit_equal_to_the_stack(self, case, data):
        flow, samples, params, _alpha = case
        stack = trajectory_matrices(flow, samples, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "trajectory_matrices", _path_taken)
            table = PairTable(flow, samples, params)
            num = table.num_pairs
            start = data.draw(st.integers(0, num - 1), label="start")
            stop = data.draw(st.integers(start + 1, num), label="stop")
            picked = np.array(
                data.draw(st.lists(st.integers(0, num - 1), min_size=1, max_size=12)),
                dtype=np.intp,
            )
            ranges = [
                (table.differences(slice(start, stop)), np.arange(start, stop)),
                (table.differences(picked), picked),
            ]
        assert table.shape == stack.shape
        assert table.samples.tobytes() == stack[:, 0].tobytes()
        for diffs, pairs in ranges:
            expected = stack[table.i_idx[pairs]] - stack[table.j_idx[pairs]]
            assert diffs.flags.c_contiguous
            assert diffs.tobytes() == expected.tobytes()
            dense = spectral._dense_soft_ranks(diffs)
            assert dense.tobytes() == spectral._dense_soft_ranks(expected).tobytes()
        # gathered when read, with the stack path's bits
        assert table.stack.tobytes() == stack.tobytes()

    def test_stack_reads_leave_the_table_unchanged(self):
        flow, params = make_shift_flow(8), DelayParams(3)
        samples = np.random.default_rng(5).standard_normal((6, 8))
        expected = trajectory_matrices(flow, samples, params)
        table = PairTable(flow, samples, params)
        first, second = table.stack, table.stack
        assert first.tobytes() == second.tobytes() == expected.tobytes()
        assert table._stack is None  # gathered afresh, never stored
        linear = PairTable(well_conditioned_flow(5, 8), samples, params)
        assert linear.stack is linear._stack  # the stack built at construction

    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(integer_cases(), float_cases()), pick=st.data())
    def test_two_sample_tables_are_bit_equal_to_the_stack(self, case, pick):
        flow, samples, params, _alpha = case
        i, j = pick.draw(
            st.lists(st.integers(0, samples.shape[0] - 1), min_size=2, max_size=2, unique=True)
        )
        stack = trajectory_matrices(flow, samples[[i, j]], params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "trajectory_matrices", _path_taken)
            result = pair_soft_rank(flow, samples[i], samples[j], params)
            diff = spectral._pair_table(flow, samples[i], samples[j], params).differences(
                slice(0, 1)
            )[0]
        assert diff.tobytes() == (stack[0] - stack[1]).tobytes()
        assert result == soft_rank(stack[0] - stack[1])

    @pytest.mark.parametrize("ensemble", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("keep_per_pair", [False, True])
    @pytest.mark.parametrize("order", ["orbit", "shuffled"])
    def test_scans_and_draws_build_no_stack(self, monkeypatch, ensemble, keep_per_pair, order):
        flow = make_shift_flow(24)
        samples = np.eye(24)
        if order == "shuffled":  # not an orbit order, so every pair is screened
            samples = samples[np.random.default_rng(3).permutation(24)]
        draws = draw_stream(ensemble, 24, 20, 4)
        expected_table = PairTable(flow, samples, DelayParams(6))
        expected_scan = infimum_soft_rank(expected_table)
        expected = monte_carlo(expected_table, draws, keep_per_pair=keep_per_pair)
        monkeypatch.setattr(spectral, "trajectory_matrices", _path_taken)
        table = PairTable(flow, samples, DelayParams(6))
        scan = infimum_soft_rank(table, threads=2)
        report = monte_carlo(table, draws, keep_per_pair=keep_per_pair)
        assert scan.infimum == expected_scan.infimum
        assert scan.num_certified == expected_scan.num_certified
        assert scan.soft_ranks.tobytes() == expected_scan.soft_ranks.tobytes()
        assert report.epsilons.tobytes() == expected.epsilons.tobytes()
        assert table._stack is None  # not gathered either
        if keep_per_pair:
            assert per_pair_bytes(report) == per_pair_bytes(expected)

    def test_gaussian_alpha_gathers_no_stack(self, monkeypatch):
        flow, params = make_shift_flow(8), DelayParams(3)
        table = PairTable(flow, np.eye(8), params)
        infimum_soft_rank(table)
        monkeypatch.setattr(spectral, "_gathered_rows", _path_taken)
        monkeypatch.setattr(spectral, "trajectory_matrices", _path_taken)
        alpha = draw_coeffs("gaussian", 8, 0).alpha
        first, second = table.ratios(alpha), table.ratios(alpha)
        assert table._stack is None
        # on basis states each delay-vector entry is one coefficient, exact
        stack = trajectory_matrices(flow, np.eye(8), params)
        expected = pdist(stack @ alpha, "sqeuclidean") / pdist(stack.reshape(8, -1), "sqeuclidean")
        assert first.tobytes() == second.tobytes() == expected.tobytes()


def loop_shift_oracle(n: int, m: int, d: int) -> float:
    """The soft rank of one separation, one Gram at a time.

    The per-separation form ``shift_system_oracle`` batched, kept as its reference.
    """
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
    return 2.0 * m / float(eigs[0])


class TestShiftSystemOracle:
    def test_four_point_dft_eigenvalues(self):
        # eigenvalues 4 sin^2(pi j / 4) = 0, 2, 4, 2: soft rank 2m / 4
        assert shift_system_oracle(4, 4, 1) == 2.0

    def test_disjoint_support_case(self):
        assert abs(shift_system_oracle(16, 4, 8) - 4.0) <= 1e-12

    def test_half_window_attains_the_bound_exactly(self):
        assert shift_system_oracle(16, 16, 8) == 8.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgumentError):
            shift_system_oracle(8, 4, 0)
        with pytest.raises(InvalidArgumentError):
            shift_system_oracle(8, 4, 8)
        with pytest.raises(InvalidArgumentError):
            shift_system_oracle(8, 9, 1)
        with pytest.raises(InvalidArgumentError):
            shift_system_oracle(8, 0, 1)
        with pytest.raises(InvalidArgumentError, match="ambient dimension must be >= 2"):
            shift_system_oracle(1, 1, 1)

    def test_agrees_with_dense_computation_spot_checks(self):
        for n, m, d in [(8, 4, 1), (12, 7, 3), (20, 20, 5), (9, 5, 4), (15, 8, 7)]:
            flow = make_shift_flow(n)
            eye = np.eye(n)
            dense = pair_soft_rank(flow, eye[0], eye[d], DelayParams(m))
            assert abs(shift_system_oracle(n, m, d) - dense) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 65))
    def test_batched_separations_match_the_loop_bit_for_bit(self, n):
        # every m in 1..n covers the circulant branch (m == n) and the Gram one
        seps = np.arange(1, n)
        for m in range(1, n + 1):
            batch = shift_system_oracle(n, m, seps)
            assert batch.shape == (n - 1,)
            for k, d in enumerate(seps.tolist()):
                assert batch[k] == loop_shift_oracle(n, m, d)

    @pytest.mark.parametrize("n, m, d", [(2, 1, 1), (9, 5, 4), (16, 16, 8), (20, 7, 13)])
    def test_a_scalar_separation_returns_scalars(self, n, m, d):
        res = shift_system_oracle(n, m, np.int64(d))
        assert isinstance(res, float)
        assert res == loop_shift_oracle(n, m, d)

    def test_batch_larger_than_a_chunk_matches_the_loop(self, monkeypatch):
        # a Gram stack past _CHUNK_BYTES is solved in slices of separations
        monkeypatch.setattr(spectral, "_CHUNK_BYTES", 3 * 8 * 5 * 5)
        batch = shift_system_oracle(12, 5, np.arange(1, 12))
        for k, d in enumerate(range(1, 12)):
            assert batch[k] == loop_shift_oracle(12, 5, d)

    def test_a_value_below_the_bound_names_its_separation(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def inflate(d):
            def inflated(grams):
                # lift the top eigenvalue of the Gram of separation d far past 4,
                # whichever chunk of the batch it is in: for d < m < n it is the
                # Gram with -1 at (0, d), which n - d shares
                eigs = eigvalsh(grams)
                eigs[grams[:, 0, d] == -1.0, -1] = 100.0
                return eigs

            monkeypatch.setattr(np.linalg, "eigvalsh", inflated)

        inflate(3)
        with pytest.raises(AssertionError, match=r"below the m/2 bound for \(n=16, m=8, d=3\)"):
            shift_system_oracle(16, 8, np.arange(1, 16))
        inflate(5)
        with pytest.raises(AssertionError, match=r"\(n=16, m=8, d=5\)"):
            shift_system_oracle(16, 8, np.array([2, 4, 5, 9]))

    def test_separation_array_validation(self):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            shift_system_oracle(8, 4, np.array([1, 8]))
        with pytest.raises(InvalidArgumentError, match="integer"):
            shift_system_oracle(8, 4, np.array([1.0, 2.0]))
        with pytest.raises(InvalidArgumentError, match="integer"):
            shift_system_oracle(8, 4, np.array([[1, 2]]))

    def test_symmetric_in_d(self):
        for d in range(1, 10):
            a = shift_system_oracle(10, 6, d)
            b = shift_system_oracle(10, 6, 10 - d)
            assert abs(a - b) <= 1e-12

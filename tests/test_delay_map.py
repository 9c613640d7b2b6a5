import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from delaycond import (
    DelayParams,
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    PairTable,
    basis_delay_vector,
    delay_vector,
    derive_seed,
    draw_coeffs,
    draw_stream,
    generate_orbit,
    infimum_soft_rank,
    lyapunov_exponent_inverse_flow,
    make_linear_flow,
    make_shift_flow,
    monte_carlo,
    pair_soft_rank,
    sample_attractor,
    time_series,
    trajectory_manifold_points,
    trajectory_matrices,
    trajectory_matrix,
    trajectory_vector,
    user_coeffs,
)
from delaycond.delay_map import MeasurementCoeffs
from delaycond.dynamics import _gathered_rows, permutation_powers

from test_dynamics import PERMUTATION_KINDS, permutation_flow, well_conditioned_flow


class TestDrawCoeffs:
    @settings(max_examples=30, deadline=None)
    @given(
        ensemble=st.sampled_from(["rademacher", "gaussian"]),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_same_seed_same_vector(self, ensemble, n, seed):
        a = draw_coeffs(ensemble, n, seed)
        b = draw_coeffs(ensemble, n, seed)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.seed == seed

    def test_distinct_seeds_differ(self):
        a = draw_coeffs("rademacher", 64, 1)
        b = draw_coeffs("rademacher", 64, 2)
        assert not np.array_equal(a.alpha, b.alpha)

    def test_rademacher_entries_are_signs(self):
        alpha = draw_coeffs("rademacher", 200, 9).alpha
        assert np.all(alpha * alpha == 1.0)

    def test_gaussian_concentration(self):
        alpha = draw_coeffs("gaussian", 10_000, 11).alpha
        assert abs(alpha.mean()) <= 4 / np.sqrt(10_000)
        assert abs(alpha.var() - 1.0) <= 0.1

    def test_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            draw_coeffs("rademacher", 0, 1)
        with pytest.raises(InvalidArgumentError):
            draw_coeffs("uniform", 4, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_coefficients_must_be_finite(self, bad):
        # a non-finite entry would make every conditioning eps and ratio NaN
        alpha = np.array([1.0, bad, 0.0])
        with pytest.raises(InvalidArgumentError, match="finite"):
            user_coeffs(alpha)
        with pytest.raises(InvalidArgumentError, match="finite"):
            MeasurementCoeffs(alpha=alpha, seed=3)

    @pytest.mark.parametrize("ensemble", ["rademacher", "gaussian"])
    def test_stream_is_the_derived_seed_draws(self, ensemble):
        stream = draw_stream(ensemble, 12, 6, 41)
        expected = [draw_coeffs(ensemble, 12, derive_seed(41, k)) for k in range(6)]
        assert [c.seed for c in stream] == [c.seed for c in expected]
        assert all(a.alpha.tobytes() == b.alpha.tobytes() for a, b in zip(stream, expected))
        # a shorter stream is a prefix of a longer one
        assert [c.seed for c in draw_stream(ensemble, 12, 2, 41)] == [c.seed for c in stream[:2]]

    @pytest.mark.parametrize(
        "ensemble, num_draws, message",
        [("rademacher", 0, "num_draws must be >= 1"), ("bogus", 3, "bogus")],
        ids=["no-draws", "unknown-ensemble"],
    )
    def test_stream_arguments_are_typed_errors(self, ensemble, num_draws, message):
        with pytest.raises(InvalidArgumentError, match=message):
            draw_stream(ensemble, 8, num_draws, 0)

    def test_derived_seeds_are_order_independent(self):
        forward = [derive_seed(7, k) for k in range(5)]
        backward = [derive_seed(7, k) for k in reversed(range(5))]
        assert forward == backward[::-1]
        assert len(set(forward)) == 5

    @pytest.mark.parametrize(
        "seeded",
        [
            lambda seed: derive_seed(seed, 0),
            lambda seed: derive_seed(0, seed),
            lambda seed: draw_coeffs("rademacher", 4, seed),
            lambda seed: lyapunov_exponent_inverse_flow(make_shift_flow(4), 10, seed=seed),
        ],
        ids=["derive_seed-base", "derive_seed-index", "draw_coeffs", "lyapunov"],
    )
    def test_negative_seeds_are_typed_errors(self, seeded):
        seeded(0)
        with pytest.raises(InvalidArgumentError, match="must be >= 0, got -1"):
            seeded(-1)


class TestTimeSeries:
    def test_shift_reads_coefficients_backwards(self):
        flow = make_shift_flow(4)
        orbit = generate_orbit(flow, np.eye(4)[0], 5)
        alpha = user_coeffs(np.array([10.0, 20.0, 30.0, 40.0]))
        series = time_series(orbit, alpha)
        assert np.array_equal(series, [10.0, 40.0, 30.0, 20.0, 10.0])

    def test_zero_coefficients_zero_series(self):
        flow = make_shift_flow(3)
        orbit = generate_orbit(flow, np.eye(3)[0], 6)
        assert np.all(time_series(orbit, user_coeffs(np.zeros(3))) == 0.0)

    def test_identity_flow_constant_series(self):
        flow = make_linear_flow(np.eye(3))
        orbit = generate_orbit(flow, np.array([1.0, 2.0, 3.0]), 5)
        series = time_series(orbit, user_coeffs(np.array([1.0, 1.0, 1.0])))
        assert np.all(series == 6.0)

    def test_dimension_mismatch(self):
        flow = make_shift_flow(3)
        orbit = generate_orbit(flow, np.eye(3)[0], 4)
        with pytest.raises(DimensionMismatchError):
            time_series(orbit, user_coeffs(np.ones(4)))


class TestTrajectoryMatrix:
    def test_shift_rows_are_backward_iterates(self):
        flow = make_shift_flow(4)
        tm = trajectory_matrix(flow, np.eye(4)[0], DelayParams(2))
        assert np.array_equal(tm, np.vstack([np.eye(4)[0], np.eye(4)[1]]))

    def test_single_delay_is_the_state_row(self):
        flow = well_conditioned_flow(1, 5)
        x = np.arange(1.0, 6.0)
        tm = trajectory_matrix(flow, x, DelayParams(1))
        assert np.array_equal(tm, x[None, :])

    def test_identity_flow_repeats_rows(self):
        flow = make_linear_flow(np.eye(3))
        x = np.array([1.0, -1.0, 2.0])
        tm = trajectory_matrix(flow, x, DelayParams(3))
        assert np.all(tm == x[None, :])

    def test_row_zero_is_the_state(self):
        flow = well_conditioned_flow(2, 4)
        x = np.array([0.3, -0.7, 1.1, 0.0])
        tm = trajectory_matrix(flow, x, DelayParams(5))
        assert np.array_equal(tm[0], x)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda f, s, p: trajectory_matrix(f, s[0], p), id="trajectory_matrix"),
            pytest.param(lambda f, s, p: trajectory_matrices(f, s, p), id="trajectory_matrices"),
            pytest.param(
                lambda f, s, p: delay_vector(f, s[0], user_coeffs(np.ones(3)), p),
                id="delay_vector",
            ),
            pytest.param(lambda f, s, p: pair_soft_rank(f, s[0], s[1], p), id="pair_soft_rank"),
            pytest.param(
                lambda f, s, p: infimum_soft_rank(PairTable(f, s, p)), id="infimum_soft_rank"
            ),
            pytest.param(
                lambda f, s, p: monte_carlo(PairTable(f, s, p), draw_stream("gaussian", 3, 2, 0)),
                id="monte_carlo",
            ),
            pytest.param(
                lambda f, s, p: trajectory_manifold_points(PairTable(f, s, p)),
                id="trajectory_manifold_points",
            ),
        ],
    )
    def test_excess_delays_warn(self, call):
        # the warning names the caller's line, not a line inside the package
        with pytest.warns(RuntimeWarning, match="plateaus") as record:
            call(make_shift_flow(3), np.eye(3), DelayParams(4))
        assert [w.filename for w in record] == [__file__] * len(record)

    def test_zero_delays_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DelayParams(0)

    def test_overflowing_backward_iterates_are_a_typed_error(self):
        # the inverse flow multiplies by 4 per delay, so 4^512 = 2^1024 overflows
        flow = make_linear_flow(0.25 * np.eye(4))
        params = DelayParams(600)
        with pytest.raises(NonFiniteTrajectoryError, match="delay index 512 of 600"):
            trajectory_matrix(flow, np.eye(4)[0], params)
        samples = np.vstack([1e-200 * np.eye(4)[0], np.eye(4)[1]])
        with pytest.raises(NonFiniteTrajectoryError, match="sample 1: .*delay index 512"):
            trajectory_matrices(flow, samples, params)

    def test_non_finite_state_is_a_typed_error(self):
        flow = make_shift_flow(3)
        with pytest.raises(NonFiniteTrajectoryError, match="delay index 0"):
            trajectory_matrix(flow, np.array([1.0, np.nan, 0.0]), DelayParams(2))

    def test_stacked_matrices_match_singles_bitwise(self):
        flow = well_conditioned_flow(4, 6)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((5, 6))
        stack = trajectory_matrices(flow, samples, DelayParams(4))
        for i in range(5):
            single = trajectory_matrix(flow, samples[i], DelayParams(4))
            assert np.array_equal(stack[i], single)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_amb=st.integers(2, 24),
        num=st.integers(1, 12),
        m=st.integers(1, 40),
        kind=st.sampled_from(PERMUTATION_KINDS),
        basis=st.booleans(),
    )
    def test_permutation_gathers_match_the_matvec_path_bitwise(
        self, seed, n_amb, num, m, kind, basis
    ):
        flow = permutation_flow(kind, seed, n_amb)
        rng = np.random.default_rng(seed)
        if basis:
            # signed basis states: -e_k carries -0.0 in every other entry
            signs = rng.choice([-1.0, 1.0], size=(num, 1))
            samples = signs * np.eye(n_amb)[rng.integers(0, n_amb, num)]
        else:
            samples = rng.standard_normal((num, n_amb))
            samples[rng.random(samples.shape) < 0.3] = -0.0
            samples[rng.random(samples.shape) < 0.2] = 0.0
        # the gathers are the pair table's; trajectory_matrices takes the matvecs
        gathered = _gathered_rows(samples, permutation_powers(flow.permutation, m))
        reference = trajectory_matrices(flow, samples, DelayParams(m))
        assert gathered.flags.c_contiguous  # later passes over the stack assume C order
        assert gathered.tobytes() == reference.tobytes()  # zero signs included

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_permutation_gathers_name_the_same_non_finite_sample(self, bad):
        flow = make_shift_flow(5)
        samples = np.random.default_rng(0).standard_normal((4, 5))
        samples[2, 3] = bad
        messages = []
        for path in (PairTable, trajectory_matrices):
            with pytest.raises(NonFiniteTrajectoryError) as info:
                path(flow, samples, DelayParams(3))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("sample 2: backward iterate at delay index 0 of 3")

    def test_difference_rows_are_chords(self):
        flow = well_conditioned_flow(5, 4)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        params = DelayParams(6)
        diff = trajectory_matrix(flow, x, params) - trajectory_matrix(flow, y, params)
        cx, cy = x, y
        for m in range(6):
            assert np.array_equal(diff[m], cx - cy)
            cx, cy = flow.inverse @ cx, flow.inverse @ cy


class TestTrajectoryVector:
    def test_single_delay_equals_the_state(self):
        flow = make_shift_flow(5)
        x = np.eye(5)[2]
        tv = trajectory_vector(flow, x, DelayParams(1))
        assert np.array_equal(tv, x)

    def test_shift_concatenation(self):
        flow = make_shift_flow(4)
        tv = trajectory_vector(flow, np.eye(4)[0], DelayParams(2))
        assert np.array_equal(tv, np.concatenate([np.eye(4)[0], np.eye(4)[1]]))

    def test_reshape_reproduces_matrix_exactly(self):
        flow = well_conditioned_flow(6, 4)
        x = np.array([1.0, 0.5, -0.5, 2.0])
        params = DelayParams(3)
        tv = trajectory_vector(flow, x, params)
        tm = trajectory_matrix(flow, x, params)
        assert np.array_equal(tv.reshape(3, 4), tm)
        assert tv.shape == (12,) and tm.shape == (3, 4)
        assert not tv.flags.writeable and not tm.flags.writeable

    def test_shift_norm_is_sqrt_m_times_state_norm(self):
        flow = make_shift_flow(6)
        x = np.random.default_rng(2).standard_normal(6)
        tv = trajectory_vector(flow, x, DelayParams(4))
        assert np.isclose(np.dot(tv, tv), 4 * np.dot(x, x), rtol=1e-12)

    def test_frobenius_matches_vector_norm_exactly(self):
        flow = well_conditioned_flow(7, 5)
        x = np.random.default_rng(3).standard_normal(5)
        params = DelayParams(4)
        tv = trajectory_vector(flow, x, params)
        tm = trajectory_matrix(flow, x, params)
        rows = tv.reshape(4, 5)
        fro_sq = np.sum(np.einsum("mn,mn->m", tm, tm))
        vec_sq = np.sum(np.einsum("mn,mn->m", rows, rows))
        assert fro_sq == vec_sq


class TestDelayVector:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), m=st.integers(1, 10))
    def test_factorization_identity(self, seed, n, m):
        flow = well_conditioned_flow(seed, n)
        rng = np.random.default_rng(seed + 17)
        x = rng.standard_normal(n)
        alpha = user_coeffs(rng.standard_normal(n))
        params = DelayParams(m)
        direct = delay_vector(flow, x, alpha, params)
        assert np.array_equal(direct, trajectory_matrix(flow, x, params) @ alpha.alpha)

    def test_factorization_identity_100_cases(self):
        rng = np.random.default_rng(23)
        for case in range(100):
            n = int(rng.integers(2, 9))
            flow = well_conditioned_flow(int(rng.integers(0, 2**31)), n)
            x = rng.standard_normal(n)
            alpha = user_coeffs(rng.standard_normal(n))
            params = DelayParams(int(rng.integers(1, 9)))
            direct = delay_vector(flow, x, alpha, params)
            assert np.array_equal(direct, trajectory_matrix(flow, x, params) @ alpha.alpha)

    def test_basis_coefficients_select_matrix_column(self):
        flow = make_shift_flow(6)
        x = np.random.default_rng(4).standard_normal(6)
        params = DelayParams(4)
        g = trajectory_matrix(flow, x, params)
        for p in range(6):
            e_p = np.zeros(6)
            e_p[p] = 1.0
            assert np.array_equal(delay_vector(flow, x, user_coeffs(e_p), params), g[:, p])
            assert np.array_equal(basis_delay_vector(flow, x, p, params), g[:, p])

    def test_identity_flow_repeats_projection(self):
        flow = make_linear_flow(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        alpha = user_coeffs(np.array([1.0, 0.0, -1.0]))
        assert np.all(delay_vector(flow, x, alpha, DelayParams(5)) == -2.0)

    def test_dimension_mismatch(self):
        flow = make_shift_flow(4)
        with pytest.raises(DimensionMismatchError):
            delay_vector(flow, np.eye(4)[0], user_coeffs(np.ones(3)), DelayParams(2))


class TestBasisDelayVector:
    def test_first_axis_of_shift(self):
        flow = make_shift_flow(5)
        out = basis_delay_vector(flow, np.eye(5)[0], 0, DelayParams(2))
        assert np.array_equal(out, [1.0, 0.0])

    def test_out_of_range_rejected(self):
        flow = make_shift_flow(5)
        for p in (-1, 5, 17):
            with pytest.raises(InvalidArgumentError):
                basis_delay_vector(flow, np.eye(5)[0], p, DelayParams(2))

    def test_linearity_reassembles_delay_vector(self):
        flow = well_conditioned_flow(8, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5)
        coeffs = rng.standard_normal(5)
        params = DelayParams(3)
        assembled = sum(
            coeffs[p] * basis_delay_vector(flow, x, p, params) for p in range(5)
        )
        full = delay_vector(flow, x, user_coeffs(coeffs), params)
        assert np.linalg.norm(assembled - full) <= 1e-12 * np.linalg.norm(full)


class TestTakensIdentity:
    """On orbit-ordered samples the delay vector is a window of the scalar series.

    With x_k = Phi^k(x_0) and s_k = <alpha, x_k>, F_alpha(x_i)[m] = s_{i-m}:
    the paper's definition, checked against ``delay_vector`` (the stack) and
    the numerators of ``PairTable.ratios`` (the stack, or on a permutation
    flow the gathered coefficients) independently of both.
    """

    @staticmethod
    def sides(flow, samples, alpha, params):
        """(delay vectors, their series windows, table ratios, ratios of the windows)."""
        m = params.num_delays
        # x_{-(M-1)}, ..., x_{-1}, then the samples x_0, x_1, ...
        back = trajectory_matrix(flow, samples[0], params)[:0:-1]
        series = time_series(np.vstack([back, samples]), alpha)
        windows = series[np.arange(samples.shape[0])[:, None] - np.arange(m) + m - 1]
        delays = np.array([delay_vector(flow, x, alpha, params) for x in samples])
        table = PairTable(flow, samples, params)
        window_ratios = pdist(windows, "sqeuclidean") / table.traj_dist_sq
        return delays, windows, table.ratios(alpha.alpha), window_ratios

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(PERMUTATION_KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        num=st.integers(2, 12),
        m=st.integers(1, 10),
    )
    def test_permutation_orbits_are_windows_bit_for_bit(self, kind, seed, n, num, m):
        # integer states and sign coefficients: every sum is exact
        flow = permutation_flow(kind, seed, n)
        x0 = np.random.default_rng(seed).integers(-3, 4, n).astype(float)
        assume(not np.array_equal(x0[flow.permutation], x0))  # not a fixed point
        samples = sample_attractor(flow, x0, num).states
        alpha = draw_coeffs("rademacher", n, seed)
        delays, windows, ratios, window_ratios = self.sides(flow, samples, alpha, DelayParams(m))
        assert delays.tobytes() == windows.tobytes()
        assert ratios.tobytes() == window_ratios.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        num=st.integers(2, 12),
        m=st.integers(1, 8),
    )
    def test_linear_flow_orbits_are_windows_to_rounding(self, seed, n, num, m):
        flow = well_conditioned_flow(seed, n)
        x0 = np.random.default_rng(seed).standard_normal(n)
        samples = sample_attractor(flow, x0, num).states
        alpha = draw_coeffs("gaussian", n, seed)
        delays, windows, ratios, window_ratios = self.sides(flow, samples, alpha, DelayParams(m))
        assert np.max(np.abs(delays - windows)) <= 1e-12 * np.max(np.abs(windows))
        # a ratio lies in [0, ||alpha||^2], which scales its rounding
        assert np.max(np.abs(ratios - window_ratios)) <= 1e-12 * (alpha.alpha @ alpha.alpha)


class TestRademacherIsotropy:
    @pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (10, 2)])
    def test_exhaustive_sign_mean_equals_frobenius(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        g = rng.standard_normal((m, n))
        signs = np.array(
            [[1.0 if (k >> b) & 1 else -1.0 for b in range(n)] for k in range(2**n)]
        )
        measured = g @ signs.T  # (m, 2^n)
        mean_sq = float(np.mean(np.sum(measured * measured, axis=0)))
        fro_sq = float(np.sum(g * g))
        assert abs(mean_sq - fro_sq) <= 1e-12 * fro_sq


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: user_coeffs(np.ones((2, 3))), InvalidArgumentError, "non-empty 1-D"),
            (lambda: user_coeffs(np.array([])), InvalidArgumentError, "non-empty 1-D"),
            (
                lambda: trajectory_matrices(make_shift_flow(4), np.ones((2, 3)), DelayParams(2)),
                DimensionMismatchError,
                "samples have dimension 3, flow ambient dimension is 4",
            ),
        ],
        ids=["2-D coefficients", "empty coefficients", "sample dimension"],
    )
    def test_malformed_inputs_are_typed_errors(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

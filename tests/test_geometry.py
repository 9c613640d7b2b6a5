import numpy as np
import pytest

from delaycond import (
    DelayParams,
    InvalidArgumentError,
    NoEstimateError,
    NonFiniteTrajectoryError,
    PairTable,
    ZeroVarianceError,
    autocorr_first_zero,
    curve_volume,
    delay_selection,
    finite_difference_tangents,
    make_linear_flow,
    make_shift_flow,
    mutual_information_first_min,
    reach_estimate,
    sample_attractor,
    trajectory_manifold_points,
    trajectory_vector,
)


def circle_points(num, radius=1.0):
    theta = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    return pts, tangents


class TestSampleAttractor:
    def test_shift_orbit_wraps_after_full_cycle(self):
        flow = make_shift_flow(8)
        sample = sample_attractor(flow, np.eye(8)[0], 20)
        assert sample.states.shape == (8, 8)
        assert sample.period == 8

    def test_identity_flow_is_a_fixed_point(self):
        flow = make_linear_flow(np.eye(3))
        with pytest.raises(InvalidArgumentError):
            sample_attractor(flow, np.ones(3), 5)

    def test_expanding_flow_never_wraps(self):
        flow = make_linear_flow(np.diag([2.0, 0.5]))
        sample = sample_attractor(flow, np.array([1.0, 1.0]), 5)
        assert sample.states.shape == (5, 2)
        assert sample.period is None
        dists = np.linalg.norm(sample.states[:, None] - sample.states[None, :], axis=2)
        assert np.all(dists[np.triu_indices(5, 1)] > 0.0)

    # stepping an infinite state by a matvec makes NaN (0 * inf), without a warning
    @pytest.mark.parametrize("scale", [1e160, np.inf])
    def test_origin_without_finite_norm_is_not_a_fixed_point(self, scale):
        # an overflowing norm would match the next state as a return to x0
        origin = np.zeros(8)
        origin[[0, 3]] = scale, 0.37 * scale
        with pytest.raises(NonFiniteTrajectoryError, match="no finite norm"):
            sample_attractor(make_shift_flow(8), origin, 8)

    def test_tiny_shift_orbit_is_no_fixed_point(self):
        # the squares of 1e-170 underflow to 0, which must not read as a return
        flow = make_shift_flow(8)
        sample = sample_attractor(flow, 1e-170 * np.eye(8)[0], 20)
        assert sample.period == 8
        assert np.array_equal(sample.states, 1e-170 * sample_attractor(flow, np.eye(8)[0], 20).states)

    def test_tiny_orthogonal_orbit_never_wraps(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        sample = sample_attractor(make_linear_flow(q), 1e-170 * np.ones(6), 20)
        assert sample.period is None
        assert sample.states.shape == (20, 6)

    def test_needs_two_requested(self):
        with pytest.raises(InvalidArgumentError):
            sample_attractor(make_shift_flow(4), np.eye(4)[0], 1)

    def test_overflowing_forward_orbit_names_its_step(self):
        # states 0 and 1 are finite; the matvec of step 2 overflows
        flow = make_linear_flow(1e150 * np.random.default_rng(0).standard_normal((3, 3)))
        with pytest.raises(NonFiniteTrajectoryError, match="forward step 2 of the orbit"):
            sample_attractor(flow, np.array([1e48, 2e48, -1e48]), 6)

    def test_overflow_past_the_kept_states_is_no_error(self):
        # only the lookahead state of the period check, 1e400, overflows
        sample = sample_attractor(make_linear_flow(1e200 * np.eye(2)), np.eye(2)[0], 2)
        assert np.array_equal(sample.states, [[1.0, 0.0], [1e200, 0.0]])
        assert sample.period is None


class TestTrajectoryManifoldPoints:
    def test_single_delay_is_the_identity(self):
        flow = make_shift_flow(5)
        samples = np.eye(5)[:3]
        points = trajectory_manifold_points(PairTable(flow, samples, DelayParams(1)))
        assert np.array_equal(points, samples)

    def test_rows_are_the_trajectory_vectors(self):
        flow = make_linear_flow(np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.3, 0.0, 0.7]]))
        samples = np.random.default_rng(5).standard_normal((4, 3))
        params = DelayParams(6)
        points = trajectory_manifold_points(PairTable(flow, samples, params))
        assert points.shape == (4, 18)
        assert not points.flags.writeable
        for state, point in zip(samples, points):
            assert point.tobytes() == trajectory_vector(flow, state, params).tobytes()

    def test_shift_preserves_norms_blockwise(self):
        flow = make_shift_flow(6)
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((4, 6))
        points = trajectory_manifold_points(PairTable(flow, samples, DelayParams(5)))
        for state, point in zip(samples, points):
            assert np.isclose(np.dot(point, point), 5 * np.dot(state, state), rtol=1e-12)

    def test_distinct_samples_stay_distinct(self):
        flow = make_shift_flow(7)
        samples = np.eye(7)
        points = trajectory_manifold_points(PairTable(flow, samples, DelayParams(3)))
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.linalg.norm(points[i] - points[j]) > 0.0
        # the leading block of each trajectory vector is the sample itself
        assert np.array_equal(points[:, :7], samples)


class TestCurveVolume:
    def test_unit_square_perimeter(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert curve_volume(square, closed=True) == 4.0

    def test_circle_circumference_within_a_tenth_percent(self):
        pts, _ = circle_points(1000)
        volume = curve_volume(pts, closed=True)
        assert abs(volume - 2.0 * np.pi) <= 1e-3 * 2.0 * np.pi
        assert volume < 2.0 * np.pi  # chordal sums underestimate

    def test_two_points_is_their_distance(self):
        assert curve_volume(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_needs_two_points(self):
        with pytest.raises(InvalidArgumentError):
            curve_volume(np.array([[1.0, 2.0]]))


class TestReachEstimate:
    def test_circle_reach_is_its_radius(self):
        pts, tangents = circle_points(500, radius=3.0)
        est = reach_estimate(pts, tangents)
        assert 2.97 <= est.value <= 3.03
        assert est.num_pairs == 500 * 499

    def test_collinear_points_have_no_estimate(self):
        pts = np.column_stack([np.arange(5.0), np.zeros(5)])
        tangents = np.tile([1.0, 0.0], (5, 1))
        with pytest.raises(NoEstimateError):
            reach_estimate(pts, tangents)

    def test_concentric_circles_bottleneck(self):
        inner, t_inner = circle_points(400, radius=1.0)
        outer, t_outer = circle_points(400, radius=1.2)
        pts = np.vstack([inner, outer])
        tangents = np.vstack([t_inner, t_outer])
        est = reach_estimate(pts, tangents)
        # radially aligned pairs give exactly half the gap
        assert est.value <= 0.1 * 1.0001
        assert est.value > 0.09

    def test_non_unit_tangents_rejected(self):
        pts, tangents = circle_points(10)
        with pytest.raises(InvalidArgumentError):
            reach_estimate(pts, 2.0 * tangents)

    def test_needs_three_points(self):
        with pytest.raises(InvalidArgumentError):
            reach_estimate(np.eye(2), np.eye(2))


class TestFiniteDifferenceTangents:
    def test_regular_polygon_matches_circle_tangents(self):
        pts, analytic = circle_points(100)
        tangents = finite_difference_tangents(pts)
        # central differences on a circle are exactly tangent by symmetry
        cos_interior = np.einsum("ij,ij->i", tangents[1:-1], analytic[1:-1])
        assert np.all(cos_interior >= 1.0 - 1e-12)
        # one-sided endpoints are off by half a step angle
        cos_ends = np.einsum("ij,ij->i", tangents[[0, -1]], analytic[[0, -1]])
        assert np.all(cos_ends >= np.cos(2.0 * np.pi / 100))

    def test_collinear_points_share_a_tangent(self):
        pts = np.column_stack([np.arange(3.0), np.arange(3.0)])
        tangents = finite_difference_tangents(pts)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(tangents, expected[None, :], atol=1e-15)

    def test_duplicate_consecutive_points_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            finite_difference_tangents(pts)


class TestAutocorrFirstZero:
    def test_cosine_quarter_period(self):
        series = np.cos(2.0 * np.pi * np.arange(160) / 16.0)
        assert autocorr_first_zero(series) == 4

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            autocorr_first_zero(np.full(100, 3.7))

    def test_monotone_series_has_no_zero_in_range(self):
        assert autocorr_first_zero(np.arange(64.0), max_lag=4) is None

    def test_lag_budget_enforced(self):
        with pytest.raises(InvalidArgumentError):
            autocorr_first_zero(np.random.default_rng(0).standard_normal(20), max_lag=10)


class TestMutualInformationFirstMin:
    def test_iid_noise_decorrelates_immediately(self):
        series = np.random.default_rng(1).standard_normal(10_000)
        assert mutual_information_first_min(series, num_bins=16, max_lag=50) == 1

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            mutual_information_first_min(np.zeros(100))

    def test_bin_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            mutual_information_first_min(np.arange(100.0), num_bins=1)

    def test_bin_count_above_the_series_length_rejected(self, monkeypatch):
        # each lag's histogram holds about (num_bins + 2)^2 counts; the bound
        # must stop a large count before any histogram is formed
        def no_histogram(*args, **kwargs):
            raise AssertionError("a histogram was formed")

        rng = np.random.default_rng(2)
        with monkeypatch.context() as mp:
            mp.setattr(np, "histogram2d", no_histogram)
            for length, num_bins in [(8, 17), (40, 41)]:
                with pytest.raises(
                    InvalidArgumentError,
                    match=rf"num_bins must be <= max\(series length {length}, 16\), got {num_bins}",
                ):
                    mutual_information_first_min(rng.standard_normal(length), num_bins=num_bins)
        # a short series keeps the default; a long one may have a bin per point
        for length, num_bins in [(8, 16), (40, 40)]:
            mutual_information_first_min(rng.standard_normal(length), num_bins=num_bins)

    def test_agrees_with_autocorr_on_dithered_cosine(self):
        # the exact 16-phase cosine is degenerate for a histogram estimator;
        # light dither fills the joint cells and exposes the quarter-period dip
        rng = np.random.default_rng(7)
        series = np.cos(2.0 * np.pi * np.arange(4000) / 16.0)
        series = series + 0.05 * rng.standard_normal(series.size)
        ac = autocorr_first_zero(series)
        mi = mutual_information_first_min(series, num_bins=16)
        assert ac == 4
        assert abs(mi - ac) <= 1


# a cosine of period 43.5 over 40 steps: its autocorrelation first crosses
# zero at lag 10 and its mutual information has its first minimum at lag 9,
# which needs lag 10 as its right neighbor; 10 = 40 // 4 ends the window
@pytest.mark.parametrize(
    "lag_function, first", [(autocorr_first_zero, 10), (mutual_information_first_min, 9)]
)
class TestLagWindow:
    SERIES = np.cos(2.0 * np.pi * np.arange(40) / 43.5)

    def test_default_window_is_a_quarter_of_the_length(self, lag_function, first):
        assert lag_function(self.SERIES) == lag_function(self.SERIES, max_lag=10) == first
        assert lag_function(self.SERIES, max_lag=9) is None

    @pytest.mark.parametrize(
        "length, max_lag, requested",
        [(3, None, 0), (40, 0, 0), (40, -2, -2), (40, 11, 11), (20, 10, 10)],
    )
    def test_lags_past_the_window_are_rejected_alike(
        self, lag_function, first, length, max_lag, requested
    ):
        message = f"series of length {length} supports lags up to {length // 4}, requested {requested}"
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            lag_function(self.SERIES[:length], max_lag=max_lag)


class TestDelaySelection:
    def test_bundles_both_baselines(self):
        rng = np.random.default_rng(11)
        series = np.cos(2.0 * np.pi * np.arange(4000) / 16.0)
        series = series + 0.05 * rng.standard_normal(series.size)
        sel = delay_selection(series, num_bins=16)
        assert sel.autocorr_first_zero == 4
        assert sel.num_bins == 16
        assert sel.mi_first_min is not None and abs(sel.mi_first_min - 4) <= 1

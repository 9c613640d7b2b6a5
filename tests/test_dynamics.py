import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycond import (
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    NonInvertibleFlowError,
    generate_orbit,
    inverse_step,
    lyapunov_exponent_inverse_flow,
    make_linear_flow,
    make_shift_flow,
    step,
)
from delaycond.dynamics import FlowSpec, is_permutation_orbit, permutation_powers


def well_conditioned_flow(seed: int, n: int):
    """Random invertible flow with condition number at most 4."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return make_linear_flow(q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2)


def relabelled_shift_flow(seed: int, n: int) -> FlowSpec:
    """The cyclic shift with its coordinates randomly relabelled: one n-cycle."""
    q = np.eye(n)[np.random.default_rng(seed).permutation(n)]
    phi = q @ make_shift_flow(n).matrix @ q.T
    return FlowSpec(matrix=phi, inverse=phi.T)


def random_permutation_flow(seed: int, n: int) -> FlowSpec:
    """A uniformly random relabelling of the coordinates, in general of several cycles."""
    p = np.eye(n)[np.random.default_rng(seed).permutation(n)]
    return FlowSpec(matrix=p, inverse=p.T)


PERMUTATION_KINDS = ("shift", "relabelled", "random")


def permutation_flow(kind: str, seed: int, n: int) -> FlowSpec:
    """The shift, a relabelled shift or a random permutation flow on R^n, by ``kind``."""
    if kind == "shift":
        return make_shift_flow(n)
    return (relabelled_shift_flow if kind == "relabelled" else random_permutation_flow)(seed, n)


def exact_orbit(flow: FlowSpec, x0: np.ndarray, num: int, backward: bool) -> np.ndarray:
    """``num`` states x0, F x0, F^2 x0, ... with F the flow's inverse or its matrix."""
    if not backward:
        return generate_orbit(flow, x0, num)
    states = [np.asarray(x0, dtype=float)]
    while len(states) < num:
        states.append(flow.inverse @ states[-1])
    return np.array(states)


class TestMakeShiftFlow:
    def test_three_by_three_matrix(self):
        flow = make_shift_flow(3)
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(flow.matrix, expected)

    def test_smallest_shift_is_the_swap(self):
        assert np.array_equal(make_shift_flow(2).matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
    def test_cyclic_period_n_on_first_axis(self, n):
        flow = make_shift_flow(n)
        x = np.eye(n)[0]
        cur = x
        for k in range(1, n):
            cur = step(flow, cur)
            assert not np.array_equal(cur, x), f"returned early at {k}"
        assert np.array_equal(step(flow, cur), x)

    def test_inverse_is_transpose(self):
        flow = make_shift_flow(6)
        assert np.array_equal(flow.inverse, flow.matrix.T)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidArgumentError):
            make_shift_flow(1)

    def test_norm_preservation(self):
        flow = make_shift_flow(16)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(16)
            assert abs(np.linalg.norm(step(flow, x)) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)


class TestPermutationFlows:
    def test_shift_inverse_is_a_gather(self):
        flow = make_shift_flow(5)
        x = np.arange(5.0)
        assert np.array_equal(flow.inverse @ x, x[flow.permutation])

    @pytest.mark.parametrize("seed", range(5))
    def test_relabelled_shift_inverse_is_a_gather(self, seed):
        flow = relabelled_shift_flow(seed, 9)
        x = np.random.default_rng(seed).standard_normal(9)
        assert np.array_equal(flow.inverse @ x, x[flow.permutation])

    @pytest.mark.parametrize("seed", range(5))
    def test_powers_apply_the_inverse_k_times(self, seed):
        flow = random_permutation_flow(seed, 9)
        x = np.random.default_rng(seed).standard_normal(9)
        powers = permutation_powers(flow.permutation, 20)
        assert powers.shape == (20, 9)
        cur = x
        for k in range(20):
            assert np.array_equal(x[powers[k]], cur)
            cur = flow.inverse @ cur

    def test_non_permutations_have_none(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])  # a signed permutation
        assert make_linear_flow(rotation).permutation is None
        assert make_linear_flow(np.diag([1.0, 2.0])).permutation is None
        assert make_linear_flow(np.eye(3) * 0.5).permutation is None
        doubled = FlowSpec(matrix=np.eye(2), inverse=np.ones((2, 2)))
        assert doubled.permutation is None
        zero = FlowSpec(matrix=np.eye(2), inverse=np.zeros((2, 2)))
        assert zero.permutation is None

    @pytest.mark.parametrize("backward", [False, True])
    def test_orbits_in_either_direction_are_recognised(self, backward):
        flow = relabelled_shift_flow(3, 7)
        origin = np.random.default_rng(3).standard_normal(7)
        states = exact_orbit(flow, origin, 7, backward)
        assert is_permutation_orbit(flow, states)
        assert is_permutation_orbit(flow, states[:2])
        assert is_permutation_orbit(flow, states[::-1])  # the other direction
        assert not is_permutation_orbit(flow, states[[1, 0, 2, 3]])
        assert not is_permutation_orbit(flow, states[::2])
        assert not is_permutation_orbit(flow, states * (1.0 + np.eye(7)[0]))
        linear = well_conditioned_flow(3, 7)
        assert not is_permutation_orbit(linear, exact_orbit(linear, origin, 4, backward))


class TestMakeLinearFlow:
    def test_identity_flow_is_identity(self):
        flow = make_linear_flow(np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(step(flow, x), x)

    def test_diagonal_action(self):
        flow = make_linear_flow(np.diag([2.0, 0.5]))
        assert np.allclose(step(flow, np.array([1.0, 0.0])), [2.0, 0.0])
        assert np.allclose(step(flow, np.array([1.0, 1.0])), [2.0, 0.5])

    def test_zero_row_rejected(self):
        matrix = np.eye(3)
        matrix[1] = 0.0
        with pytest.raises(NonInvertibleFlowError):
            make_linear_flow(matrix)

    def test_near_singular_rejected(self):
        with pytest.raises(NonInvertibleFlowError):
            make_linear_flow(np.diag([1.0, 1e-13]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_linear_flow(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = np.eye(3)
        matrix[1, 2] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            make_linear_flow(matrix)

    def test_sampling_interval_is_carried(self):
        assert make_linear_flow(np.eye(2), sampling_interval=0.25).sampling_interval == 0.25

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize(
        "make",
        [lambda t: make_shift_flow(4, t), lambda t: make_linear_flow(np.eye(2), t)],
        ids=["shift", "linear"],
    )
    def test_sampling_interval_must_be_positive_and_finite(self, make, interval):
        with pytest.raises(InvalidArgumentError, match="sampling interval"):
            make(interval)


class TestStep:
    def test_shift_sends_second_axis_to_first(self):
        flow = make_shift_flow(4)
        assert np.array_equal(step(flow, np.eye(4)[1]), np.eye(4)[0])

    def test_inverse_step_shifts_the_other_way(self):
        flow = make_shift_flow(4)
        assert np.array_equal(inverse_step(flow, np.eye(4)[0]), np.eye(4)[1])

    def test_dimension_mismatch(self):
        flow = make_shift_flow(4)
        with pytest.raises(DimensionMismatchError):
            step(flow, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            inverse_step(flow, np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
    def test_round_trip_property(self, seed, n):
        flow = well_conditioned_flow(seed, n)
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            x = rng.standard_normal(n)
            back = inverse_step(flow, step(flow, x))
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    def test_round_trip_100_states_shift_and_diag(self):
        rng = np.random.default_rng(0)
        for flow in (make_shift_flow(8), make_linear_flow(np.diag([2.0, 0.5, -1.5, 3.0]))):
            n = flow.ambient_dim
            for _ in range(100):
                x = rng.standard_normal(n)
                back = inverse_step(flow, step(flow, x))
                assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


class TestGenerateOrbit:
    def test_shift_orbit_revisits_origin(self):
        flow = make_shift_flow(4)
        orbit = generate_orbit(flow, np.eye(4)[0], 5)
        assert orbit.shape == (5, 4)
        assert np.array_equal(orbit[4], orbit[0])
        assert np.array_equal(orbit[0], np.eye(4)[0])
        assert not orbit.flags.writeable

    def test_consecutive_states_satisfy_flow_relation(self):
        flow = well_conditioned_flow(3, 5)
        orbit = generate_orbit(flow, np.ones(5), 20)
        for k in range(19):
            expected = step(flow, orbit[k])
            err = np.linalg.norm(orbit[k + 1] - expected)
            assert err <= 1e-10 * np.linalg.norm(expected)

    def test_length_one_is_just_the_origin(self):
        flow = make_shift_flow(3)
        orbit = generate_orbit(flow, np.eye(3)[1], 1)
        assert orbit.shape == (1, 3)

    def test_identity_flow_constant_orbit(self):
        flow = make_linear_flow(np.eye(2))
        orbit = generate_orbit(flow, np.array([1.0, 2.0]), 7)
        assert np.all(orbit == np.array([1.0, 2.0]))

    def test_length_below_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_orbit(make_shift_flow(3), np.eye(3)[0], 0)

    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    @pytest.mark.parametrize("n", [5, 64, 257])
    def test_permutation_steps_match_the_matvec_bitwise(self, kind, n):
        flow = permutation_flow(kind, n, n)
        # a matrix whose matvec raises shows that the steps are gathers
        gather_only = FlowSpec(
            matrix=flow.matrix.view(_NoMatvec), inverse=flow.inverse
        )
        rng = np.random.default_rng(n)
        for _ in range(20):
            x0 = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
            x0[rng.random(n) < 0.2] = -0.0
            expected = [x0]
            while len(expected) < 9:
                expected.append(flow.matrix @ expected[-1])
            states = generate_orbit(gather_only, x0, 9)
            assert np.array_equal(states.view(np.uint64), np.array(expected).view(np.uint64))

    @pytest.mark.parametrize("linear", [False, True], ids=["shift", "linear permutation"])
    @pytest.mark.parametrize("n", [2, 16, 257])
    def test_orbit_is_the_matvec_orbit_bitwise(self, linear, n):
        rng = np.random.default_rng(n)
        flow = make_shift_flow(n)
        if linear:
            # a permutation matrix given as a general linear flow (kind = linear)
            flow = make_linear_flow(np.eye(n)[rng.permutation(n)])
        assert flow.permutation is not None  # so its orbits are gathers
        for _ in range(5):
            x0 = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
            x0[rng.random(n) < 0.2] = -0.0
            expected = [x0]
            while len(expected) < 2 * n + 1:
                expected.append(flow.matrix @ expected[-1])
            states = generate_orbit(flow, x0, len(expected))
            assert np.array_equal(states.view(np.uint64), np.array(expected).view(np.uint64))

    @pytest.mark.parametrize(
        "flow", [make_shift_flow(3), make_linear_flow(np.diag([1.0, 2.0, 3.0]))]
    )
    def test_non_finite_origin_is_step_0(self, flow):
        x0 = np.array([np.inf, 1.0, 2.0])
        with pytest.raises(NonFiniteTrajectoryError, match="forward step 0 of the orbit from x0"):
            generate_orbit(flow, x0, 3)

    def test_overflowing_orbit_names_its_step(self):
        # states 0 and 1 are finite; the matvec of step 2 overflows, and a
        # numpy warning would fail the test (the suite makes it an error)
        flow = make_linear_flow(1e150 * np.random.default_rng(0).standard_normal((3, 3)))
        x0 = np.array([1e48, 2e48, -1e48])
        with pytest.raises(NonFiniteTrajectoryError, match="forward step 2 of the orbit"):
            generate_orbit(flow, x0, 6)
        assert np.isfinite(generate_orbit(flow, x0, 2)).all()


class _NoMatvec(np.ndarray):
    def __matmul__(self, other):
        raise AssertionError("the flow matrix was applied by a matvec")


class TestLyapunovExponent:
    def test_shift_flow_is_an_isometry(self):
        flow = make_shift_flow(8)
        est = lyapunov_exponent_inverse_flow(flow, num_steps=200)
        assert abs(est.exponent) <= 1e-12

    def test_identity_flow_zero(self):
        flow = make_linear_flow(np.eye(3))
        est = lyapunov_exponent_inverse_flow(flow, num_steps=100)
        assert est.exponent == 0.0

    def test_contracting_direction_dominates_backwards(self):
        # inverse of diag(2, 0.5) is diag(0.5, 2); top singular value 2
        flow = make_linear_flow(np.diag([2.0, 0.5]))
        est = lyapunov_exponent_inverse_flow(flow, num_steps=1000)
        assert abs(est.exponent - math.log(2.0)) <= 1e-4

    def test_converges_tightly_with_many_steps(self):
        flow = make_linear_flow(np.diag([2.0, 0.5, 1.0]))
        est = lyapunov_exponent_inverse_flow(flow, num_steps=5000)
        assert abs(est.exponent - math.log(2.0)) <= 1e-6

    def test_non_normal_flow_tracks_the_spectral_radius(self):
        # the separation rate of a fixed linear map converges to the spectral
        # radius; it coincides with the top singular value only for normal
        # matrices (all flows above are normal, so both readings agree there)
        flow = make_linear_flow(np.array([[2.0, 1.0], [0.0, 0.5]]))
        est = lyapunov_exponent_inverse_flow(flow, num_steps=2000)
        rho_inverse = max(abs(np.linalg.eigvals(flow.inverse)))
        sigma_inverse = np.linalg.svd(flow.inverse, compute_uv=False)[0]
        assert abs(est.exponent - math.log(rho_inverse)) <= 1e-6
        assert sigma_inverse > rho_inverse  # the two readings differ here

    def test_collapsed_separation_reports_minus_infinity(self):
        # unreachable through the factories (they reject singular matrices);
        # exercised by grafting a zero inverse onto a FlowSpec directly
        from delaycond.dynamics import FlowSpec

        broken = FlowSpec(matrix=np.eye(2), inverse=np.zeros((2, 2)))
        est = lyapunov_exponent_inverse_flow(broken, num_steps=20)
        assert est.exponent == -math.inf

    def test_estimate_records_settings(self):
        flow = make_shift_flow(4)
        est = lyapunov_exponent_inverse_flow(flow, num_steps=50, num_probes=2)
        assert est.num_steps == 50
        assert est.num_probes == 2

    def test_probes_start_from_the_unit_seeded_direction(self):
        # the estimate is a function of the flow and the seed alone
        flow = make_linear_flow(np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.3, 1.5]]))
        for seed in (0, 5):
            means = []
            for probe in range(2):
                direction = np.random.default_rng([seed, probe]).standard_normal(3)
                delta = direction / np.linalg.norm(direction)
                logs = []
                for m in range(10 + 30):
                    delta = flow.inverse @ delta
                    gain = float(np.linalg.norm(delta))
                    if m >= 10:
                        logs.append(math.log(gain))
                    delta /= gain
                means.append(float(np.mean(logs)))
            est = lyapunov_exponent_inverse_flow(flow, num_steps=30, num_probes=2, seed=seed)
            assert est.exponent == float(np.mean(means))

    def test_argument_validation(self):
        flow = make_shift_flow(4)
        with pytest.raises(InvalidArgumentError, match="num_steps must be >= 10"):
            lyapunov_exponent_inverse_flow(flow, num_steps=5)
        with pytest.raises(InvalidArgumentError, match="num_probes must be >= 1"):
            lyapunov_exponent_inverse_flow(flow, num_steps=100, num_probes=0)

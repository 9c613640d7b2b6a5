import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaycond import (
    DegeneratePairError,
    DelayParams,
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteTrajectoryError,
    conditioning,
    draw_coeffs,
    draw_stream,
    infimum_soft_rank,
    isometry_ratio,
    make_linear_flow,
    make_shift_flow,
    monte_carlo,
    sample_attractor,
    scaling_study,
    theorem_condition_check,
    trajectory_matrices,
    user_coeffs,
)
from delaycond import embedding_analysis, spectral
from delaycond.config import build_flow, build_samples, load_config
from delaycond.delay_map import (
    delay_vector,
    derive_seed,
    trajectory_vector,
)
from delaycond.dynamics import generate_orbit
from delaycond.embedding_analysis import (
    QUANTILE_LEVELS,
    _exact_ratios,
    _key_values,
    _order_keys,
)
from delaycond.spectral import PairTable, pair_indices

from test_dynamics import PERMUTATION_KINDS, permutation_flow, well_conditioned_flow
from test_spectral import assert_kept_soft_ranks, per_pair_bytes, scan_cases

PAIR_FAMILIES = ("shift basis", "linear gaussian", "permutation integer")


def _no_scan(*args, **kwargs):
    raise AssertionError("the scan ran")


def _no_draw(*args, **kwargs):
    raise AssertionError("a draw ran")


def pair_family(family: str, seed: int):
    """(flow, samples, alpha) of one input family, with at least 2 distinct samples.

    "permutation integer" is a permutation flow with small integer samples
    and coefficients; its pair table gathers from the samples, and every sum
    is an exact integer. On "shift basis" each delay-vector entry is one
    coefficient, exact too, so the one-pair views of every family are the
    n-sample table's values bit for bit.
    """
    rng = np.random.default_rng(seed)
    if family == "shift basis":
        return make_shift_flow(8), np.eye(8)[:5], draw_coeffs("gaussian", 8, seed)
    n = int(rng.integers(2, 9))
    if family == "linear gaussian":
        samples = rng.standard_normal((int(rng.integers(2, 7)), n))
        return well_conditioned_flow(seed, n), samples, user_coeffs(rng.standard_normal(n))
    flow = permutation_flow(PERMUTATION_KINDS[seed % 3], seed, n)
    samples = np.unique(rng.integers(-3, 4, size=(6, n)), axis=0).astype(float)
    return flow, samples, user_coeffs(rng.integers(-2, 3, size=n).astype(float))


class TestIsometryRatio:
    def test_alternating_signs_on_adjacent_shift_pair(self):
        # rows of G_x - G_y are e_m - e_{m+1}; alternating signs dot to +-2,
        # numerator 4M, denominator 2M
        flow = make_shift_flow(4)
        eye = np.eye(4)
        alpha = user_coeffs(np.array([1.0, -1.0, 1.0, -1.0]))
        diag = isometry_ratio(flow, eye[0], eye[1], alpha, DelayParams(2))
        assert diag.ratio == 2.0

    def test_all_ones_annihilates_adjacent_chords(self):
        flow = make_shift_flow(4)
        eye = np.eye(4)
        alpha = user_coeffs(np.ones(4))
        diag = isometry_ratio(flow, eye[0], eye[1], alpha, DelayParams(2))
        assert diag.ratio == 0.0

    def test_denominator_is_the_trajectory_distance(self):
        flow = well_conditioned_flow(10, 5)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        params = DelayParams(3)
        diag = isometry_ratio(flow, x, y, user_coeffs(rng.standard_normal(5)), params)
        tvx = trajectory_vector(flow, x, params)
        tvy = trajectory_vector(flow, y, params)
        traj_sq = np.sum((tvx - tvy) ** 2)
        assert np.isclose(float(np.sum(diag.chord_norms**2)), traj_sq, rtol=1e-13)

    def test_exhaustive_rademacher_mean_is_one(self):
        flow = make_shift_flow(8)
        eye = np.eye(8)
        params = DelayParams(3)
        signs = np.array(
            [[1.0 if (k >> b) & 1 else -1.0 for b in range(8)] for k in range(2**8)]
        )
        for d in (1, 3):
            ratios = [
                isometry_ratio(flow, eye[0], eye[d], user_coeffs(s), params).ratio
                for s in signs
            ]
            assert abs(np.mean(ratios) - 1.0) <= 1e-12

    def test_degenerate_pair_rejected(self):
        flow = make_shift_flow(4)
        x = np.eye(4)[0]
        with pytest.raises(DegeneratePairError):
            isometry_ratio(flow, x, x, user_coeffs(np.ones(4)), DelayParams(2))

    def test_mismatched_pair_is_a_typed_error(self):
        flow = make_shift_flow(4)
        with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
            isometry_ratio(
                flow, np.eye(4)[0], np.ones(3), user_coeffs(np.ones(4)), DelayParams(2)
            )


class TestOnePairViews:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(PAIR_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 10),
    )
    def test_one_pair_functions_read_the_pair_table(self, family, seed, m):
        # bit for bit: the one-pair functions and the scan share one definition
        flow, samples, alpha = pair_family(family, seed)
        assume(samples.shape[0] >= 2)
        params = DelayParams(m)
        ratios = PairTable(flow, samples, params).ratios(alpha.alpha)
        soft_ranks = infimum_soft_rank(PairTable(flow, samples, params)).soft_ranks
        stack = trajectory_matrices(flow, samples, params)
        # a pair in the band takes its own dense value; a pair off the band
        # takes its Gram-screened value (on an exact permutation-flow orbit,
        # that of (0, j - i)), within rounding of its own
        assert_kept_soft_ranks(flow, samples, params, soft_ranks)
        for k, (i, j) in enumerate(zip(*pair_indices(samples.shape[0]))):
            x, y = samples[i], samples[j]
            assert isometry_ratio(flow, x, y, alpha, params).ratio == ratios[k]
        for i, x in enumerate(samples):
            assert np.array_equal(delay_vector(flow, x, alpha, params), stack[i] @ alpha.alpha)


class TestConditioning:
    def test_one_dimensional_flow_is_perfectly_conditioned(self):
        flow = make_linear_flow(np.array([[1.0]]))
        samples = np.array([[1.0], [2.0], [4.0]])
        table = PairTable(flow, samples, DelayParams(3))
        result = conditioning(table, user_coeffs(np.array([1.0])))
        assert result.epsilon == 0.0

    @pytest.mark.parametrize("family", PAIR_FAMILIES)
    @pytest.mark.parametrize("seed", [99, 5, 12])
    def test_epsilon_is_max_deviation_over_pairwise_ratios(self, family, seed):
        flow, samples, alpha = pair_family(family, seed)
        params = DelayParams(3)
        result = conditioning(PairTable(flow, samples, params), alpha)
        deviations = {}
        for i, j in zip(*pair_indices(samples.shape[0])):
            diag = isometry_ratio(flow, samples[i], samples[j], alpha, params)
            deviations[(int(i), int(j))] = abs(diag.ratio - 1.0)
        best = max(deviations.values())
        assert result.epsilon == best
        assert result.worst_pair == min(p for p, dev in deviations.items() if dev == best)

    def test_bit_identical_across_runs(self):
        flow = make_shift_flow(32)
        samples = np.eye(32)
        alpha = draw_coeffs("rademacher", 32, 7)
        a = conditioning(PairTable(flow, samples, DelayParams(8)), alpha)
        b = conditioning(PairTable(flow, samples, DelayParams(8)), alpha)
        assert a.epsilon == b.epsilon and a.worst_pair == b.worst_pair

    def test_adding_samples_never_decreases_epsilon(self):
        flow = make_shift_flow(16)
        alpha = draw_coeffs("rademacher", 16, 3)
        params = DelayParams(4)
        eps_small = conditioning(PairTable(flow, np.eye(16)[:6], params), alpha).epsilon
        eps_large = conditioning(PairTable(flow, np.eye(16)[:12], params), alpha).epsilon
        assert eps_large >= eps_small

    def test_duplicate_samples_rejected(self):
        flow = make_shift_flow(8)
        samples = np.vstack([np.eye(8)[0], np.eye(8)[0]])
        with pytest.raises(DegeneratePairError):
            conditioning(PairTable(flow, samples, DelayParams(2)), user_coeffs(np.ones(8)))

    def test_wrong_length_coefficients_are_a_typed_error(self):
        flow = make_shift_flow(8)
        alpha = user_coeffs(np.ones(3))
        with pytest.raises(DimensionMismatchError, match="length 3"):
            conditioning(PairTable(flow, np.eye(8), DelayParams(2)), alpha)
        with pytest.raises(DimensionMismatchError, match="length 3"):
            isometry_ratio(flow, np.eye(8)[0], np.eye(8)[1], alpha, DelayParams(2))


def large_shift_orbit(scale: float) -> np.ndarray:
    """Six shift-orbit states of (scale, 0, 0, 0.37 scale, 0, 0, 0, 0)."""
    origin = np.zeros(8)
    origin[[0, 3]] = scale, 0.37 * scale
    return generate_orbit(make_shift_flow(8), origin, 6)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "flow, samples, m, ensemble, message",
        [
            (make_linear_flow(0.25 * np.eye(4)), np.eye(4), 600, "rademacher", "not finite"),
            # the squared trajectory distances overflow; at 1e160 the state
            # norms do too, which the coincidence test took for samples 0 and 1
            # coinciding
            (make_shift_flow(8), large_shift_orbit(5e153), 4, "gaussian", "samples 0 and 1"),
            (make_shift_flow(8), large_shift_orbit(1e160), 4, "gaussian", "samples 0 and 1"),
            # the distances are finite, but some measured squared distances overflow
            (make_shift_flow(8), large_shift_orbit(3e153), 4, "gaussian", "ratio"),
        ],
        ids=["inverse-flow", "distance-5e153", "norm-1e160", "ratio-3e153"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:num_delays=:RuntimeWarning")
    def test_overflowing_flow_is_a_typed_error(self, flow, samples, m, ensemble, message):
        # an overflow must surface neither as eps = nan or inf nor as a raw
        # LinAlgError from the SVD; draw 2 is one that overflows at 3e153
        params = DelayParams(m)
        alpha = draw_coeffs(ensemble, flow.ambient_dim, 2)
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            conditioning(PairTable(flow, samples, params), alpha)
        with pytest.raises(NonFiniteTrajectoryError, match=message):
            monte_carlo(
                PairTable(flow, samples, params), draw_stream(ensemble, flow.ambient_dim, 5, 0)
            )

    @pytest.mark.parametrize("n", [7, 9])
    @pytest.mark.parametrize("kind", ["shift", "linear"])
    def test_given_draws_of_the_wrong_length_are_a_typed_error(self, monkeypatch, kind, n):
        # a permutation flow gathers alpha, any other flow multiplies by it;
        # both would fail inside numpy, so every draw is checked before the first
        flow = make_shift_flow(8) if kind == "shift" else well_conditioned_flow(3, 8)
        draws = [draw_coeffs("rademacher", 8, 0), draw_coeffs("rademacher", n, 1)]
        table = PairTable(flow, np.eye(8), DelayParams(2))
        monkeypatch.setattr(table, "ratios", _no_draw)
        with pytest.raises(DimensionMismatchError, match=f"length {n}, flow ambient dimension is 8"):
            monte_carlo(table, draws)

    def test_single_draw_reduces_to_conditioning(self):
        flow = make_shift_flow(16)
        samples = np.eye(16)
        report = monte_carlo(
            PairTable(flow, samples, DelayParams(4)), draw_stream("rademacher", 16, 1, 5)
        )
        assert report.num_draws == 1
        assert len(report.per_draw) == 1
        eps = report.per_draw[0].epsilon
        assert all(v == eps for v in report.quantiles.values())

    def test_per_pair_ratio_mean_concentrates_at_one(self):
        # bounded rows give the ratio unit mean and variance well under 1;
        # 5 standard-error band on 2000 draws
        flow = make_shift_flow(32)
        samples = np.vstack([np.eye(32)[0], np.eye(32)[1]])
        table = PairTable(flow, samples, DelayParams(4))
        draws = draw_stream("rademacher", 32, 2000, 21)
        mean_ratio = float(np.mean([table.ratios(coeffs.alpha)[0] for coeffs in draws]))
        assert abs(mean_ratio - 1.0) <= 5.0 / np.sqrt(2000.0)
        report = monte_carlo(table, draws, keep_per_pair=True)
        assert report.ratio_min[0] <= mean_ratio <= report.ratio_max[0]

    def test_keep_per_pair_keeps_each_draws_ratios(self, monkeypatch):
        # each pair's min, middle values and max, against a hand-built
        # (draws, pairs) stack; 5 pairs per slice of the order keys, whose
        # entries are budgeted at _ENTRY_FLOATS doubles per draw, so the 28
        # pairs span 6 slices and the last holds 3
        flow = make_shift_flow(8)
        table = PairTable(flow, np.eye(8), DelayParams(3))
        for num_draws in (1, 2, 5, 6):
            draws = draw_stream("gaussian", 8, num_draws, 1)
            entry_floats = embedding_analysis._ENTRY_FLOATS * num_draws
            monkeypatch.setattr(spectral, "_CHUNK_BYTES", 5 * 8 * entry_floats)
            chunks = spectral._chunks(table.num_pairs, 1, entry_floats)
            assert [c.stop - c.start for c in chunks] == [5, 5, 5, 5, 5, 3]
            report = monte_carlo(table, draws, keep_per_pair=True)
            ratios = np.stack([table.ratios(coeffs.alpha) for coeffs in draws])
            # the lower and upper middle values, one value for an odd count
            middle = sorted({(num_draws - 1) // 2, num_draws // 2})
            assert report.ratio_min.tobytes() == np.min(ratios, axis=0).tobytes()
            assert report.ratio_mid.shape == (len(middle), 28)
            assert report.ratio_mid.tobytes() == np.stack(
                [np.partition(ratios, k, axis=0)[k] for k in middle]
            ).tobytes()
            assert report.ratio_max.tobytes() == np.max(ratios, axis=0).tobytes()
            plain = monte_carlo(table, draws)
            assert plain.ratio_min is plain.ratio_mid is plain.ratio_max is None
            assert np.array_equal(plain.epsilons, report.epsilons)

    def test_failure_rate_at_the_median_is_a_coin_flip(self):
        flow = make_shift_flow(32)
        report = monte_carlo(
            PairTable(flow, np.eye(32), DelayParams(8)), draw_stream("gaussian", 32, 200, 13)
        )
        median = report.quantiles[0.5]
        assert abs(report.failure_rate(median) - 0.5) <= 0.05

    def test_failure_rate_is_monotone_non_increasing(self):
        flow = make_shift_flow(16)
        report = monte_carlo(
            PairTable(flow, np.eye(16), DelayParams(4)), draw_stream("gaussian", 16, 60, 2)
        )
        grid = np.linspace(0.0, 3.0, 31)
        rates = [report.failure_rate(g) for g in grid]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_quantiles_are_ordered(self):
        flow = make_shift_flow(16)
        report = monte_carlo(
            PairTable(flow, np.eye(16), DelayParams(4)), draw_stream("gaussian", 16, 50, 4)
        )
        levels = sorted(report.quantiles)
        values = [report.quantiles[q] for q in levels]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("num_draws", [1, 6, 7])
    @pytest.mark.parametrize("ensemble", ["rademacher", "gaussian"])
    def test_quantiles_are_those_of_the_draws_eps(self, ensemble, num_draws):
        table = PairTable(make_shift_flow(16), np.eye(16), DelayParams(4))
        draws = draw_stream(ensemble, 16, num_draws, 3)
        report = monte_carlo(table, draws)
        eps = np.array([conditioning(table, coeffs).epsilon for coeffs in draws])
        assert report.epsilons.tobytes() == eps.tobytes()
        assert list(report.quantiles) == list(QUANTILE_LEVELS)
        for q, value in report.quantiles.items():
            assert np.float64(value).tobytes() == np.float64(np.quantile(eps, q)).tobytes()

    def test_threaded_run_matches_sequential_bitwise(self):
        # the threads split the scan, which the caller runs on the table the
        # draws then read
        flow = make_shift_flow(32)
        samples = np.eye(32)
        draws = draw_stream("rademacher", 32, 40, 6)
        seq_table = PairTable(flow, samples, DelayParams(8))
        par_table = PairTable(flow, samples, DelayParams(8))
        seq_scan, par_scan = infimum_soft_rank(seq_table), infimum_soft_rank(par_table, threads=4)
        assert (seq_scan.infimum, seq_scan.argmin_pair) == (par_scan.infimum, par_scan.argmin_pair)
        assert seq_scan.soft_ranks.tobytes() == par_scan.soft_ranks.tobytes()
        seq, par = monte_carlo(seq_table, draws), monte_carlo(par_table, draws)
        assert np.array_equal(seq.epsilons, par.epsilons)
        assert [r.worst_pair for r in seq.per_draw] == [r.worst_pair for r in par.per_draw]

    @pytest.mark.parametrize("keep_per_pair", [False, True])
    def test_draws_run_no_scan(self, monkeypatch, keep_per_pair):
        # the soft ranks are the caller's scan of the table, never rerun by the draws
        table = PairTable(make_shift_flow(16), np.eye(16), DelayParams(4))
        draws = draw_stream("rademacher", 16, 3, 1)
        expected = monte_carlo(table, draws, keep_per_pair=keep_per_pair)
        monkeypatch.setattr(spectral, "_screened_soft_ranks", _no_scan)
        monkeypatch.setattr(spectral, "_dense_soft_ranks", _no_scan)
        report = monte_carlo(table, draws, keep_per_pair=keep_per_pair)
        assert report.epsilons.tobytes() == expected.epsilons.tobytes()
        assert report.quantiles == expected.quantiles
        if keep_per_pair:
            assert per_pair_bytes(report) == per_pair_bytes(expected)

    def test_no_draws_is_a_typed_error(self, monkeypatch):
        table = PairTable(make_shift_flow(8), np.eye(8), DelayParams(2))
        monkeypatch.setattr(table, "ratios", _no_draw)
        with pytest.raises(InvalidArgumentError, match="at least one coefficient draw"):
            monte_carlo(table, [])


def dense_order_statistics(table, draws):
    """Each pair's min, one or two middle ratios and max, from a hand-built (draws, pairs) block."""
    block = np.stack([table.ratios(coeffs.alpha) for coeffs in draws])
    middle = sorted({(len(draws) - 1) // 2, len(draws) // 2})
    return [
        np.min(block, axis=0),
        np.stack([np.partition(block, k, axis=0)[k] for k in middle]),
        np.max(block, axis=0),
    ]


@st.composite
def per_pair_cases(draw):
    """A pair table, its draws and the pairs per slice of the report's order keys.

    A shift orbit of basis states, the same states shuffled and rescaled,
    or a random linear flow. On the shift, M = 12 in about half the cases:
    Rademacher ratios are then h/6, repeated over the draws and mostly
    inexact, so the middle keys are odd and their classes large. Gaussian
    or Rademacher draws, 1, 2 or 3 of them or up to 41; 1, 2, 3 or 7 pairs
    per slice, or the default budget.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["orbit", "shuffled", "linear"]))
    if kind == "linear":
        n = draw(st.integers(2, 8))
        flow = well_conditioned_flow(seed, n)
        samples = rng.standard_normal((draw(st.integers(2, 10)), n))
        m = draw(st.integers(1, n + 3))
    else:
        n = draw(st.integers(2, 16))
        flow = make_shift_flow(n)
        samples = np.eye(n)
        if kind == "shuffled":
            samples = samples[rng.permutation(n)] * rng.uniform(0.5, 2.0, (n, 1))
        m = 12 if draw(st.booleans()) else draw(st.integers(1, n + 3))
    num_draws = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 41))
    draws = draw_stream(draw(st.sampled_from(["gaussian", "rademacher"])), n, num_draws, seed)
    pairs_per_slice = draw(st.sampled_from([1, 2, 3, 7, None]))
    return PairTable(flow, samples, DelayParams(m)), draws, pairs_per_slice


class TestPerPairOrderStatistics:
    """The report's per-pair min, middle values and max against a dense (draws, pairs) block."""

    @settings(max_examples=150, deadline=None)
    @given(case=per_pair_cases())
    def test_bit_equal_to_the_dense_block(self, case):
        table, draws, pairs_per_slice = case
        with pytest.MonkeyPatch.context() as mp:
            if pairs_per_slice is not None:
                mp.setattr(
                    spectral,
                    "_CHUNK_BYTES",
                    pairs_per_slice * 8 * embedding_analysis._ENTRY_FLOATS * len(draws),
                )
            report = monte_carlo(table, draws, keep_per_pair=True)
        assert per_pair_bytes(report) == [a.tobytes() for a in dense_order_statistics(table, draws)]

    def test_tied_inexact_classes_are_formed_again(self, monkeypatch):
        # Rademacher ratios h/6 on 16 basis states at M = 12: some pairs'
        # middle values are 5/6 or 7/6, inexact and repeated over many draws
        formed = []

        def recording_exact_ratios(table, draws, draw_idx, pairs):
            formed.append(pairs)
            return _exact_ratios(table, draws, draw_idx, pairs)

        monkeypatch.setattr(embedding_analysis, "_exact_ratios", recording_exact_ratios)
        table = PairTable(make_shift_flow(16), np.eye(16), DelayParams(12))
        for num_draws in (40, 41):
            draws = draw_stream("rademacher", 16, num_draws, 2)
            report = monte_carlo(table, draws, keep_per_pair=True)
            assert per_pair_bytes(report) == [
                a.tobytes() for a in dense_order_statistics(table, draws)
            ]
        # a pair whose middle class holds at least 5 draws
        assert max(np.bincount(pairs).max() for pairs in formed) >= 5

    def test_mixed_middle_keys(self, monkeypatch):
        # on 8 basis states at M = 4 a Rademacher ratio is h/8, an even key,
        # and a Gaussian one mostly an odd key: with one of each every pair's
        # two middle keys are one even and one odd, and with 2 more
        # Rademacher draws 15 of the 28 pairs' are
        formed = []

        def recording_exact_ratios(table, draws, draw_idx, pairs):
            formed.append(pairs)
            return _exact_ratios(table, draws, draw_idx, pairs)

        monkeypatch.setattr(embedding_analysis, "_exact_ratios", recording_exact_ratios)
        table = PairTable(make_shift_flow(8), np.eye(8), DelayParams(4))
        mixed_pairs = {(): 28, (5, 6): 15}
        for extra, num_mixed in mixed_pairs.items():
            draws = [draw_coeffs("rademacher", 8, 3), draw_coeffs("gaussian", 8, 4)]
            draws += [draw_coeffs("rademacher", 8, seed) for seed in extra]
            formed.clear()
            report = monte_carlo(table, draws, keep_per_pair=True)
            expected = dense_order_statistics(table, draws)
            assert per_pair_bytes(report) == [a.tobytes() for a in expected]
            keys = np.sort(_order_keys(np.stack([table.ratios(c.alpha) for c in draws])), axis=0)
            low, high = (len(draws) - 1) // 2, len(draws) // 2
            mixed = np.flatnonzero(keys[low] % 2 != keys[high] % 2)
            assert mixed.size == num_mixed
            assert set(mixed) <= set(np.concatenate(formed))

    def test_shipped_report_forms_no_ratio_again(self, monkeypatch):
        # its Rademacher ratios are h/8, so every middle key is exact
        config = load_config(
            os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs", "shift_report.cfg")
        )
        flow = build_flow(config)
        samples, _, _ = build_samples(config, flow)
        table = PairTable(flow, samples, DelayParams(config.delays[0]))
        draws = draw_stream(config.ensemble, flow.ambient_dim, config.num_draws, config.base_seed)
        expected = dense_order_statistics(table, draws)
        monkeypatch.setattr(embedding_analysis, "_exact_ratios", _no_draw)
        report = monte_carlo(table, draws, keep_per_pair=True)
        assert per_pair_bytes(report) == [a.tobytes() for a in expected]

    def test_ratios_outside_the_key_binades(self):
        # user coefficients scaled so that middle ratios fall below 2^-24 and
        # above 65 504, past both ends of the keys' binades (2^-15 to just
        # below 2^17), or spread across them; nothing warns
        table = PairTable(make_shift_flow(8), np.eye(8), DelayParams(3))
        base = draw_stream("gaussian", 8, 6, 5)
        middle = []
        for scales in ((1e-7, 1e-7, 1e-6, 1e-6, 1e-7), (1e3, 1e4, 1e4, 1e3), (1e-7, 1e-6, 1.0, 1e4, 1e4, 1e3)):
            draws = [user_coeffs(s * coeffs.alpha) for s, coeffs in zip(scales, base)]
            expected = dense_order_statistics(table, draws)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = monte_carlo(table, draws, keep_per_pair=True)
            assert per_pair_bytes(report) == [a.tobytes() for a in expected]
            middle.append(expected[1])
        middle = np.concatenate(middle, axis=None)
        assert np.min(middle) < 2.0**-24 and np.max(middle) > 2.0**17

    def test_kept_values_hold_well_under_the_ratio_block(self):
        # 400 draws over 64 samples of a linear flow, whose middle keys are
        # odd and formed again: a float64 (draws, pairs) block alone would
        # be 8 bytes per draw and pair
        flow = well_conditioned_flow(5, 8)
        table = PairTable(flow, np.random.default_rng(0).standard_normal((64, 8)), DelayParams(4))
        draws = draw_stream("gaussian", 8, 400, 1)
        tracemalloc.start()
        try:
            monte_carlo(table, draws, keep_per_pair=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(draws) * table.num_pairs

    @settings(max_examples=300, deadline=None)
    @given(
        ratios=st.lists(
            st.floats(0.0, 1e308, allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, 2.0**-15, 1.0, 65504.0, 2.0**17, float(embedding_analysis._KEY_HIGH)]),
            min_size=2,
            max_size=40,
        )
    )
    def test_keys_are_monotone_and_even_keys_exact(self, ratios):
        ratios = np.sort(np.array(ratios))
        keys = _order_keys(ratios)
        assert keys.dtype == np.uint16
        assert np.all(keys[:-1] <= keys[1:])
        even = keys % 2 == 0
        assert np.array_equal(_key_values(keys[even]), ratios[even])
        # an odd key's ratio lies strictly between the values of the even
        # keys around it; key 1 is every ratio below 2^-15, the top key
        # every ratio above the top even key's value
        above_bottom = ~even & (keys > 1)
        assert np.all(_key_values(keys[above_bottom] - 1) < ratios[above_bottom])
        below_top = ~even & (keys < np.iinfo(np.uint16).max)
        assert np.all(ratios[below_top] < _key_values(keys[below_top] + 1))
        assert np.all((keys == 1) == (ratios < 2.0**-15))

    @settings(max_examples=80, deadline=None)
    @given(case=scan_cases(), pick=st.data())
    def test_entries_are_formed_again_bit_for_bit(self, case, pick):
        flow, samples, params, _ = case
        table = PairTable(flow, samples, params)
        ensemble = pick.draw(st.sampled_from(["gaussian", "rademacher"]))
        draws = draw_stream(ensemble, flow.ambient_dim, 4, pick.draw(st.integers(0, 99)))
        entries = st.tuples(st.integers(0, 3), st.integers(0, table.num_pairs - 1))
        draw_idx, pairs = map(np.array, zip(*pick.draw(st.lists(entries, min_size=1, max_size=30))))
        block = np.stack([table.ratios(coeffs.alpha) for coeffs in draws])
        assert _exact_ratios(table, draws, draw_idx, pairs).tobytes() == block[draw_idx, pairs].tobytes()


def study_reports(flow, samples, m_list, draws):
    """One ``monte_carlo`` report per M, each on its own table, with the same draws."""
    return [monte_carlo(PairTable(flow, samples, DelayParams(m)), draws) for m in m_list]


class TestEpsCeiling:
    """The shift from a basis state with Rademacher draws: each delay vector is a
    window w of M signs, and a pair's ratio ||w_i - w_j||^2 / 2M lies in [0, 2].
    So eps <= 1, with equality when two windows are equal or opposite, which
    pigeonhole forces once n > 2^(M - 1)."""

    @staticmethod
    def basis_table(n: int, m: int) -> PairTable:
        flow = make_shift_flow(n)
        return PairTable(flow, sample_attractor(flow, np.eye(n)[0], n).states, DelayParams(m))

    def test_every_sign_vector_is_at_the_ceiling_at_n16_m4(self):
        # 16 windows of 4 signs, but only 8 patterns up to sign
        signs = 1.0 - 2.0 * ((np.arange(2**16)[:, None] >> np.arange(16)) & 1)
        report = monte_carlo(self.basis_table(16, 4), [user_coeffs(alpha) for alpha in signs])
        assert report.num_draws == 2**16
        assert np.all(report.epsilons == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_eps_is_at_most_one(self, n, data, seed):
        m = data.draw(st.integers(1, n), label="m")
        report = monte_carlo(
            self.basis_table(n, m), draw_stream("rademacher", n, 8, seed), keep_per_pair=True
        )
        assert np.all(report.ratio_min >= 0.0) and np.all(report.ratio_max <= 2.0)
        assert report.eps_max <= 1.0
        if n > 2 ** (m - 1):
            assert np.all(report.epsilons == 1.0)


class TestScalingStudy:
    def test_small_shift_study(self):
        # gaussian draws keep eps continuous; sign draws saturate |ratio - 1|
        # at 1 for small M, flattening the medians
        flow = make_shift_flow(64)
        m_list = [4, 8, 16]
        reports = study_reports(flow, np.eye(64), m_list, draw_stream("gaussian", 64, 50, 3))
        medians = [report.quantiles[0.5] for report in reports]
        study = scaling_study(m_list, medians)
        assert study.slope < 0.0
        assert all(a > b for a, b in zip(medians, medians[1:]))
        for m, report in zip(m_list, reports):
            q = report.quantiles
            assert infimum_soft_rank(PairTable(flow, np.eye(64), DelayParams(m))).infimum >= (
                m / 2.0 - 1e-9
            )
            assert q[0.05] <= q[0.5] <= q[0.95] <= report.eps_max

    @pytest.mark.parametrize("ensemble", ["rademacher", "gaussian"])
    def test_matches_a_naive_pair_by_pair_study(self, ensemble):
        # plain numpy: literal backward iteration of a hand-built shift, one
        # pair at a time, with the library's draws keyed by derive_seed
        n, m_list, num_draws, seed = 16, [2, 4, 8], 20, 7
        phi = np.zeros((n, n))
        for i in range(n - 1):
            phi[i, i + 1] = 1.0
        phi[n - 1, 0] = 1.0
        phi_inv = np.linalg.inv(phi)
        samples = np.eye(n)
        reports = study_reports(
            make_shift_flow(n), samples, m_list, draw_stream(ensemble, n, num_draws, seed)
        )
        naive_medians = []
        for m, report in zip(m_list, reports):
            gs = []
            for x in samples:
                rows, cur = [], x.copy()
                for _ in range(m):
                    rows.append(cur.copy())
                    cur = phi_inv @ cur
                gs.append(np.array(rows))
            eps = []
            for k in range(num_draws):
                alpha = draw_coeffs(ensemble, n, derive_seed(seed, k)).alpha
                worst = 0.0
                for i in range(n):
                    for j in range(i + 1, n):
                        diff = gs[i] - gs[j]
                        ratio = np.sum((diff @ alpha) ** 2) / np.sum(diff**2)
                        worst = max(worst, abs(ratio - 1.0))
                eps.append(worst)
            np.testing.assert_allclose(report.epsilons, eps, rtol=1e-12, atol=0)
            np.testing.assert_allclose(report.quantiles[0.5], np.median(eps), rtol=1e-12, atol=0)
            np.testing.assert_allclose(report.eps_max, np.max(eps), rtol=1e-12, atol=0)
            naive_medians.append(np.median(eps))
        # the fit itself, against numpy's least-squares line
        study = scaling_study(m_list, [report.quantiles[0.5] for report in reports])
        naive_slope = np.polyfit(np.log(m_list), np.log(naive_medians), 1)[0]
        np.testing.assert_allclose(study.slope, naive_slope, rtol=1e-10, atol=1e-12)

    def test_single_m_cannot_fit(self):
        with pytest.raises(InvalidArgumentError, match="at least 2 delay counts"):
            scaling_study([4], [0.5])

    def test_m_list_must_ascend(self):
        with pytest.raises(InvalidArgumentError, match="ascending"):
            scaling_study([8, 4], [0.4, 0.5])

    def test_one_median_per_m(self):
        with pytest.raises(InvalidArgumentError, match="one median per delay count"):
            scaling_study([4, 8, 16], [0.5, 0.4])

    def test_two_delay_counts_have_no_stderr(self):
        study = scaling_study([4, 16], [0.5, 0.25])
        assert study.slope == pytest.approx(-0.5, rel=1e-12)
        assert math.isnan(study.slope_stderr)

    @pytest.mark.parametrize(
        "m_list, medians, named",
        [
            ([2, 4, 8], [0.5, -0.3, 0.2], "is -0.3 at M = 4"),
            ([2, 4, 8], [0.5, math.inf, 0.2], "is inf at M = 4"),
            ([2, 4, 8], [0.5, 0.3, math.nan], "is nan at M = 8"),
            ([0, 4, 8], [0.5, 0.3, 0.2], "is 0.5 at M = 0"),
            ([-2, 4, 8], [0.5, 0.3, 0.2], "is 0.5 at M = -2"),
        ],
        ids=["negative median", "inf median", "NaN median", "M of 0", "negative M"],
    )
    def test_log_undefined_inputs_name_their_m(self, m_list, medians, named):
        with pytest.raises(InvalidArgumentError, match=f"median eps over the draws {named}"):
            scaling_study(m_list, medians)

    def test_zero_median_eps_names_its_m(self):
        # at M = N = 4 the trajectory matrices are circulant permutations, so
        # a pair at separation d has ratio 1 - c_d / 4, with c_d the circular
        # autocorrelation of alpha; draw 0 of the stream at base seed 1,
        # (-1, -1, 1, -1), has c_d = 0 at every lag, so every ratio is exactly 1
        flow = make_shift_flow(4)
        m_list = [2, 3, 4]
        reports = study_reports(flow, np.eye(4), m_list, draw_stream("rademacher", 4, 1, 1))
        with pytest.raises(InvalidArgumentError, match="median eps over the draws is 0 at M = 4"):
            scaling_study(m_list, [report.quantiles[0.5] for report in reports])


class TestTheoremConditionCheck:
    def test_large_soft_rank_dominates(self):
        check = theorem_condition_check(
            infimum_soft_rank=1000.0,
            epsilon=0.5,
            manifold_dim=1.0,
            volume=10.0,
            reach=1.0,
            c_user=1.0,
        )
        assert check.satisfied and not check.degenerate

    def test_unit_soft_rank_fails(self):
        check = theorem_condition_check(
            infimum_soft_rank=1.0,
            epsilon=0.5,
            manifold_dim=1.0,
            volume=float(np.e),
            reach=1.0,
            c_user=1.0,
        )
        assert not check.satisfied
        assert check.required_soft_rank > 1.0

    def test_vanishing_epsilon_eventually_fails(self):
        kwargs = dict(
            infimum_soft_rank=1000.0,
            manifold_dim=1.0,
            volume=10.0,
            reach=1.0,
            c_user=1.0,
        )
        assert theorem_condition_check(epsilon=0.5, **kwargs).satisfied
        assert not theorem_condition_check(epsilon=1e-4, **kwargs).satisfied

    def test_degenerate_log_argument_flagged(self):
        check = theorem_condition_check(
            infimum_soft_rank=1.0,
            epsilon=0.5,
            manifold_dim=1.0,
            volume=0.1,
            reach=10.0,
            c_user=1.0,
        )
        assert check.degenerate and not check.satisfied

    def test_volume_assumption_enforced(self):
        # condition on the soft rank holds, volume assumption does not
        check = theorem_condition_check(
            infimum_soft_rank=1000.0,
            epsilon=0.5,
            manifold_dim=2.0,
            volume=3.0,
            reach=10.0,
            c_user=1.0,
        )
        assert not check.degenerate
        assert not check.satisfied

    def test_non_positive_inputs_rejected(self):
        good = dict(
            infimum_soft_rank=10.0,
            epsilon=0.5,
            manifold_dim=1.0,
            volume=1.0,
            reach=1.0,
            c_user=1.0,
        )
        for key in good:
            bad = dict(good)
            bad[key] = 0.0
            with pytest.raises(InvalidArgumentError):
                theorem_condition_check(**bad)
        # numpy scalars are real numbers too
        numpy_typed = dict(good, infimum_soft_rank=np.int64(10), reach=np.float32(1.0))
        assert theorem_condition_check(**numpy_typed) == theorem_condition_check(**good)

    @pytest.mark.parametrize(
        "overrides, term",
        [
            ({"manifold_dim": 0.001}, "volume^(1/manifold_dim)"),  # float power raises
            ({"reach": 5e-324}, "volume^(1/manifold_dim) / reach"),  # a quotient goes to inf
            ({"epsilon": 1e-200}, "epsilon^-2"),
            ({"c_user": 1e300, "epsilon": 1e-10}, "required_soft_rank"),
            ({"manifold_dim": 2000.0, "reach": 2.0}, "c_user * reach^manifold_dim"),
        ],
        ids=["volume", "reach", "epsilon", "product", "volume-floor"],
    )
    def test_overflowing_term_is_a_typed_error(self, overrides, term):
        good = dict(
            infimum_soft_rank=1000.0, epsilon=0.5, manifold_dim=1.0, volume=10.0, reach=1.0,
            c_user=1.0,
        )
        with pytest.raises(InvalidArgumentError, match=re.escape(term) + ".* overflows"):
            theorem_condition_check(**dict(good, **overrides))
        # where nothing overflows, the formula's own bits
        required = 1.0 * 0.5**-2 * 1.0 * math.log(math.sqrt(1000.0) * 10.0 ** (1.0 / 1.0) / 1.0)
        assert theorem_condition_check(**good).required_soft_rank == required

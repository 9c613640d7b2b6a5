"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings on a passing run.
"""

import hashlib
import itertools
import math
import os
import time

import numpy as np
import pytest

from delaycond import (
    DelayParams,
    PairTable,
    draw_stream,
    infimum_soft_rank,
    lyapunov_exponent_inverse_flow,
    make_linear_flow,
    make_shift_flow,
    monte_carlo,
    scaling_study,
    shift_system_oracle,
    soft_rank,
    trajectory_matrices,
    trajectory_matrix,
    trajectory_vector,
    user_coeffs,
)
from delaycond.config import load_config
from delaycond.delay_map import delay_vector
from delaycond.geometry import curve_volume, reach_estimate
from delaycond.runner import run_full_report, run_scaling_study

from test_dynamics import well_conditioned_flow

# Slack for bound comparisons where the bound is attained exactly and only
# floating-point noise can cross it (e.g. N=32, M=32, d=16 gives soft rank
# M/2 exactly).
EXACT_BOUND_SLACK = 1e-9


def matrix_rank_of(result):
    """Number of singular values above 1e-10 times the largest."""
    return int(np.sum(result.singular_values > 1e-10 * result.singular_values[0]))


def report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num} ({name}): {status} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s] {detail}"
    )


def test_criterion_1_shift_bound_reproduction():
    """Every basis pair of the 32-state shift obeys soft rank >= M/2."""
    start = time.time()
    flow = make_shift_flow(32)
    samples = np.eye(32)
    violations = 0
    infima = {}
    for m in (2, 4, 8, 16, 32):
        scan = infimum_soft_rank(PairTable(flow, samples, DelayParams(m)))
        assert scan.num_pairs == 32 * 31 // 2
        violations += int(np.sum(scan.soft_ranks < m / 2.0 - EXACT_BOUND_SLACK))
        infima[m] = scan.infimum
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 10.0
    report(1, "shift soft-rank bound", ok, elapsed, 10,
           f"violations={violations} infima={ {m: round(v, 4) for m, v in infima.items()} }")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_2_circulant_oracle_agreement():
    """Analytic oracle matches dense SVD within 1e-10 over its whole range."""
    start = time.time()
    worst = 0.0
    for n in range(2, 33):
        flow = make_shift_flow(n)
        eye = np.eye(n)
        stack = {m: trajectory_matrices(flow, eye, DelayParams(m)) for m in range(1, n + 1)}
        for m in range(1, n + 1):
            for d in range(1, n):
                dense = soft_rank(stack[m][0] - stack[m][d]).value
                oracle = shift_system_oracle(n, m, d).value
                worst = max(worst, abs(dense - oracle))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(2, "circulant oracle agreement", ok, elapsed, 60, f"max disagreement={worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_3_conditioning_scaling():
    """Median eps scales like M^(-1/2) for the 256-state shift."""
    start = time.time()
    flow = make_shift_flow(256)
    samples = np.eye(256)
    m_list = [8, 16, 32, 64]
    draws = draw_stream("rademacher", 256, 200, 12345)
    medians = [
        monte_carlo(PairTable(flow, samples, DelayParams(m)), draws).quantiles[0.5]
        for m in m_list
    ]
    study = scaling_study(m_list, medians)
    strictly_decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    elapsed = time.time() - start
    ok = -0.65 <= study.slope <= -0.35 and strictly_decreasing and elapsed < 300.0
    report(3, "conditioning scaling", ok, elapsed, 300,
           f"slope={study.slope:.4f} medians={[round(v, 4) for v in medians]}")
    assert -0.65 <= study.slope <= -0.35
    assert strictly_decreasing
    assert elapsed < 300.0


def test_criterion_4_rademacher_isotropy_identity():
    """Exhaustive sign enumeration gives mean isometry ratio 1 per pair."""
    start = time.time()
    worst = 0.0
    for n in (4, 8, 12):
        flow = make_shift_flow(n)
        signs = np.array(
            [[1.0 if (k >> b) & 1 else -1.0 for b in range(n)] for k in range(2**n)]
        )
        for m in (2, n // 2):
            stack = trajectory_matrices(flow, np.eye(n), DelayParams(m))
            for i, j in itertools.combinations(range(n), 2):
                diff = stack[i] - stack[j]
                measured = diff @ signs.T  # (m, 2^n)
                ratios = np.sum(measured * measured, axis=0) / float(np.sum(diff * diff))
                worst = max(worst, abs(float(np.mean(ratios)) - 1.0))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(4, "exhaustive isotropy identity", ok, elapsed, 30, f"max |mean-1|={worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_5_algebraic_identities():
    """Factorization, reshape, scale-invariance, and soft-rank bounds."""
    start = time.time()
    rng = np.random.default_rng(2024)

    # delay vector equals trajectory matrix times coefficients, 1e-12 relative
    worst_fact = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 10))
        flow = well_conditioned_flow(int(rng.integers(0, 2**31)), n)
        x = rng.standard_normal(n)
        alpha = user_coeffs(rng.standard_normal(n))
        direct = delay_vector(flow, x, alpha, DelayParams(m))
        via = trajectory_matrix(flow, x, DelayParams(m)) @ alpha.alpha
        worst_fact = max(
            worst_fact, float(np.linalg.norm(direct - via) / np.linalg.norm(via))
        )

    # trajectory-vector distance equals Frobenius distance, as computed sums
    exact_frobenius = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 8))
        flow = well_conditioned_flow(int(rng.integers(0, 2**31)), n)
        params = DelayParams(m)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        tvx = trajectory_vector(flow, x, params)
        tvy = trajectory_vector(flow, y, params)
        diff_mat = trajectory_matrix(flow, x, params) - trajectory_matrix(flow, y, params)
        vec_mat = (tvx - tvy).reshape(m, n)
        vec_sq = np.sum(np.einsum("mn,mn->m", vec_mat, vec_mat))
        fro_sq = np.sum(np.einsum("mn,mn->m", diff_mat, diff_mat))
        exact_frobenius = exact_frobenius and (vec_sq == fro_sq)

    # scale invariance of the soft rank
    worst_scale = 0.0
    for _ in range(200):
        g = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        c = float(rng.uniform(1e-6, 1e6)) * (1 if rng.integers(2) else -1)
        base = soft_rank(g).value
        worst_scale = max(worst_scale, abs(soft_rank(c * g).value - base) / base)

    # bounds on 1000 random matrices
    bounds_ok = True
    for _ in range(1000):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        res = soft_rank(rng.standard_normal((m, n)))
        rank = matrix_rank_of(res)
        bounds_ok = bounds_ok and (1.0 - 1e-12 <= res.value <= rank + 1e-9 and rank <= min(m, n))

    elapsed = time.time() - start
    ok = (
        worst_fact <= 1e-12
        and exact_frobenius
        and worst_scale <= 1e-12
        and bounds_ok
        and elapsed < 30.0
    )
    report(5, "algebraic identities", ok, elapsed, 30,
           f"fact={worst_fact:.2e} frobenius_exact={exact_frobenius} scale={worst_scale:.2e}")
    assert worst_fact <= 1e-12
    assert exact_frobenius
    assert worst_scale <= 1e-12
    assert bounds_ok
    assert elapsed < 30.0


def test_criterion_6_geometry_estimators():
    """Circle reach, circle arc length, inverse-flow Lyapunov exponent."""
    start = time.time()

    theta = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
    pts = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    reach = reach_estimate(pts, tangents).value
    reach_ok = abs(reach - 3.0) <= 0.01 * 3.0

    theta = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    volume = curve_volume(circle, closed=True)
    volume_ok = abs(volume - 2.0 * np.pi) <= 1e-3 * 2.0 * np.pi

    flow = make_linear_flow(np.diag([2.0, 0.5]))
    est = lyapunov_exponent_inverse_flow(flow, num_steps=1000)
    lyap_ok = abs(est.exponent - math.log(2.0)) <= 1e-4

    elapsed = time.time() - start
    ok = reach_ok and volume_ok and lyap_ok and elapsed < 10.0
    report(6, "geometry estimators", ok, elapsed, 10,
           f"reach={reach:.4f} volume={volume:.6f} lyapunov={est.exponent:.8f}")
    assert reach_ok
    assert volume_ok
    assert lyap_ok
    assert elapsed < 10.0


def _digest_data_files(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "run_manifest.json":  # carries the timestamp
            continue
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_criterion_7_byte_identical_reruns(tmp_path):
    """Identical config and version give byte-identical data files."""
    start = time.time()
    config_text = (
        "kind = shift\nambient_dim = 16\nnum_samples = 16\n"
        "ensemble = rademacher\nnum_draws = 20\nbase_seed = 99\n"
    )
    scaling_cfg = tmp_path / "scaling.cfg"
    scaling_cfg.write_text(config_text + "delays = 2,4,8\n", encoding="utf-8")
    report_cfg = tmp_path / "report.cfg"
    report_cfg.write_text(config_text + "delays = 4\n", encoding="utf-8")

    digests = []
    for run, threads in (("s1", 1), ("s2", 4), ("s3", 1)):
        out = str(tmp_path / f"scaling_{run}")
        run_scaling_study(load_config(str(scaling_cfg)), out, threads=threads)
        digests.append(_digest_data_files(out))
    scaling_ok = digests[0] == digests[1] == digests[2]

    digests = []
    for run, threads in (("r1", 1), ("r2", 4)):
        out = str(tmp_path / f"report_{run}")
        run_full_report(load_config(str(report_cfg)), out, threads=threads)
        digests.append(_digest_data_files(out))
    report_ok = digests[0] == digests[1]

    elapsed = time.time() - start
    ok = scaling_ok and report_ok
    report_budget = 120
    report(7, "byte-identical reruns", ok, elapsed, report_budget,
           f"scaling={scaling_ok} report={report_ok}")
    assert scaling_ok
    assert report_ok

"""The benchmark's workloads and the seeded inputs each one runs on.

Every workload is one ``delaycond`` CLI subcommand on one config. The
benchmark seed reaches the program only as ``--seed`` and, for
``report_linear64``, through the flow matrix generated here; the same seed
always yields byte-identical input files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One named CLI run.

    ``write_inputs(directory, seed)`` writes the config (and any data file it
    names) into ``directory`` and returns the config path. ``delays`` and
    ``num_samples`` are what the output check expects to find in the
    reports. ``seed_dependent`` says whether the data files change with the
    seed; when they do not, one stored reference serves every seed.
    """

    name: str
    subcommand: str
    write_inputs: Callable[[str, int], str]
    delays: tuple[int, ...]
    num_samples: int
    seed_dependent: bool


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# The shipped scripts/configs/shift_scaling.cfg without M = 64, pinned here so
# that a later edit of the shipped file cannot change what this workload
# measures. M = 64 alone is about 50 s of SVD on a 2-core machine; with it, a
# run takes 60-110 s, and the runs the benchmark needs per workload would
# leave the others too little time per run to be steady.
SCALING_SHIFT256_CFG = """\
kind = shift
ambient_dim = 256
origin = e1
num_samples = 256
delays = 8, 16, 32
ensemble = rademacher
num_draws = 200
base_seed = 12345
outputs = results/shift_scaling
"""

# M = N = 128 is left out: that step alone is about 28 s of SVD and would
# turn this workload into a second scaling run.
LEMMA_SHIFT128_CFG = """\
kind = shift
ambient_dim = 128
origin = e1
num_samples = 128
delays = 2, 4, 8, 16, 32
base_seed = 7
outputs = results/lemma_shift128
"""

REPORT_LINEAR64_CFG = """\
kind = linear
matrix_path = flow64.csv
origin = e1
num_samples = 128
delays = 16
ensemble = gaussian
num_draws = 2000
base_seed = 0
c_user = 1.0
manifold_dim = 1.0
outputs = results/report_linear64
"""


def linear64_matrix(seed: int) -> np.ndarray:
    """Non-orthogonal flow A = S R S^-1 on R^64 drawn from ``seed``.

    R is block-diagonal with 2x2 rotations by random angles, so no orbit
    wraps within the sampled length; S has singular values spread evenly
    over [1, 2], so cond(S) = 2 and every orbit of a unit state keeps its
    norm in [0.5, 2].
    """
    n = 64
    rng = np.random.default_rng([seed, n])
    angles = rng.uniform(0.1, np.pi - 0.1, size=n // 2)
    rot = np.zeros((n, n))
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        rot[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sing = np.linspace(1.0, 2.0, n)
    s_mat = (u * sing) @ v.T
    s_inv = (v / sing) @ u.T
    return s_mat @ rot @ s_inv


def _check_linear64(matrix: np.ndarray, num_samples: int) -> None:
    """Raise unless the flow is non-orthogonal, never wraps and stays bounded."""
    # delaycond is importable only once run.py has put the checkout's src on the path
    from delaycond.dynamics import make_linear_flow
    from delaycond.geometry import sample_attractor

    deviation = float(np.max(np.abs(matrix @ matrix.T - np.eye(matrix.shape[0]))))
    if deviation < 0.1:
        raise ValueError(f"generated flow is too close to orthogonal: {deviation}")
    origin = np.zeros(matrix.shape[0])
    origin[0] = 1.0
    sample = sample_attractor(make_linear_flow(matrix), origin, num_samples)
    if sample.period is not None:
        raise ValueError(f"generated orbit wraps with period {sample.period}")
    norms = np.linalg.norm(sample.states, axis=1)
    if not (np.all(norms >= 0.5) and np.all(norms <= 2.0)):
        raise ValueError(
            f"generated orbit norms leave [0.5, 2]: {norms.min()}..{norms.max()}"
        )


def _write_report_linear64(directory: str, seed: int) -> str:
    matrix = linear64_matrix(seed)
    matrix_path = os.path.join(directory, "flow64.csv")
    np.savetxt(matrix_path, matrix, delimiter=",", fmt="%.17g")
    if not np.array_equal(np.loadtxt(matrix_path, delimiter=",", ndmin=2), matrix):
        raise ValueError("flow matrix CSV does not round-trip exactly")
    _check_linear64(matrix, REPORT_LINEAR64.num_samples)
    return _write(os.path.join(directory, "report_linear64.cfg"), REPORT_LINEAR64_CFG)


# The headline experiment: the C(n,2) pair SVD scan is about 96 % of it, and
# the flow is orthogonal with orbit-ordered samples, so scan fast paths show.
SCALING_SHIFT256 = Workload(
    name="scaling_shift256",
    subcommand="scaling",
    write_inputs=lambda d, seed: _write(
        os.path.join(d, "shift_scaling.cfg"), SCALING_SHIFT256_CFG
    ),
    delays=(8, 16, 32),
    num_samples=256,
    seed_dependent=True,
)

# The only user of the per-pair oracle and of keep_per_pair records.
LEMMA_SHIFT128 = Workload(
    name="lemma_shift128",
    subcommand="lemma-check",
    write_inputs=lambda d, seed: _write(
        os.path.join(d, "lemma_shift128.cfg"), LEMMA_SHIFT128_CFG
    ),
    delays=(2, 4, 8, 16, 32),
    num_samples=128,
    seed_dependent=False,
)

# Draws, the per-pair table, geometry and writers dominate and the scan is a
# minority; the flow is not orthogonal, so orthogonality-gated paths are off.
REPORT_LINEAR64 = Workload(
    name="report_linear64",
    subcommand="report",
    write_inputs=_write_report_linear64,
    delays=(16,),
    num_samples=128,
    seed_dependent=True,
)

WORKLOADS = {w.name: w for w in (SCALING_SHIFT256, LEMMA_SHIFT128, REPORT_LINEAR64)}

"""Conditioning diagnostics for delay-coordinate maps of invertible linear flows.

The core objects: a flow (invertible linear map applied once per sampling
interval), the trajectory matrix of a state (its backward iterates stacked
as rows), the delay vector (the trajectory matrix applied to a measurement
coefficient vector), the soft rank of pair differences, and the empirical
stable-embedding conditioning of the whole map under random coefficients.
"""

from ._version import __version__
from .delay_map import (
    DelayParams,
    MeasurementCoeffs,
    basis_delay_vector,
    delay_vector,
    derive_seed,
    draw_coeffs,
    draw_stream,
    time_series,
    trajectory_matrices,
    trajectory_matrix,
    trajectory_vector,
    user_coeffs,
)
from .dynamics import (
    FlowSpec,
    LyapunovEstimate,
    generate_orbit,
    inverse_step,
    lyapunov_exponent_inverse_flow,
    make_linear_flow,
    make_shift_flow,
    step,
)
from .embedding_analysis import (
    ConditioningResult,
    EmbeddingReport,
    ScalingStudyResult,
    TheoremCheck,
    conditioning,
    isometry_ratio,
    monte_carlo,
    scaling_study,
    theorem_condition_check,
)
from .errors import (
    ConfigError,
    DegeneratePairError,
    DelaycondError,
    DimensionMismatchError,
    InvalidArgumentError,
    NoEstimateError,
    NonFiniteTrajectoryError,
    NonInvertibleFlowError,
    UndefinedSoftRankError,
    ZeroVarianceError,
)
from .geometry import (
    AttractorSample,
    DelaySelection,
    ReachEstimate,
    autocorr_first_zero,
    curve_volume,
    delay_selection,
    finite_difference_tangents,
    mutual_information_first_min,
    reach_estimate,
    sample_attractor,
    trajectory_manifold_points,
)
from .spectral import (
    PairDiagnostics,
    PairScanResult,
    PairTable,
    SoftRankResult,
    infimum_soft_rank,
    pair_soft_rank,
    shift_system_oracle,
    soft_rank,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exception types shared across the package."""


class DelaycondError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(DelaycondError, ValueError):
    """An argument is outside the documented domain of an operation."""


class DimensionMismatchError(DelaycondError, ValueError):
    """Vector or matrix dimensions do not match the flow's ambient space."""


class NonInvertibleFlowError(DelaycondError, ValueError):
    """The flow matrix is singular or too close to singular to invert."""


class DegeneratePairError(DelaycondError, ValueError):
    """Two supposedly distinct states coincide; pair diagnostics are undefined."""


class NonFiniteTrajectoryError(DelaycondError, ValueError):
    """A backward iterate, or a distance or ratio formed from them, overflowed or is NaN.

    No pair diagnostic is defined then.
    """


class UndefinedSoftRankError(DelaycondError, ZeroDivisionError):
    """Soft rank of the zero matrix is 0/0 and therefore undefined."""


class ZeroVarianceError(DelaycondError, ValueError):
    """A constant series has no autocorrelation or mutual-information structure."""


class NoEstimateError(DelaycondError, ValueError):
    """Every candidate pair was excluded; no estimate can be formed."""


class ConfigError(DelaycondError, ValueError):
    """Experiment configuration failed to parse or validate."""

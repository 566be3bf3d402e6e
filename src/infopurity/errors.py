"""Exception types shared across the package."""


class InfopurityError(Exception):
    """Base class for every error raised by this package."""


class NonHermitianError(InfopurityError, ValueError):
    """Matrix fails the Hermiticity tolerance."""


class NoConvergenceError(InfopurityError, RuntimeError):
    """The LAPACK eigensolver failed to converge."""


class ZeroTraceError(InfopurityError, ValueError):
    """Operation undefined for (numerically) traceless operators."""


class EpsilonOutOfRangeError(InfopurityError, ValueError):
    """Depolarization strength outside the positivity range."""


class DimensionMismatchError(InfopurityError, ValueError):
    """Objects live on Hilbert spaces of different dimension."""


class NotNormalizedError(InfopurityError, ValueError):
    """Probability vector fails non-negativity or unit-sum checks."""


class AlphaOutOfRangeError(InfopurityError, ValueError):
    """Renyi order must be positive."""


class PurityOutOfRangeError(InfopurityError, ValueError):
    """Purity must lie in [1/n, 1]."""


class InvalidKError(InfopurityError, ValueError):
    """Harmonic tail index must be >= 1."""


class CountTooSmallError(InfopurityError, ValueError):
    """Discrete measurement needs at least dim**2 elements."""


class DimensionTooLargeError(InfopurityError, ValueError):
    """Dimension beyond reach: optimizers stop at 8, closed forms at float64 overflow."""


class NoFeasibleCandidateError(InfopurityError, RuntimeError):
    """Two-level spectrum enumeration found no feasible candidate."""


class ValidationError(InfopurityError, ValueError):
    """A constructed object or decoded file violates an invariant.

    ``field`` optionally points at the offending entry (for file decoding
    diagnostics).
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)

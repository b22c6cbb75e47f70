"""Exception types shared across the package.

Every failure that callers are expected to branch on gets its own class so
the CLI can map families of errors to exit codes without string matching.
"""


class MomsandError(Exception):
    """Base class for package-specific failures."""


class InvalidOrderError(MomsandError):
    """Moment order q must be strictly positive."""


class NonfiniteMomentError(MomsandError):
    """Requested moment overflows or is not finite."""


class DegenerateZeroError(MomsandError):
    """Normalization impossible because the law is concentrated at zero."""


class DegenerateModulusError(MomsandError):
    """|X| is numerically a single atom, so no strict certificate exists."""


class NotNormalizedError(MomsandError):
    """Operation requires a spec already normalized to E|X|^p = 1."""


class EmptyWindowError(MomsandError):
    """No scanned cutoff A produced positive window mass delta(A)."""


class NoValidQError(MomsandError):
    """The q grid does not intersect the admissible interval (max(p-1,1), p)."""


class KTooLargeError(MomsandError):
    """The minimal integer k of the constant formulas exceeds the scan cap."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ChainLengthMismatchError(MomsandError):
    """Moment-ratio chain length differs from ceil(p) - 1."""


class EnumerationTooLargeError(MomsandError):
    """Exact enumeration would exceed the outcome cap."""


class NotIncreasingError(MomsandError):
    """Frequency sequence is not strictly increasing."""


class TooFewPointsError(MomsandError):
    """Quadrature grid is below the resolution floor for the sequence."""


class NotLacunaryError(MomsandError):
    """Sequence fails the ratio >= 3 requirement."""

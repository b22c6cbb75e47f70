"""Exception types shared across the package.

Every failure that callers are expected to branch on gets its own class, and
every class belongs to one of two families, so the CLI maps a family to its
exit code without listing classes:

* UsageError (exit 2): the input cannot be run as given.
* HypothesisError (exit 3): one of the paper's hypotheses fails for the
  input: |X| is degenerate, or no window, q or k certifies.

A new class derives from the family whose exit code it should carry.
"""


class MomsandError(Exception):
    """Base class for package-specific failures."""


class UsageError(MomsandError):
    """The input cannot be run as given; the CLI exits 2."""


class HypothesisError(MomsandError):
    """A hypothesis of the comparison fails for the input; the CLI exits 3."""


class InvalidOrderError(UsageError):
    """Moment order q must be strictly positive."""


class NonfiniteMomentError(UsageError):
    """Requested moment overflows or is not finite."""


class DegenerateZeroError(UsageError):
    """Normalization impossible because the law is concentrated at zero."""


class DegenerateModulusError(HypothesisError):
    """|X| is numerically a single atom, so no strict certificate exists."""


class NotNormalizedError(HypothesisError):
    """Operation requires a spec already normalized to E|X|^p = 1."""


class EmptyWindowError(HypothesisError):
    """No scanned cutoff A produced positive window mass delta(A)."""


class NoValidQError(HypothesisError):
    """The q grid does not intersect the admissible interval (max(p-1,1), p)."""


class KTooLargeError(HypothesisError):
    """The minimal integer k of the constant formulas exceeds the scan cap."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ChainLengthMismatchError(UsageError):
    """Moment-ratio chain length differs from ceil(p) - 1."""


class EnumerationTooLargeError(UsageError):
    """Exact enumeration would exceed the outcome cap."""


class NotIncreasingError(UsageError):
    """Frequency sequence is not strictly increasing."""


class TooFewPointsError(UsageError):
    """Quadrature grid is below the resolution floor for the sequence."""


class NotLacunaryError(HypothesisError):
    """Sequence fails the ratio >= 3 requirement."""

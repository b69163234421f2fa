"""Exception types shared across the toolkit.  A class's bases give its
command-line outcome: an Infeasible is an answer, "no such matrix"
(exit 0); a ValueError, like the plain ones raised for t < 1 or a bad
CoverSpec, is a usage error (exit 2); VerificationFailed, the only
other kind, is an internal fault (status error, exit 1)."""


class ArsError(Exception):
    """Base class for all domain errors raised by this package."""


class Infeasible(ArsError):
    """No class member has the requested margins or covers."""


class WeightMismatch(Infeasible):
    """Row-sum and column-sum vectors do not have the same total."""


class EmptyClass(Infeasible):
    """The requested matrix class contains no matrix."""


class InvalidInterchange(ArsError, ValueError):
    """The addressed 2x2 submatrix is not an interchangeable pattern."""


class NotSameClass(ArsError, ValueError):
    """The two matrices do not share row and column sums."""


class BadRange(ArsError, ValueError):
    """An index or index tuple violates its required ordering or bounds."""


class DimensionMismatch(ArsError, ValueError):
    """Matrix dimensions do not agree with the given margin vectors."""


class DimensionTooSmall(ArsError, ValueError):
    """The operation requires more rows or columns than the class has."""


class InfeasibleShift(Infeasible):
    """No class member carries the requested covers, or a column shift
    ran out of movable ones."""


class BadCoverOrder(ArsError, ValueError):
    """The two covers do not cross (one dominates the other)."""


class VerificationFailed(ArsError):
    """A constructed matrix failed its own post-construction check; this
    indicates a bug, not a legitimately infeasible instance."""

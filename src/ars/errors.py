"""Exception types shared across the toolkit."""


class ArsError(Exception):
    """Base class for all domain errors raised by this package."""


class WeightMismatch(ArsError):
    """Row-sum and column-sum vectors do not have the same total."""


class EmptyClass(ArsError):
    """The requested matrix class contains no matrix."""


class InvalidInterchange(ArsError):
    """The addressed 2x2 submatrix is not an interchangeable pattern."""


class NotSameClass(ArsError):
    """The two matrices do not share row and column sums."""


class BadRange(ArsError):
    """An index or index tuple violates its required ordering or bounds."""


class DimensionMismatch(ArsError):
    """Matrix dimensions do not agree with the given margin vectors."""


class DimensionTooSmall(ArsError):
    """The operation requires more rows or columns than the class has."""


class InfeasibleShift(ArsError):
    """No class member carries the requested covers, or a column shift
    ran out of movable ones."""


class ResidualInfeasible(ArsError):
    """The residual class left after shifting is empty."""


class BadCoverOrder(ArsError):
    """The two covers do not cross (one dominates the other)."""


class VerificationFailed(ArsError):
    """A constructed matrix failed its own post-construction check; this
    indicates a bug, not a legitimately infeasible instance."""

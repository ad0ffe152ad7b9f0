"""Exception and warning types shared across the package."""

__all__ = [
    "StabregError",
    "InvalidPartitionSize",
    "InvalidStabilityInput",
    "InvalidConfidence",
    "InvalidInstance",
    "ZeroDegreeVertex",
    "NotSymmetric",
    "ZeroConstraintVector",
    "GraphDisconnected",
    "ZeroRowSum",
    "SingularSystem",
    "NonFiniteMatrix",
    "ConstraintSpansNullSpace",
    "NotPSDKernel",
    "PseudoTargetUnavailable",
    "BoundDiverges",
    "EmptyNeighborhood",
    "NoFeasibleRadius",
    "NoSweepData",
    "ParseError",
    "ZeroVarianceFeature",
]


class StabregError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPartitionSize(StabregError):
    """Requested labeled-set size is outside 1 <= m <= n-1."""


class InvalidStabilityInput(StabregError):
    """A stability coefficient was requested with out-of-range inputs."""


class InvalidConfidence(StabregError):
    """Confidence parameter delta is outside (0, 1]."""


class InvalidInstance(StabregError):
    """A constructed worst-case instance has invalid parameters."""


class ZeroDegreeVertex(StabregError):
    """Degree normalization hit a vertex with zero weighted degree."""


class NotSymmetric(StabregError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class ZeroConstraintVector(StabregError):
    """The constraint direction has (near-)zero norm."""


class GraphDisconnected(StabregError):
    """Operation requires a connected graph."""


class ZeroRowSum(StabregError):
    """Row normalization hit a row whose entries sum to zero."""


class SingularSystem(StabregError):
    """A linear system required by a solver is singular."""


class NonFiniteMatrix(SingularSystem, ValueError):
    """A matrix has NaN or infinite entries: a bad input value, on which no
    system has a finite solution."""


class ConstraintSpansNullSpace(StabregError):
    """The equality constraint cannot pin down the quadratic's null space."""


class NotPSDKernel(StabregError):
    """Gram matrix fails the positive-semidefiniteness check."""


class PseudoTargetUnavailable(StabregError):
    """A test point has no labeled neighbor and fallback is 'error'."""


class BoundDiverges(StabregError):
    """The stability bound's precondition fails and the value diverges."""


class EmptyNeighborhood(StabregError):
    """No labeled points fall inside the requested radius."""


class NoFeasibleRadius(StabregError):
    """Every radius in the selection grid was infeasible."""


class NoSweepData(StabregError):
    """The report holds no radius-sweep rows to aggregate."""


class ParseError(StabregError):
    """A data file could not be parsed.

    Attributes:
        row: 1-based line number in the file (header line is row 1).
        column: 1-based column index of the offending field, 0 when the
            error concerns the whole line.
    """

    def __init__(self, row: int, column: int, message: str = "unparseable field"):
        self.row = int(row)
        self.column = int(column)
        super().__init__(f"row {self.row}, column {self.column}: {message}")


class ZeroVarianceFeature(UserWarning):
    """A constant feature column was dropped during normalization."""

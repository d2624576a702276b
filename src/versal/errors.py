"""Exception types raised by the numerical contracts of this package."""


class VersalError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrix(VersalError):
    """A dense solve met a matrix singular to within the solve threshold."""


class NoConvergence(VersalError):
    """The dense eigenvalue iteration failed to converge."""


class InconsistentRanks(VersalError):
    """The rank sequence of shifted powers is not a valid Weyr characteristic.

    Usually a sign that the clustering or rank tolerances do not fit the
    input matrix.
    """


class PivotBreakdown(VersalError):
    """A working pivot in the single-block reduction fell below threshold."""


class MissingParameter(VersalError):
    """A deformation pattern was instantiated without all parameter values."""


class SizeMismatch(VersalError):
    """Two structures that must share a total size do not."""


class DimensionMismatch(VersalError):
    """Matrix dimensions are incompatible with the requested block layout."""


class EigenvalueCollision(VersalError):
    """Eigenvalue groups that must stay disjoint coincide or merge."""


class MaxIterationsExceeded(VersalError):
    """The structured-perturbation recovery ran out of iterations."""


class SingularTransform(VersalError):
    """An accumulated similarity factor became numerically singular."""


class StagnationDetected(VersalError):
    """The unstructured residual stopped decreasing for several steps."""

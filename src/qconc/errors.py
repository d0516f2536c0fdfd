"""Exception types shared across the package.

The CLI maps these onto exit codes: domain verdict errors (ArityError,
CertificateError) exit with 1, malformed input (ShapeError, NonFiniteError,
StateFormatError, ValueError, IndexError) and refused work (WorkBudgetError)
with 2.
"""


class QconcError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QconcError, ValueError):
    """Dimension list and amplitude vector are inconsistent."""


class DegenerateStateError(QconcError, ValueError):
    """All amplitudes are zero; the vector does not describe a state."""


class NonFiniteError(QconcError, ValueError):
    """An amplitude or matrix entry is NaN or infinite."""


class ArityError(QconcError, ValueError):
    """Operation is not defined for this number of subsystems."""


class CertificateError(QconcError):
    """A computation required a separability verdict that does not hold."""


class InternalConsistencyError(QconcError):
    """A mathematically guaranteed bound was violated beyond rounding noise."""


class StateFormatError(QconcError, ValueError):
    """A state document could not be parsed."""


class WorkBudgetError(QconcError):
    """A computation would exceed its documented work budget."""

"""Exception hierarchy with stable machine-readable error codes.

Every domain error carries a ``code`` string that the CLI emits as JSON on
stderr, so scripted callers can branch on failures without parsing prose.
"""


class WeakTomoError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidDimensionError(WeakTomoError):
    code = "invalid-dimension"


class DimensionMismatchError(WeakTomoError):
    code = "dimension-mismatch"


class UndefinedWeakValueError(WeakTomoError):
    """Post-selection probability too small for the weak value to exist."""

    code = "undefined-weak-value"


class ResourceLimitError(WeakTomoError):
    """A request would exceed a size bound: record rows or a 64-bit shot count."""

    code = "resource-limit"


class UnusablePostselectionError(WeakTomoError):
    """A transition amplitude needed as a divisor is (numerically) zero."""

    code = "unusable-postselection"


class DegenerateDataError(WeakTomoError):
    """Input data carries no usable signal (all-zero row, zero trace, ...)."""

    code = "degenerate-data"


class SchemeInapplicableError(WeakTomoError):
    """The requested reconstruction scheme cannot run on this input."""

    code = "scheme-inapplicable"


class AmbiguousReconstructionError(WeakTomoError):
    """The data admit more than one state (kernel dimension >= 2)."""

    code = "ambiguous-reconstruction"


class MissingDataError(WeakTomoError):
    """Required table rows are undefined."""

    code = "missing-data"


class PreconditionError(WeakTomoError):
    """An operation precondition was violated by the caller."""

    code = "precondition"


class InvalidRecordsError(WeakTomoError, ValueError):
    """A record stream or records CSV holds a malformed or out-of-range row.

    Also a ValueError, which is what malformed records raised before they
    had a code of their own.
    """

    code = "invalid-records"

"""Exception hierarchy and limits shared by all modules, without numpy.

Everything raised on bad domain input derives from ``EaqecneError`` so the
CLI can map it to exit code 1; usage errors are argparse's business (exit 2).
"""

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)  # base orders with fixed moduli
DEFAULT_BUDGET = 1 << 30  # enumeration word cap


class EaqecneError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(EaqecneError):
    """Codes or parameters belong to different fields."""


class DivisionByZero(EaqecneError, ZeroDivisionError):
    """Inversion of the zero element of a finite field."""


class NotQuadraticExtension(EaqecneError):
    """Operation requires a field built as a quadratic extension."""


class DimensionMismatch(EaqecneError):
    """Vector or matrix dimensions are incompatible."""


class AmbientMismatch(EaqecneError):
    """Subspaces live in different ambient spaces."""


class FormatError(EaqecneError):
    """Malformed matrix or code file."""


class IndexOutOfRange(EaqecneError):
    """Coordinate index outside the code length."""


class BudgetExceeded(EaqecneError):
    """Enumeration would exceed the configured word budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} words, budget is {budget}")
        self.required = required
        self.budget = budget


class NotSelfOrthogonal(EaqecneError):
    """Code is not self-orthogonal under the required form."""


class InsufficientProtection(EaqecneError):
    """Bob's code has too few logical qudits to cover the ebits."""


class PreconditionFailed(EaqecneError):
    """A named precondition of a construction was violated."""


class RangeError(EaqecneError):
    """Numeric argument outside its documented range."""


class DimensionCap(EaqecneError):
    """Requested dense-matrix dimension exceeds the configured cap."""


class NonPauliResult(EaqecneError):
    """Matrix computation failed to resolve to a Pauli-group relation."""


class NotAbelian(EaqecneError):
    """Generator set does not commute pairwise."""


class PhaseObstruction(EaqecneError):
    """Generated group contains a nontrivial multiple of the identity."""

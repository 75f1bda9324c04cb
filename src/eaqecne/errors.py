"""Exceptions, the field table and limits shared by all modules, without numpy.

Everything raised on bad domain input derives from ``EaqecneError`` so the
CLI can map it to exit code 1; usage errors are argparse's business (exit 2).
"""

from operator import index

# Every supported field GF(order), ascending: None for a prime, else its base
# order and the monic modulus over that base, coefficient indices low degree
# first.  Each quadratic modulus x^2 + a*x + b has a != 0.  Nothing checks an
# entry at run time: the test oracle (tests/oracles.py::loop_field) checks
# each entry's irreducibility and a != 0.
FIELDS = {2: None, 3: None, 4: (2, (1, 1, 1)), 5: None, 7: None,
          8: (2, (1, 1, 0, 1)), 9: (3, (2, 1, 1)), 16: (4, (2, 1, 1)),
          25: (5, (2, 1, 1)), 49: (7, (3, 1, 1)), 64: (8, (1, 1, 1)),
          81: (9, (4, 1, 1))}
PRIMES = tuple(q for q, entry in FIELDS.items() if entry is None)
SUPPORTED_ORDERS = tuple(q for q in FIELDS if q * q in FIELDS)  # base orders
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


def _integer(value, what: str) -> int:
    """`value` as an int through ``operator.index``; else a RangeError."""
    try:
        return index(value)
    except TypeError:
        raise RangeError(f"{what}={value!r} is not an integer") from None

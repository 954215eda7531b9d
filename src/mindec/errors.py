"""Exception types shared across the library.

Every error raised on a violated precondition derives from
:class:`MindecError`, so callers (the command line driver in particular)
can distinguish "the input does not satisfy the contract" from a plain
bug.  A failed internal invariant raises :class:`InvariantViolation`,
which is a RuntimeError and deliberately not a MindecError: the input
met the contract, so the fault is the library's.
"""


class MindecError(Exception):
    """Base class for all library errors."""


class DivisionByZero(MindecError, ZeroDivisionError):
    """Division by an exact zero scalar."""


class NotTotallyReal(MindecError):
    """Sign query on an element involving a negative radicand."""


class NonPositiveRadicand(MindecError):
    """Square root requested for a rational that is not positive."""


class RadicandTooLarge(MindecError):
    """The square part of a radicand cannot be certified within the
    factoring bounds of square_split."""


class BothZero(MindecError):
    """Extended gcd of the pair (0, 0) is undefined."""


class ZeroPolynomial(MindecError):
    """Operation undefined for the zero polynomial."""


class RecombinationBudgetExceeded(MindecError):
    """Factoring a polynomial over Q needs more subset trials of its
    modular factors than mindec.factor.RECOMBINATION_BUDGET allows."""


class OrderTooLarge(MindecError):
    """A matrix document of order above mindec.serialize.MAX_ORDER,
    refused before any entry is parsed."""


class MixedModuli(MindecError):
    """Number field elements with different moduli were combined."""


class FieldMismatch(MindecError):
    """An operand lies outside the field an operation accepts, such as
    number-field matrix entries or polynomial coefficients, or a matrix
    with an irrational entry where rational entries are needed."""


class SingularMatrix(MindecError):
    """Inverse requested for a matrix without one."""


class NotInvertible(DivisionByZero):
    """Inverse requested for a zero field element."""


class PartitionOfUnityFailure(MindecError):
    """Covariant construction produced polynomials not summing to 1."""


class SystemMatrixMismatch(MindecError):
    """Covariant system applied to a matrix it does not annihilate."""


class DoesNotSplit(MindecError):
    """Quadratic factor has no root in the requested extension."""


class NotSemisimple(MindecError):
    """Matrix with a non-squarefree minimal polynomial where a
    semisimple one is required."""


class ZeroMatrix(MindecError):
    """Operation undefined for the zero matrix."""


class FactorDegreeTooHigh(MindecError):
    """Minimal polynomial factor of degree > 2 where the real-closed
    constructions need eigenvalues in a quadratic extension."""


class SingularValuesNotRational(MindecError):
    """A nonzero eigenvalue of the Gram matrix is irrational."""


class FormatError(MindecError, ValueError):
    """Malformed serialized document (matrix, polynomial, scalar)."""


class PolyParseError(FormatError):
    """Malformed polynomial expression or serialized form."""


class UsageError(FormatError):
    """Command line arguments that mindec cannot parse."""


class InvariantViolation(RuntimeError):
    """A result the library built fails a property that holds for every
    valid input: a failed verification of a constructor's own result, a
    Newton iteration that does not stabilize, a Gram matrix that is not
    semisimple or not positive semidefinite."""

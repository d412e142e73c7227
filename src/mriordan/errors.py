"""Exception types shared across the package."""


class MRiordanError(Exception):
    """Base class for all domain errors."""


class InvalidArgument(MRiordanError, ValueError):
    """An argument outside its documented range (a count below 1, say).
    Also a ``ValueError``, so callers that catch that keep working."""


class DivisionByNonUnit(MRiordanError):
    """Division by a series whose constant term is zero."""


class CompositionRequiresValuation(MRiordanError):
    """Inner series of a composition must have zero constant term."""


class NotRevertible(MRiordanError):
    """Compositional inversion needs valuation exactly 1."""


class RootRequiresUnitConstant(MRiordanError):
    """m-th roots are only taken of series with constant term 1."""


class BlockProfileViolation(MRiordanError):
    """A coefficient sits at an index outside the allowed residue class."""

    def __init__(self, message, index=None, component=None):
        super().__init__(message)
        self.index = index
        self.component = component


class NonUnitLeadingCoefficient(MRiordanError):
    """Leading coefficient (g_0 or (f_i)_1) is zero."""


class MixedModulus(MRiordanError):
    """Binary group operation on elements with different m."""


class MixedOrder(MRiordanError):
    """Binary group operation on elements with different truncation orders."""


class OrderTooSmall(MRiordanError):
    """Requested more rows/terms than the truncation order supports."""


class ExprSyntaxError(MRiordanError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(MRiordanError):
    """Identifier is neither x, a builtin function, nor a binding."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class EvaluationError(MRiordanError):
    """A series-level error raised while evaluating an expression."""

    def __init__(self, message, offset, cause=None):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.cause = cause

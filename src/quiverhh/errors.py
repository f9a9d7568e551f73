"""Exception types shared across the package."""


class QuiverHHError(Exception):
    """Base class for all errors raised by this package."""


class QuotientUndefined(QuiverHHError):
    """Quotient representatives requested for spaces without containment."""


class NotAdmissible(QuiverHHError):
    """The relation set does not present an admissible ideal."""


class NotFiniteDimensional(QuiverHHError):
    """No finiteness certificate below the configured length cap."""


class InvalidArrow(QuiverHHError):
    """A path references an arrow label that was never declared."""


class NotAcyclic(QuiverHHError):
    """Operation requires a quiver without directed cycles."""


class DeltaUndefined(QuiverHHError):
    """The arrow pair does not span a Kronecker component of the separated
    quiver, or Kronecker pairs branch (only on a wild algebra): no chains."""


class UnsupportedCharacteristic(QuiverHHError):
    """Operation refuses to run in characteristic 2."""


class TooLarge(QuiverHHError):
    """Past a size guard: the oracle's unknowns, rewriting steps or a relation's terms."""


class NotAssociative(QuiverHHError):
    """Multiplication table fails the oracle's check that its first basis
    vectors are orthogonal idempotents summing to the unit and every basis
    vector is homogeneous for them."""


class ParseError(QuiverHHError):
    """Presentation text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)

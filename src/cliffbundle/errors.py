"""Error hierarchy shared across the library.

AlgebraError covers domain errors: operations that are mathematically
undefined for the given inputs.  ParseError covers malformed textual or
JSON input and is deliberately kept outside the AlgebraError tree so the
CLI can map the two families to different exit codes.
"""


class AlgebraError(Exception):
    """Base class for domain errors."""


class FieldMismatch(AlgebraError):
    """Scalars or containers over different fields were combined."""


class ContextMismatch(AlgebraError):
    """Operands belong to different algebra or Clifford contexts."""


class FormError(AlgebraError):
    """A form fails a structural precondition (not alternating, odd
    dimension, quadratic data that does not match a deformation)."""


class CharacteristicError(AlgebraError):
    """The operation is undefined in this characteristic."""


class CapExceeded(AlgebraError):
    """A size guard was exceeded (tensor grade cap, representation
    dimension bound, a value with more digits than Python converts to
    text)."""


class ParseError(ValueError):
    """Malformed textual or JSON input."""

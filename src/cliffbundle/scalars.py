"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

A Field is either the rationals (characteristic 0) or GF(p) for a prime
p.  Scalars are immutable and never mix across fields.  Each is stored
in one canonical form: over Q an int when it is integral and a reduced
fractions.Fraction (positive denominator) otherwise, so integral values
get int arithmetic; over GF(p) the residue in [0, p).  No floating
point appears anywhere: a division or negative power over Q goes
through Fraction, never through int / int.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .errors import CapExceeded, FieldMismatch, ParseError
from .records import record

# A scalar literal: an integer or a fraction of two integers.
_LITERAL = re.compile("(-?[0-9]+)(?:/(-?[0-9]+))?")
_MODULUS = re.compile("Fp:([0-9]+)")

# Longest refused value an error message repeats whole.
_SHOWN = 40


def excerpt(value) -> str:
    """A refused value for an error message: whole when short, else a
    prefix and the length.  A string is quoted, anything else shown by
    its repr."""
    if isinstance(value, str):
        if len(value) <= _SHOWN:
            return repr(value)
        return f"{value[:_SHOWN // 2] + '…'!r} ({len(value)} chars)"
    text = repr(value)
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN // 2]}… ({len(text)} chars)"


def shaped(value, kind, name: str):
    """value, if it is a JSON object (kind dict) or array (kind list);
    else ParseError naming it.  Arrays may also be tuples."""
    if not isinstance(value, (tuple, list) if kind is list else kind):
        noun = "an object" if kind is dict else "an array"
        raise ParseError(f"{name} must be {noun}, got {excerpt(value)}")
    return value


def scaled_ints(values) -> tuple:
    """Rationals or residues (ints or Fractions) as integers over one
    common denominator: (integers, denominator).  The denominator is the
    lcm of the distinct denominators of the values that are not ints."""
    dens = {c.denominator for c in values if type(c) is not int}
    den = lcm(*dens)
    if den == 1:
        return ([c.numerator for c in values] if dens else list(values)), 1
    return [c.numerator * (den // c.denominator) for c in values], den


def raw_rows(rows) -> list:
    """The raw values (ints or Fractions over Q, residues over GF(p)) of
    a matrix of Scalars."""
    return [[x.value for x in row] for row in rows]


# Miller-Rabin witnesses that decide primality below _MR_BOUND, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017); without 41 the least is 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly for n below _MR_BOUND; at or
    above it ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {excerpt(n)}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record(frozen=True)
class Field:
    """The rationals (char == 0) or the prime field GF(char)."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or a prime, got {self.char}")

    @property
    def spec(self) -> str:
        """Serialized name: "Q" or "Fp:<p>"."""
        return "Q" if self.char == 0 else f"Fp:{self.char}"

    @classmethod
    def from_spec(cls, text: str) -> "Field":
        if not isinstance(text, str):
            raise ParseError(f"field spec must be a string, got {excerpt(text)}")
        text = text.strip()
        if text == "Q":
            return cls(0)
        match = _MODULUS.fullmatch(text)
        if match is None:
            raise ParseError(f"bad field spec {excerpt(text)}")
        try:
            p = int(match[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad field spec {excerpt(text)}") from None
        if p >= _MR_BOUND:
            raise ParseError(f"modulus {excerpt(p)} is not below {_MR_BOUND}, "
                             "the bound of the primality test")
        if not is_prime(p):
            raise ParseError(f"modulus {excerpt(p)} is not prime")
        return cls(p)

    def __call__(self, value) -> "Scalar":
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def parse(self, text: str) -> "Scalar":
        """Parse "<int>" or "<int>/<int>", where an integer is ASCII
        digits after an optional minus sign (hyphen or U+2212)."""
        if not isinstance(text, str):
            raise ParseError(f"scalar literal must be a string, got {type(text).__name__}")
        match = _LITERAL.fullmatch(text.strip().replace("−", "-"))
        if match is None:
            raise ParseError(f"bad scalar literal {excerpt(text)}")
        num, den = match.groups()
        try:
            value = Scalar(self, int(num))
            return value if den is None else value / Scalar(self, int(den))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {excerpt(text)}") from None
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad scalar literal {excerpt(text)}") from None

    def __repr__(self):
        return f"Field({self.spec})"


class Scalar:
    """An immutable element of a Field.

    The value is canonical, so equal scalars have equal values, hashes
    and strings: over the rationals a plain int when the denominator is
    1 and a reduced Fraction (positive denominator) otherwise, over
    GF(p) the residue in [0, p).  It is never a float: int / int is
    one, so every division and negative power over Q goes through
    Fraction.  Arithmetic only combines scalars of the same field; ints
    (bools included) and, over the rationals, Fractions are coerced on
    either side.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        p = field.char
        # exact type tests first: most values are ints, and an
        # isinstance test against Fraction goes through ABCMeta
        if type(value) is not int:
            if p == 0:
                if type(value) is not Fraction:
                    value = Fraction(value)
                if value.denominator == 1:
                    value = value.numerator
            elif isinstance(value, Fraction):
                if value.denominator != 1:
                    raise TypeError("prime-field scalar needs an integer value")
                value = value.numerator
        if p:
            value %= p
        self.field = field
        self.value = value

    def _lift(self, other):
        if type(other) is Scalar:
            if other.field is self.field or other.field == self.field:
                return other.value
            raise FieldMismatch(
                f"cannot combine {self.field.spec} and {other.field.spec} scalars")
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction) and self.field.char == 0:
            return other
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, v - self.value)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        p = self.field.char
        if p == 0:
            return Scalar(self.field, Fraction(self.value, v))
        if v % p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % p)
        return Scalar(self.field, self.value * pow(v, -1, p))

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, v) / self

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        p = self.field.char
        if p == 0:
            return Scalar(self.field, (self.value if k >= 0 else Fraction(self.value)) ** k)
        if k < 0 and self.value == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % p)
        return Scalar(self.field, pow(self.value, k, p))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, 1) / self

    def __eq__(self, other):
        if type(other) is Scalar:
            return ((self.field is other.field or self.field == other.field)
                    and self.value == other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.char, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        try:
            return str(self.value)
        except ValueError:  # more digits than int -> str converts
            raise CapExceeded(
                f"a value has more digits than the limit ({sys.get_int_max_str_digits()} "
                "digits) for integer string conversion") from None

    def __repr__(self):
        return f"Scalar({self.field.spec}, {self})"


_new = object.__new__


def canonical(field: Field, value) -> Scalar:
    """The Scalar of a value already in canonical form (see Scalar),
    built without __init__'s tests: the kernels' exit."""
    s = _new(Scalar)
    s.field = field
    s.value = value
    return s


RATIONALS = Field(0)
GF2 = Field(2)

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
from math import gcd, lcm
from operator import attrgetter, index

from .errors import CapExceeded, FieldMismatch, FormError, ParseError
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
    Fraction.  It is made from an int, an integral value (operator.index:
    a bool) or a Fraction, integral over GF(p); anything else, a float or
    text, raises TypeError.  Arithmetic only combines scalars of the same
    field; ints (bools included) and, over the rationals, Fractions are
    coerced on either side.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        p = field.char
        # exact type tests first: most values are ints, and an
        # isinstance test against Fraction goes through ABCMeta
        if type(value) is not int:
            if type(value) is Fraction or isinstance(value, Fraction):
                if value.denominator == 1:
                    value = value.numerator
                elif p:
                    raise TypeError("prime-field scalar needs an integer value")
            else:
                try:
                    value = index(value)
                except TypeError:
                    hint = "; parse text with Field.parse" if isinstance(value, str) else ""
                    raise TypeError(f"a scalar's value must be an int or a Fraction, got "
                                    f"{type(value).__name__}{hint}") from None
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
_value, _field = attrgetter("value"), attrgetter("field")


def raw_values(field: Field, scalars) -> list:
    """The raw values of Scalars of field, read from an iterable that is
    materialized first if it is its own iterator.  One C-level pass over
    the fields finds an entry that is not a Scalar (FormError) or of
    another field (FieldMismatch)."""
    scalars = list(scalars) if iter(scalars) is scalars else scalars
    try:
        values = list(map(_value, scalars))
        mixed = list(map(_field, scalars)).count(field) != len(values)
    except AttributeError:
        mixed = True
    for c in scalars if mixed else ():
        if type(c) is not Scalar:
            raise FormError(f"a coefficient must be a Scalar, got {excerpt(c)}")
        if c.field != field:
            raise FieldMismatch(f"scalar over {c.field.spec} used in a {field.spec} context")
    return values


def field_of(rows) -> Field:
    """The field of a matrix of Scalars, its first entry's (FormError if none is)."""
    first = next((x for row in rows for x in row), None)
    if type(first) is not Scalar:
        raise FormError(f"a matrix's first entry must be a Scalar, got {excerpt(first)}")
    return first.field


def ints_of(field: Field, scalars) -> tuple:
    """The canonical (list, den) of a sequence of Scalars of field, the one
    entry rule for forms, elements and matrices: the raw_values, residues
    over 1 or, over Q, integers over their denominators' lcm (scaled_ints)."""
    values = raw_values(field, scalars)
    return (values, 1) if field.char else scaled_ints(values)


def canonical(field: Field, value) -> Scalar:
    """The Scalar of a value already in canonical form (see Scalar),
    built without __init__'s tests (see scalars_over)."""
    s = _new(Scalar)
    s.field = field
    s.value = value
    return s


def canonical_ints(p: int, values, den: int) -> tuple:
    """The canonical (list, den) of raw ints over den > 0, the one rule
    for forms, elements and matrices: over GF(p) the residues over 1,
    over Q the values and den divided by their gcd; zeros kept."""
    if p:
        return [x % p for x in values], 1
    values = list(values)
    g = gcd(den, *values)
    return (values, den) if g == 1 else ([x // g for x in values], den // g)


def scalars_over(field: Field, nums, den: int) -> list:
    """The Scalars x / den of canonical data, built by canonical: in
    lowest terms x / den is an int when den divides x, else a reduced
    Fraction.  Every Scalar view of a form, an element or a matrix."""
    if den == 1:
        return [canonical(field, x) for x in nums]
    return [canonical(field, x // den if x % den == 0 else Fraction(x, den)) for x in nums]


RATIONALS = Field(0)
GF2 = Field(2)

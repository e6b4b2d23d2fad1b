"""Coefficient spaces and forms over a fixed based vector space.

An AlgebraContext fixes the dimension n and the field; everything else
(vectors, linear/bilinear/quadratic forms, exterior-square coefficients)
is built against it.

Every record here but the context (Vector, LinearForm, BilinearForm,
QuadraticForm, DualTwoForm) holds canonical integer data
(scalars.canonical_ints): its n entries, or n x n for a form, as ints
nums over one int den.  Over GF(p) the nums are residues in [0, p) and
den is 1; over Q den > 0 and the gcd of den and every num is 1.  So
equal records have equal data, and equality and hashing compare the
data.  Their arithmetic, the evaluations F(x, y), Q(x), f(x) and
F(x, .), and the kernel's set-up in clifford.py are int list work on
it, with one Scalar per answer.  The Scalar views (coeffs, rows, diag,
upper, and at, polar and value_at, which read them) are cached
properties built by scalars.scalars_over; make and from_json, the
Scalar entry, keep the Scalars they read.

Basis indices are 1-based throughout the public API, matching the word
and blade conventions of the element modules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul, sub

from . import linalg
from .errors import (CharacteristicError, ContextMismatch, FieldMismatch, FormError,
                     ParseError)
from .records import record
from .scalars import Field, Scalar, canonical_ints, excerpt, ints_of, scalars_over, shaped


@record(frozen=True)
class AlgebraContext:
    """A based vector space: dimension plus coefficient field."""

    dim: int
    field: Field

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("context dimension must be >= 1")

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraContext":
        """The context of a JSON object's "dim", a JSON integer, and "field"."""
        dim = shaped(data, dict, "context")["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ParseError(f"dim must be an integer, got {excerpt(dim)}")
        return cls(dim, Field.from_spec(data["field"]))

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field != self.field:
                raise FieldMismatch(
                    f"scalar over {value.field.spec} used in a {self.field.spec} context")
            return value
        return self.field(value)

    def coerce_all(self, values) -> tuple:
        return tuple(self.coerce(v) for v in values)


def same_context(a: AlgebraContext, b: AlgebraContext):
    if a != b:
        raise ContextMismatch(f"contexts differ: {a} vs {b}")


def _canonical(field: Field, nums, den: int = 1) -> tuple:
    """canonical_ints of raw ints over den, nums a tuple for the record's hash."""
    nums, den = canonical_ints(field.char, nums, den)
    return tuple(nums), den


def _scalar(field: Field, num: int, den: int) -> Scalar:
    """The Scalar num / den of products of the records' data (den is 1 over GF(p))."""
    return field(num if den == 1 else Fraction(num, den))


class _Linear:
    """What the records but the context share: ctx and canonical data
    nums over den (see the module's notes), and the linear arithmetic
    on them."""

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same_context(self.ctx, other.ctx)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return type(self)(self.ctx, *_canonical(self.ctx.field, [
            x * a + y * b for x, y in zip(self.nums, other.nums)], den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1, 1)

    def __rmul__(self, s):
        v = s if type(s) is int else self.ctx.coerce(s).value
        return self._scaled(v.numerator, v.denominator)

    def _scaled(self, a: int, b: int):
        """(a / b) times the record, b a unit of the field."""
        p = self.ctx.field.char
        if p:
            a, b = a * pow(b, -1, p), 1
        return type(self)(self.ctx, *_canonical(self.ctx.field, [a * x for x in self.nums],
                                                 self.den * b))

    def is_zero(self) -> bool:
        return not any(self.nums)


class _Coordinates(_Linear):
    """What Vector and LinearForm share: n entries, the one at e_{i+1}
    being nums[i] / den, and coeffs, their Scalar view."""

    @classmethod
    def make(cls, ctx: AlgebraContext, values):
        """The record of its n entries, Scalars of ctx's field or values
        they coerce, kept as coeffs."""
        coeffs = ctx.coerce_all(values)
        if len(coeffs) != ctx.dim:
            raise FormError(f"{cls._noun} needs {ctx.dim} coefficients, got {len(coeffs)}")
        nums, den = ints_of(ctx.field, coeffs)
        made = cls(ctx, tuple(nums), den)
        object.__setattr__(made, "coeffs", coeffs)
        return made

    @classmethod
    def zero(cls, ctx: AlgebraContext):
        return cls(ctx, (0,) * ctx.dim, 1)

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(scalars_over(self.ctx.field, self.nums, self.den))

    def at(self, i: int) -> Scalar:
        return self.coeffs[i - 1]


@record(frozen=True)
class Vector(_Coordinates):
    """x = sum of x_i e_i by its coordinates (see _Coordinates)."""

    _noun = "vector"
    ctx: AlgebraContext
    nums: tuple
    den: int

    @classmethod
    def basis(cls, ctx: AlgebraContext, i: int) -> "Vector":
        """The basis vector e_i, 1-based."""
        if not 1 <= i <= ctx.dim:
            raise FormError(f"basis index {i} out of range 1..{ctx.dim}")
        return cls(ctx, tuple([int(j == i - 1) for j in range(ctx.dim)]), 1)


@record(frozen=True)
class LinearForm(_Coordinates):
    """An element of the dual space by its values on the basis (see _Coordinates)."""

    _noun = "linear form"
    ctx: AlgebraContext
    nums: tuple
    den: int

    def __call__(self, x: Vector) -> Scalar:
        same_context(self.ctx, x.ctx)
        return _scalar(self.ctx.field, sum(map(mul, self.nums, x.nums)), self.den * x.den)


def _transposed(nums: tuple, n: int) -> tuple:
    """The n x n row-major entries transposed: the columns in turn."""
    return tuple([x for i in range(n) for x in nums[i::n]])


class _Form(_Linear):
    """What the form records share: n x n entries, row-major, entry
    (e_{i+1}, e_{j+1}) being nums[i n + j] / den, and rows, the Scalar
    view of them."""

    @classmethod
    def zero(cls, ctx: AlgebraContext):
        return cls(ctx, (0,) * ctx.dim ** 2, 1)

    @classmethod
    def _made(cls, ctx: AlgebraContext, rows: tuple):
        """The form of its entries, Scalars of ctx's field, kept as rows."""
        nums, den = ints_of(ctx.field, [c for r in rows for c in r])
        form = cls(ctx, tuple(nums), den)
        object.__setattr__(form, "rows", rows)
        return form

    @cached_property
    def rows(self) -> tuple:
        """The entries as an n x n tuple of tuples of Scalar."""
        n, values = self.ctx.dim, scalars_over(self.ctx.field, self.nums, self.den)
        return tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n))

    def _pairing(self, x: Vector, y: Vector) -> Scalar:
        """The bilinear form of the entries at (x, y), summed on the ints."""
        same_context(self.ctx, x.ctx)
        same_context(self.ctx, y.ctx)
        n, a, ys = self.ctx.dim, self.nums, y.nums
        return _scalar(self.ctx.field, sum([c * sum(map(mul, a[i * n:(i + 1) * n], ys))
                                            for i, c in enumerate(x.nums) if c]),
                       x.den * self.den * y.den)


@record(frozen=True)
class BilinearForm(_Form):
    """F by its entries F(e_i, e_j) (see _Form)."""

    ctx: AlgebraContext
    nums: tuple
    den: int

    @classmethod
    def make(cls, ctx: AlgebraContext, entries) -> "BilinearForm":
        rows = tuple(ctx.coerce_all(r) for r in entries)
        if len(rows) != ctx.dim or any(len(r) != ctx.dim for r in rows):
            raise FormError(f"bilinear form needs a {ctx.dim}x{ctx.dim} matrix")
        return cls._made(ctx, rows)

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> "BilinearForm":
        n = ctx.dim
        return cls(ctx, tuple([int(i == j) for i in range(n) for j in range(n)]), 1)

    def at(self, i: int, j: int) -> Scalar:
        """F(e_i, e_j), 1-based."""
        return self.rows[i - 1][j - 1]

    def __call__(self, x: Vector, y: Vector) -> Scalar:
        return self._pairing(x, y)

    def partial_left(self, x: Vector) -> LinearForm:
        """The linear form F(x, .): x's nums against each column."""
        same_context(self.ctx, x.ctx)
        n, a = self.ctx.dim, self.nums
        return LinearForm(self.ctx, *_canonical(self.ctx.field, [
            sum(map(mul, x.nums, a[j::n])) for j in range(n)], x.den * self.den))

    def transpose(self) -> "BilinearForm":
        return BilinearForm(self.ctx, _transposed(self.nums, self.ctx.dim), self.den)

    def is_symmetric(self) -> bool:
        return self.nums == _transposed(self.nums, self.ctx.dim)

    def is_alternating(self) -> bool:
        # zero diagonal plus antisymmetry; over GF(2) the two conditions
        # together still say exactly F(x, x) = 0 for all x
        return not any(self.nums[::self.ctx.dim + 1]) and (self + self.transpose()).is_zero()

    def matrix(self):
        return [list(r) for r in self.rows]

    def to_json(self) -> dict:
        return {
            "dim": self.ctx.dim,
            "field": self.ctx.field.spec,
            "entries": [[str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict, ctx: AlgebraContext | None = None) -> "BilinearForm":
        shaped(data, dict, "form")
        if ctx is None:
            ctx = AlgebraContext.from_json(data)
        return cls.make(ctx, _json_rows(ctx.field, data, "entries"))


@record(frozen=True)
class QuadraticForm(_Form):
    """Q by the entries of its Chevalley form G_Q (see _Form), the form
    the Clifford kernel acts by: Q(e_i) on the diagonal, the polar value
    of (e_i, e_j), i < j, in row j and column i, zeros above, so that
    G_Q(x, x) = Q(x); the minimal data of Q in every characteristic,
    including 2.  The views diag (the Q(e_i)) and upper (ragged: row i,
    0-based, holds the polar values at (e_{i+1}, e_j) for j = i+2 .. n)
    are read from rows, the view of G_Q."""

    ctx: AlgebraContext
    nums: tuple
    den: int

    @classmethod
    def make(cls, ctx: AlgebraContext, diag, upper=None) -> "QuadraticForm":
        n = ctx.dim
        d = ctx.coerce_all(diag)
        if len(d) != n:
            raise FormError(f"quadratic form needs {n} diagonal values")
        if upper is None:
            upper = [[0] * (n - 1 - i) for i in range(n - 1)]
        up = tuple(ctx.coerce_all(row) for row in upper)
        if len(up) != max(n - 1, 0) or any(len(row) != n - 1 - i for i, row in enumerate(up)):
            raise FormError("strict-upper polar data has the wrong shape")
        zero = ctx.field.zero
        return cls._made(ctx, tuple(tuple(d[i] if j == i else up[j][i - j - 1] if j < i else zero
                                          for j in range(n)) for i in range(n)))

    @cached_property
    def diag(self) -> tuple:
        return tuple(r[i] for i, r in enumerate(self.rows))

    @cached_property
    def upper(self) -> tuple:
        return tuple(tuple(r[i] for r in self.rows[i + 1:]) for i in range(self.ctx.dim - 1))

    def value_at(self, i: int) -> Scalar:
        """Q(e_i), 1-based."""
        return self.diag[i - 1]

    def polar(self, i: int, j: int) -> Scalar:
        """The polar form at (e_i, e_j), 1-based; diagonal is 2 Q(e_i)."""
        if i == j:
            return self.diag[i - 1] + self.diag[i - 1]
        return self.rows[max(i, j) - 1][min(i, j) - 1]

    def __call__(self, x: Vector) -> Scalar:
        return self._pairing(x, x)

    def to_json(self) -> dict:
        return {
            "diag": [str(v) for v in self.diag],
            "polar_upper": [[str(v) for v in row] for row in self.upper],
        }

    @classmethod
    def from_json(cls, ctx: AlgebraContext, data: dict) -> "QuadraticForm":
        shaped(data, dict, "quadratic")
        return cls.make(ctx, [ctx.field.parse(v) for v in shaped(data["diag"], list, "diag")],
                        _json_rows(ctx.field, data, "polar_upper"))


@record(frozen=True)
class DualTwoForm(_Form):
    """An exterior square of the dual space by its coefficients (see
    _Form): c_ij of e_i* ^ e_j* at (e_i, e_j) for i < j, zeros on and
    below the diagonal.  The view coeffs is ragged like
    QuadraticForm.upper: row i holds c_{i+1, j} for j = i+2 .. n."""

    ctx: AlgebraContext
    nums: tuple
    den: int

    @classmethod
    def make(cls, ctx: AlgebraContext, coeffs) -> "DualTwoForm":
        n = ctx.dim
        rows = tuple(ctx.coerce_all(row) for row in coeffs)
        if len(rows) != max(n - 1, 0) or any(len(row) != n - 1 - i for i, row in enumerate(rows)):
            raise FormError("exterior-square data has the wrong shape")
        zero = ctx.field.zero
        return cls._made(ctx, tuple(tuple(rows[i][j - i - 1] if j > i else zero
                                          for j in range(n)) for i in range(n)))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(r[i + 1:] for i, r in enumerate(self.rows[:-1]))

    def at(self, i: int, j: int) -> Scalar:
        """Coefficient of e_i* ^ e_j*, requires i < j (1-based)."""
        if not 1 <= i < j <= self.ctx.dim:
            raise FormError(f"need 1 <= i < j <= {self.ctx.dim}, got ({i}, {j})")
        return self.coeffs[i - 1][j - i - 1]

    def to_json(self) -> dict:
        return {
            "dim": self.ctx.dim,
            "field": self.ctx.field.spec,
            "coeffs": [[str(v) for v in row] for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict, ctx: AlgebraContext | None = None) -> "DualTwoForm":
        shaped(data, dict, "two_form")
        if ctx is None:
            ctx = AlgebraContext.from_json(data)
        return cls.make(ctx, _json_rows(ctx.field, data, "coeffs"))


def _json_rows(field: Field, data: dict, key: str) -> list:
    """The array of arrays of scalar literals at data[key], parsed."""
    return [[field.parse(v) for v in shaped(row, list, f"{key} row")]
            for row in shaped(data[key], list, key)]


def polar_form(q: QuadraticForm) -> BilinearForm:
    """The symmetric bilinear form x, y -> Q(x+y) - Q(x) - Q(y): G_Q + G_Q^T."""
    n, g = q.ctx.dim, q.nums
    return BilinearForm(q.ctx, *_canonical(q.ctx.field, list(map(add, g, _transposed(g, n))),
                                           q.den))


def _quad_nums(f: BilinearForm) -> list:
    """The entries of G_Q, Q = (x -> F(x, x)), over f.den, not made
    canonical: F's diagonal with F + F^T below it, Q's polar form."""
    n, a = f.ctx.dim, f.nums
    return [a[i * n + j] + a[j * n + i] if j < i else a[i * n + i] if j == i else 0
            for i in range(n) for j in range(n)]


def quad_of_bilinear(f: BilinearForm) -> QuadraticForm:
    """The quadratic form x -> F(x, x) (see _quad_nums)."""
    return QuadraticForm(f.ctx, *_canonical(f.ctx.field, _quad_nums(f), f.den))


def triangular_bilinear(q: QuadraticForm) -> BilinearForm:
    """Upper-triangular F with F(x, x) = Q(x) in every characteristic:
    diagonal Q(e_i), above-diagonal the polar values, zero below; G_Q^T."""
    return BilinearForm(q.ctx, _transposed(q.nums, q.ctx.dim), q.den)


def split_sym_alt(f: BilinearForm):
    """Split F = g + A with g symmetric and A alternating (char != 2)."""
    if f.ctx.field.char == 2:
        raise CharacteristicError("symmetric/alternating split needs 1/2, undefined in char 2")
    ft = f.transpose()
    return (f + ft)._scaled(1, 2), (f - ft)._scaled(1, 2)


def pfaffian(a: BilinearForm) -> Scalar:
    """Pfaffian of an even-dimensional alternating form, by congruence
    elimination in O(n^3).  With the first nonzero entry a_1j of row 1
    as pivot, swapping indices 2 and j flips the sign, and then
    Pf(a) = a_12 Pf(S) with S the alternating Schur complement
    S_kl = a_kl + (a_2k a_1l - a_1k a_2l) / a_12 on the indices k, l >= 3.
    A zero row 1 makes the Pfaffian 0.  It runs on a's nums, residues
    or (once divided) Fractions, and Pf(nums / den) = Pf(nums) / den^(n/2)."""
    if not a.is_alternating():
        raise FormError("pfaffian needs an alternating form")
    n, p = a.ctx.dim, a.ctx.field.char
    if n % 2:
        raise FormError("pfaffian needs even dimension")
    m = [list(a.nums[i * n:(i + 1) * n]) for i in range(n)]
    acc = 1
    while m:
        j = next((j for j, v in enumerate(m[0]) if v), None)
        if j is None:
            return a.ctx.field.zero
        if j != 1:
            m[1], m[j] = m[j], m[1]
            for r in m:
                r[1], r[j] = r[j], r[1]
            acc = -acc
        r0, r1 = m[0], m[1]
        acc = acc * r0[1]
        inv = pow(r0[1], -1, p) if p else Fraction(1, r0[1])
        m = [[rk[l] + (r1[k] * r0[l] - r0[k] * r1[l]) * inv for l in range(2, len(rk))]
             for k, rk in enumerate(m) if k >= 2]
        if p:
            m = [[x % p for x in r] for r in m]
    return a.ctx.field(acc if p else Fraction(acc, a.den ** (n // 2)))


def right_radical(g: BilinearForm):
    """Basis of {w : G(v, w) = 0 for all v} as a list of Vectors: the
    nullspace of G's integer rows, 1 at each free column."""
    n, field = g.ctx.dim, g.ctx.field
    basis, den = linalg.nullspace_raw([g.nums[i * n:(i + 1) * n] for i in range(n)], field.char)
    return [Vector(g.ctx, *_canonical(field, v, den)) for v in basis]


def dual_two_form(a: BilinearForm) -> DualTwoForm:
    """Exterior-square coefficients of an alternating form.

    The convention c_ij = -A(e_i, e_j) for i < j makes the pairing with
    x ^ y return A(x, y) and makes the paired interior products of the
    Clifford module act correctly; the round-trip test pins it down.
    """
    if not a.is_alternating():
        raise FormError("exterior-square coefficients need an alternating form")
    n = a.ctx.dim
    return DualTwoForm(a.ctx, *_canonical(a.ctx.field, [
        -x if k % n > k // n else 0 for k, x in enumerate(a.nums)], a.den))


def alt_of_dual(astar: DualTwoForm) -> BilinearForm:
    """Inverse of dual_two_form: C^T - C, C the coefficients' entries."""
    c = astar.nums
    return BilinearForm(astar.ctx, *_canonical(astar.ctx.field, list(map(
        sub, _transposed(c, astar.ctx.dim), c)), astar.den))

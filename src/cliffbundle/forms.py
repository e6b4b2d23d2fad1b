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
data.  The public constructor, Vector(ctx, nums, den) and the rest,
checks its input and keeps it canonical (_Linear.__post_init__); the
package builds records as elements (clifford._Sparse): _made makes raw
ints canonical, _of takes canonical data as it is.  make and from_json,
the Scalar entry, keep the Scalars they read.  Arithmetic, evaluation
and the kernel's set-up are int list work, one Scalar per answer; the
Scalar views (coeffs, rows, diag, upper) slice _scalars (scalars_over).

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
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"context dimension must be >= 1, an int, got {excerpt(self.dim)}")

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraContext":
        """The context of a JSON object's "dim" and "field" spec (Field.from_spec).
        The constructor checks dim; its ValueError is reported as ParseError."""
        dim, field = shaped(data, dict, "context")["dim"], Field.from_spec(data["field"])
        try:
            return cls(dim, field)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

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


def _checked_den(name: str, ctx: AlgebraContext, den) -> int:
    """ctx's characteristic, ctx an AlgebraContext and den an int unit of its field."""
    if type(ctx) is not AlgebraContext:
        raise FormError(f"{name} needs an AlgebraContext, got {excerpt(ctx)}")
    p = ctx.field.char
    if type(den) is not int or (den % p if p else den) == 0:
        raise FormError(f"{name} needs an int den that is a unit of {ctx.field.spec}, "
                        f"got {excerpt(den)}")
    return p


def _answer(field: Field, num: int, den: int) -> Scalar:
    """The Scalar num / den of raw ints, made canonical (scalars_over)."""
    return scalars_over(field, *canonical_ints(field.char, [num], den))[0]


class _Linear:
    """The records but the context: fields, builders, views and linear
    arithmetic.  A subclass has n ** _rank entries; _above is None if any
    may be nonzero, else whether the nonzero ones lie strictly above the
    diagonal (True) or on and below it (False)."""

    ctx: AlgebraContext
    nums: tuple
    den: int

    def __post_init__(self):
        """The public constructor's check: n ** _rank ints in the order
        of nums, zero where _above says, over an int unit den
        (_checked_den), else FormError; the data is kept as _made makes it."""
        name, nums, ctx = type(self).__name__, self.nums, self.ctx
        p = _checked_den(name, ctx, self.den)
        n, above = ctx.dim, self._above
        if (not isinstance(nums, (tuple, list)) or len(nums) != n ** self._rank
                or any(type(x) is not int for x in nums)):
            raise FormError(f"{name} at dim {n} needs {n ** self._rank} int entries, "
                            f"got {excerpt(nums)}")
        nums, den = canonical_ints(p, nums, self.den)
        if above is not None and any(x for k, x in enumerate(nums) if (k % n > k // n) != above):
            raise FormError(f"{name} is zero {'on and below' if above else 'above'} the diagonal")
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _made(cls, ctx: AlgebraContext, nums, den: int):
        """The record of raw ints over a unit den, made canonical."""
        nums, den = canonical_ints(ctx.field.char, nums, den)
        return cls._of(ctx, tuple(nums), den)

    @classmethod
    def zero(cls, ctx: AlgebraContext):
        return cls._of(ctx, (0,) * ctx.dim ** cls._rank, 1)

    @classmethod
    def _entered(cls, ctx: AlgebraContext, scalars: tuple):
        """The record of n ** _rank Scalars of ctx's field in the order of
        nums, kept as _scalars: make's entry."""
        if len(scalars) != ctx.dim ** cls._rank:
            raise FormError(f"{cls.__name__} needs {ctx.dim ** cls._rank} coefficients, "
                            f"got {len(scalars)}")
        nums, den = ints_of(ctx.field, scalars)
        made = cls._of(ctx, tuple(nums), den)
        object.__setattr__(made, "_scalars", scalars)
        return made

    @cached_property
    def _scalars(self) -> tuple:
        """The entries as Scalars, in the order of nums: every view's source."""
        return tuple(scalars_over(self.ctx.field, self.nums, self.den))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same_context(self.ctx, other.ctx)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return self._made(self.ctx, [x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1, 1)

    def __rmul__(self, s):
        v = s if type(s) is int else self.ctx.coerce(s).value
        return self._scaled(v.numerator, v.denominator)

    def _scaled(self, a: int, b: int):
        """(a / b) times the record, b a unit of the field."""
        return self._made(self.ctx, [a * x for x in self.nums], self.den * b)

    def is_zero(self) -> bool:
        return not any(self.nums)


class _Coordinates(_Linear):
    """What Vector and LinearForm share: n entries, the one at e_{i+1}
    being nums[i] / den, and coeffs, their Scalar view."""

    _rank, _above = 1, None

    @classmethod
    def make(cls, ctx: AlgebraContext, values):
        """The record of its n entries, Scalars of ctx's field or values they coerce."""
        return cls._entered(ctx, ctx.coerce_all(values))

    @property
    def coeffs(self) -> tuple:
        return self._scalars

    def at(self, i: int) -> Scalar:
        return self._scalars[i - 1]


@record(frozen=True)
class Vector(_Coordinates):
    """x = sum of x_i e_i by its coordinates (see _Coordinates)."""

    @classmethod
    def basis(cls, ctx: AlgebraContext, i: int) -> "Vector":
        """The basis vector e_i, 1-based."""
        if not 1 <= i <= ctx.dim:
            raise FormError(f"basis index {i} out of range 1..{ctx.dim}")
        return cls._of(ctx, tuple([int(j == i - 1) for j in range(ctx.dim)]), 1)


@record(frozen=True)
class LinearForm(_Coordinates):
    """An element of the dual space by its values on the basis (see _Coordinates)."""

    def __call__(self, x: Vector) -> Scalar:
        same_context(self.ctx, x.ctx)
        return _answer(self.ctx.field, sum(map(mul, self.nums, x.nums)), self.den * x.den)


def _transposed(nums: tuple, n: int) -> tuple:
    """The n x n row-major entries transposed: the columns in turn."""
    return tuple([x for i in range(n) for x in nums[i::n]])


def _strict(n: int, step: int) -> list:
    """The slices of n x n row-major entries that hold a strict triangle
    as ragged rows: row i (0-based) is the n - 1 - i entries after
    (i, i) along row i (step 1) or down column i (step n)."""
    return [slice(i * (n + 1) + step, i * (n + 1) + step * (n - i), step)
            for i in range(n - 1)]


def _laid(ctx: AlgebraContext, rows, values: list, step: int, what: str) -> list:
    """values, n x n entries, with ragged rows of Scalars (or values they
    coerce) laid in a strict triangle (_strict), or FormError."""
    n = ctx.dim
    rows = [ctx.coerce_all(row) for row in rows]
    if len(rows) != max(n - 1, 0) or any(len(row) != n - 1 - i for i, row in enumerate(rows)):
        raise FormError(f"{what} has the wrong shape")
    for cells, row in zip(_strict(n, step), rows):
        values[cells] = row
    return values


class _Form(_Linear):
    """What the form records share: n x n entries, row-major, entry
    (e_{i+1}, e_{j+1}) being nums[i n + j] / den, rows, their Scalar
    view, and the JSON of the forms that name their context."""

    _rank, _above = 2, None

    @cached_property
    def rows(self) -> tuple:
        """The entries as an n x n tuple of tuples of Scalar."""
        n, values = self.ctx.dim, self._scalars
        return tuple(values[i * n:(i + 1) * n] for i in range(n))

    def _pairing(self, x: Vector, y: Vector) -> Scalar:
        """The bilinear form of the entries at (x, y), summed on the ints."""
        same_context(self.ctx, x.ctx)
        same_context(self.ctx, y.ctx)
        n, a, ys = self.ctx.dim, self.nums, y.nums
        return _answer(self.ctx.field, sum([c * sum(map(mul, a[i * n:(i + 1) * n], ys))
                                            for i, c in enumerate(x.nums) if c]),
                       x.den * self.den * y.den)

    def _json(self, key: str, rows) -> dict:
        return {"dim": self.ctx.dim, "field": self.ctx.field.spec,
                key: [[str(v) for v in row] for row in rows]}

    @classmethod
    def _read(cls, data: dict, ctx: AlgebraContext | None, noun: str, key: str):
        """The inverse of _json: make of data[key], over ctx or data's;
        make's FormError goes out as ParseError with its text."""
        shaped(data, dict, noun)
        if ctx is None:
            ctx = AlgebraContext.from_json(data)
        rows = _json_rows(ctx.field, data, key)
        try:
            return cls.make(ctx, rows)
        except FormError as exc:
            raise ParseError(str(exc)) from None


@record(frozen=True)
class BilinearForm(_Form):
    """F by its entries F(e_i, e_j) (see _Form)."""

    @classmethod
    def make(cls, ctx: AlgebraContext, entries) -> "BilinearForm":
        rows = [ctx.coerce_all(r) for r in entries]
        if len(rows) != ctx.dim or any(len(r) != ctx.dim for r in rows):
            raise FormError(f"bilinear form needs a {ctx.dim}x{ctx.dim} matrix")
        return cls._entered(ctx, tuple([c for r in rows for c in r]))

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> "BilinearForm":
        n = ctx.dim
        return cls._of(ctx, tuple([int(i == j) for i in range(n) for j in range(n)]), 1)

    def at(self, i: int, j: int) -> Scalar:
        """F(e_i, e_j), 1-based."""
        return self.rows[i - 1][j - 1]

    def __call__(self, x: Vector, y: Vector) -> Scalar:
        return self._pairing(x, y)

    def partial_left(self, x: Vector) -> LinearForm:
        """The linear form F(x, .): x's nums against each column."""
        same_context(self.ctx, x.ctx)
        n, a = self.ctx.dim, self.nums
        return LinearForm._made(self.ctx, [sum(map(mul, x.nums, a[j::n])) for j in range(n)],
                                x.den * self.den)

    def transpose(self) -> "BilinearForm":
        return BilinearForm._of(self.ctx, _transposed(self.nums, self.ctx.dim), self.den)

    def is_symmetric(self) -> bool:
        return self.nums == _transposed(self.nums, self.ctx.dim)

    def is_alternating(self) -> bool:
        # zero diagonal plus antisymmetry; over GF(2) the two conditions
        # together still say exactly F(x, x) = 0 for all x
        return not any(self.nums[::self.ctx.dim + 1]) and (self + self.transpose()).is_zero()

    def matrix(self):
        return [list(r) for r in self.rows]

    def to_json(self) -> dict:
        return self._json("entries", self.rows)

    @classmethod
    def from_json(cls, data: dict, ctx: AlgebraContext | None = None) -> "BilinearForm":
        return cls._read(data, ctx, "form", "entries")


@record(frozen=True)
class QuadraticForm(_Form):
    """Q by the entries of its Chevalley form G_Q (see _Form), the form
    the Clifford kernel acts by: Q(e_i) on the diagonal, the polar value
    of (e_i, e_j), i < j, in row j and column i, zeros above, so that
    G_Q(x, x) = Q(x); the minimal data of Q in every characteristic,
    including 2.  The views are diag, the Q(e_i), and upper, ragged
    (_strict): row i, 0-based, holds the polar values at (e_{i+1}, e_j)
    for j = i+2 .. n."""

    _above = False

    @classmethod
    def make(cls, ctx: AlgebraContext, diag, upper=None) -> "QuadraticForm":
        n = ctx.dim
        d = ctx.coerce_all(diag)
        if len(d) != n:
            raise FormError(f"quadratic form needs {n} diagonal values")
        values = [ctx.field.zero] * n * n
        values[::n + 1] = d
        if upper is not None:
            _laid(ctx, upper, values, n, "strict-upper polar data")
        return cls._entered(ctx, tuple(values))

    @cached_property
    def diag(self) -> tuple:
        return self._scalars[::self.ctx.dim + 1]

    @cached_property
    def upper(self) -> tuple:
        return tuple(self._scalars[cells] for cells in _strict(self.ctx.dim, self.ctx.dim))

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
        """make of data's "diag" and "polar_upper"; its FormError goes
        out as ParseError with its text."""
        shaped(data, dict, "quadratic")
        diag = [ctx.field.parse(v) for v in shaped(data["diag"], list, "diag")]
        upper = _json_rows(ctx.field, data, "polar_upper")
        try:
            return cls.make(ctx, diag, upper)
        except FormError as exc:
            raise ParseError(str(exc)) from None


@record(frozen=True)
class DualTwoForm(_Form):
    """An exterior square of the dual space by its coefficients (see
    _Form): c_ij of e_i* ^ e_j* at (e_i, e_j) for i < j, zeros on and
    below the diagonal.  The view coeffs is ragged like
    QuadraticForm.upper: row i holds c_{i+1, j} for j = i+2 .. n."""

    _above = True

    @classmethod
    def make(cls, ctx: AlgebraContext, coeffs) -> "DualTwoForm":
        values = [ctx.field.zero] * ctx.dim ** 2
        return cls._entered(ctx, tuple(_laid(ctx, coeffs, values, 1, "exterior-square data")))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(self._scalars[cells] for cells in _strict(self.ctx.dim, 1))

    def at(self, i: int, j: int) -> Scalar:
        """Coefficient of e_i* ^ e_j*, requires i < j (1-based)."""
        if not 1 <= i < j <= self.ctx.dim:
            raise FormError(f"need 1 <= i < j <= {self.ctx.dim}, got ({i}, {j})")
        return self.coeffs[i - 1][j - i - 1]

    def to_json(self) -> dict:
        return self._json("coeffs", self.coeffs)

    @classmethod
    def from_json(cls, data: dict, ctx: AlgebraContext | None = None) -> "DualTwoForm":
        return cls._read(data, ctx, "two_form", "coeffs")


def _json_rows(field: Field, data: dict, key: str) -> list:
    """The array of arrays of scalar literals at data[key], parsed."""
    return [[field.parse(v) for v in shaped(row, list, f"{key} row")]
            for row in shaped(data[key], list, key)]


def polar_form(q: QuadraticForm) -> BilinearForm:
    """The symmetric bilinear form x, y -> Q(x+y) - Q(x) - Q(y): G_Q + G_Q^T."""
    n, g = q.ctx.dim, q.nums
    return BilinearForm._made(q.ctx, list(map(add, g, _transposed(g, n))), q.den)


def _quad_nums(f: BilinearForm) -> list:
    """The entries of G_Q, Q = (x -> F(x, x)), over f.den, not made
    canonical: F's diagonal with F + F^T below it, Q's polar form."""
    n, a = f.ctx.dim, f.nums
    return [a[i * n + j] + a[j * n + i] if j < i else a[i * n + i] if j == i else 0
            for i in range(n) for j in range(n)]


def quad_of_bilinear(f: BilinearForm) -> QuadraticForm:
    """The quadratic form x -> F(x, x) (see _quad_nums)."""
    return QuadraticForm._made(f.ctx, _quad_nums(f), f.den)


def triangular_bilinear(q: QuadraticForm) -> BilinearForm:
    """Upper-triangular F with F(x, x) = Q(x) in every characteristic:
    diagonal Q(e_i), above-diagonal the polar values, zero below; G_Q^T."""
    return BilinearForm._of(q.ctx, _transposed(q.nums, q.ctx.dim), q.den)


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
    n = g.ctx.dim
    basis, den = linalg.nullspace_raw([g.nums[i * n:(i + 1) * n] for i in range(n)],
                                      g.ctx.field.char)
    return [Vector._made(g.ctx, v, den) for v in basis]


def dual_two_form(a: BilinearForm) -> DualTwoForm:
    """Exterior-square coefficients of an alternating form.

    The convention c_ij = -A(e_i, e_j) for i < j makes the pairing with
    x ^ y return A(x, y) and makes the paired interior products of the
    Clifford module act correctly; the round-trip test pins it down.
    """
    if not a.is_alternating():
        raise FormError("exterior-square coefficients need an alternating form")
    n = a.ctx.dim
    return DualTwoForm._made(a.ctx, [-x if k % n > k // n else 0 for k, x in enumerate(a.nums)],
                             a.den)


def alt_of_dual(astar: DualTwoForm) -> BilinearForm:
    """Inverse of dual_two_form: C^T - C, C the coefficients' entries."""
    c = astar.nums
    return BilinearForm._made(astar.ctx, list(map(sub, _transposed(c, astar.ctx.dim), c)),
                              astar.den)

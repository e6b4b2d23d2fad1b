"""Coefficient spaces and forms over a fixed based vector space.

An AlgebraContext fixes the dimension n and the field; everything else
(vectors, linear/bilinear/quadratic forms, exterior-square coefficients)
is built against it.  Quadratic forms are stored as the diagonal values
Q(e_i) plus the strictly-upper polar entries -- the minimal data that
determines Q in every characteristic, including 2.

Basis indices are 1-based throughout the public API, matching the word
and blade conventions of the element modules.
"""

from __future__ import annotations

from . import linalg
from .errors import (CharacteristicError, ContextMismatch, FieldMismatch, FormError,
                     ParseError)
from .records import record
from .scalars import Field, Scalar, excerpt, shaped


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


@record(frozen=True)
class Vector:
    ctx: AlgebraContext
    coeffs: tuple

    @classmethod
    def make(cls, ctx: AlgebraContext, values) -> "Vector":
        coeffs = ctx.coerce_all(values)
        if len(coeffs) != ctx.dim:
            raise FormError(f"vector needs {ctx.dim} coefficients, got {len(coeffs)}")
        return cls(ctx, coeffs)

    @classmethod
    def basis(cls, ctx: AlgebraContext, i: int) -> "Vector":
        """The basis vector e_i, 1-based."""
        if not 1 <= i <= ctx.dim:
            raise FormError(f"basis index {i} out of range 1..{ctx.dim}")
        return cls(ctx, tuple(ctx.field(1 if j == i - 1 else 0) for j in range(ctx.dim)))

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "Vector":
        return cls(ctx, tuple(ctx.field.zero for _ in range(ctx.dim)))

    def at(self, i: int) -> Scalar:
        return self.coeffs[i - 1]

    def __add__(self, other: "Vector") -> "Vector":
        same_context(self.ctx, other.ctx)
        return Vector(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Vector") -> "Vector":
        same_context(self.ctx, other.ctx)
        return Vector(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Vector":
        return Vector(self.ctx, tuple(-a for a in self.coeffs))

    def __rmul__(self, s) -> "Vector":
        s = self.ctx.coerce(s)
        return Vector(self.ctx, tuple(s * a for a in self.coeffs))


@record(frozen=True)
class LinearForm:
    """An element of the dual space, stored by its values on the basis."""

    ctx: AlgebraContext
    coeffs: tuple

    @classmethod
    def make(cls, ctx: AlgebraContext, values) -> "LinearForm":
        coeffs = ctx.coerce_all(values)
        if len(coeffs) != ctx.dim:
            raise FormError(f"linear form needs {ctx.dim} coefficients")
        return cls(ctx, coeffs)

    def at(self, i: int) -> Scalar:
        return self.coeffs[i - 1]

    def __call__(self, x: Vector) -> Scalar:
        same_context(self.ctx, x.ctx)
        acc = self.ctx.field.zero
        for a, b in zip(self.coeffs, x.coeffs):
            if a and b:
                acc = acc + a * b
        return acc


@record(frozen=True)
class BilinearForm:
    ctx: AlgebraContext
    rows: tuple  # n x n tuple of tuples of Scalar, rows[i][j] = F(e_{i+1}, e_{j+1})

    @classmethod
    def make(cls, ctx: AlgebraContext, entries) -> "BilinearForm":
        rows = tuple(ctx.coerce_all(r) for r in entries)
        if len(rows) != ctx.dim or any(len(r) != ctx.dim for r in rows):
            raise FormError(f"bilinear form needs a {ctx.dim}x{ctx.dim} matrix")
        return cls(ctx, rows)

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "BilinearForm":
        z = ctx.field.zero
        return cls(ctx, tuple(tuple(z for _ in range(ctx.dim)) for _ in range(ctx.dim)))

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> "BilinearForm":
        n, one, zero = ctx.dim, ctx.field.one, ctx.field.zero
        return cls(ctx, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def at(self, i: int, j: int) -> Scalar:
        """F(e_i, e_j), 1-based."""
        return self.rows[i - 1][j - 1]

    def __call__(self, x: Vector, y: Vector) -> Scalar:
        same_context(self.ctx, x.ctx)
        same_context(self.ctx, y.ctx)
        acc = self.ctx.field.zero
        for i, xi in enumerate(x.coeffs):
            if not xi:
                continue
            row = self.rows[i]
            for j, yj in enumerate(y.coeffs):
                if yj and row[j]:
                    acc = acc + xi * row[j] * yj
        return acc

    def partial_left(self, x: Vector) -> LinearForm:
        """The linear form F(x, .)."""
        same_context(self.ctx, x.ctx)
        n = self.ctx.dim
        coeffs = []
        for j in range(n):
            acc = self.ctx.field.zero
            for i in range(n):
                if x.coeffs[i] and self.rows[i][j]:
                    acc = acc + x.coeffs[i] * self.rows[i][j]
            coeffs.append(acc)
        return LinearForm(self.ctx, tuple(coeffs))

    def __add__(self, other: "BilinearForm") -> "BilinearForm":
        same_context(self.ctx, other.ctx)
        return BilinearForm(self.ctx, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "BilinearForm") -> "BilinearForm":
        return self + (-other)

    def __neg__(self) -> "BilinearForm":
        return BilinearForm(self.ctx, tuple(tuple(-a for a in r) for r in self.rows))

    def __rmul__(self, s) -> "BilinearForm":
        s = self.ctx.coerce(s)
        return BilinearForm(self.ctx, tuple(tuple(s * a for a in r) for r in self.rows))

    def transpose(self) -> "BilinearForm":
        return BilinearForm(self.ctx, tuple(zip(*self.rows)))

    def is_symmetric(self) -> bool:
        n = self.ctx.dim
        return all(self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i + 1, n))

    def is_alternating(self) -> bool:
        # zero diagonal plus antisymmetry; over GF(2) the two conditions
        # together still say exactly F(x, x) = 0 for all x
        n = self.ctx.dim
        if any(self.rows[i][i] for i in range(n)):
            return False
        return all(self.rows[i][j] == -self.rows[j][i]
                   for i in range(n) for j in range(i + 1, n))

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
class QuadraticForm:
    """Q stored as (diagonal values, strictly-upper polar entries).

    upper is a ragged tuple: row i (0-based, i < n-1) holds the polar
    values at (e_{i+1}, e_j) for j = i+2 .. n, 1-based.
    """

    ctx: AlgebraContext
    diag: tuple
    upper: tuple

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
        return cls(ctx, d, up)

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "QuadraticForm":
        return cls.make(ctx, [0] * ctx.dim)

    def value_at(self, i: int) -> Scalar:
        """Q(e_i), 1-based."""
        return self.diag[i - 1]

    def polar(self, i: int, j: int) -> Scalar:
        """The polar form at (e_i, e_j), 1-based; diagonal is 2 Q(e_i)."""
        if i == j:
            return self.diag[i - 1] + self.diag[i - 1]
        if i > j:
            i, j = j, i
        return self.upper[i - 1][j - i - 1]

    def __call__(self, x: Vector) -> Scalar:
        same_context(self.ctx, x.ctx)
        n = self.ctx.dim
        acc = self.ctx.field.zero
        for i in range(n):
            a = x.coeffs[i]
            if not a:
                continue
            acc = acc + a * a * self.diag[i]
            for j in range(i + 1, n):
                b = x.coeffs[j]
                if b and self.upper[i][j - i - 1]:
                    acc = acc + a * b * self.upper[i][j - i - 1]
        return acc

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        same_context(self.ctx, other.ctx)
        return QuadraticForm(
            self.ctx,
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(tuple(a + b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.upper, other.upper)))

    def __sub__(self, other: "QuadraticForm") -> "QuadraticForm":
        return self + (-other)

    def __neg__(self) -> "QuadraticForm":
        return QuadraticForm(self.ctx, tuple(-a for a in self.diag),
                             tuple(tuple(-a for a in row) for row in self.upper))

    def is_zero(self) -> bool:
        return not (any(self.diag) or any(any(row) for row in self.upper))

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
class DualTwoForm:
    """An exterior square of the dual space: coefficients of e_i* ^ e_j*.

    coeffs is ragged like QuadraticForm.upper: row i holds c_{i+1, j}
    for j = i+2 .. n.
    """

    ctx: AlgebraContext
    coeffs: tuple

    @classmethod
    def make(cls, ctx: AlgebraContext, coeffs) -> "DualTwoForm":
        n = ctx.dim
        rows = tuple(ctx.coerce_all(row) for row in coeffs)
        if len(rows) != max(n - 1, 0) or any(len(row) != n - 1 - i for i, row in enumerate(rows)):
            raise FormError("exterior-square data has the wrong shape")
        return cls(ctx, rows)

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "DualTwoForm":
        return cls.make(ctx, [[0] * (ctx.dim - 1 - i) for i in range(ctx.dim - 1)])

    def at(self, i: int, j: int) -> Scalar:
        """Coefficient of e_i* ^ e_j*, requires i < j (1-based)."""
        if not 1 <= i < j <= self.ctx.dim:
            raise FormError(f"need 1 <= i < j <= {self.ctx.dim}, got ({i}, {j})")
        return self.coeffs[i - 1][j - i - 1]

    def __neg__(self) -> "DualTwoForm":
        return DualTwoForm(self.ctx, tuple(tuple(-a for a in row) for row in self.coeffs))

    def __add__(self, other: "DualTwoForm") -> "DualTwoForm":
        same_context(self.ctx, other.ctx)
        return DualTwoForm(self.ctx, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.coeffs, other.coeffs)))

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
    """The symmetric bilinear form x, y -> Q(x+y) - Q(x) - Q(y)."""
    n = q.ctx.dim
    return BilinearForm(q.ctx, tuple(
        tuple(q.polar(i, j) for j in range(1, n + 1)) for i in range(1, n + 1)))


def quad_of_bilinear(f: BilinearForm) -> QuadraticForm:
    """The quadratic form x -> F(x, x); its polar is F + F^T."""
    n = f.ctx.dim
    diag = tuple(f.rows[i][i] for i in range(n))
    upper = tuple(
        tuple(f.rows[i][j] + f.rows[j][i] for j in range(i + 1, n))
        for i in range(n - 1))
    return QuadraticForm(f.ctx, diag, upper)


def triangular_bilinear(q: QuadraticForm) -> BilinearForm:
    """Upper-triangular F with F(x, x) = Q(x) in every characteristic:
    diagonal Q(e_i), above-diagonal the polar values, zero below."""
    n = q.ctx.dim
    zero = q.ctx.field.zero
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j < i:
                row.append(zero)
            elif j == i:
                row.append(q.value_at(i))
            else:
                row.append(q.polar(i, j))
        rows.append(tuple(row))
    return BilinearForm(q.ctx, tuple(rows))


def split_sym_alt(f: BilinearForm):
    """Split F = g + A with g symmetric and A alternating (char != 2)."""
    if f.ctx.field.char == 2:
        raise CharacteristicError("symmetric/alternating split needs 1/2, undefined in char 2")
    half = f.ctx.field(1) / f.ctx.field(2)
    ft = f.transpose()
    g = half * (f + ft)
    a = half * (f - ft)
    return g, a


def pfaffian(a: BilinearForm) -> Scalar:
    """Pfaffian of an even-dimensional alternating form, by congruence
    elimination in O(n^3).  With the first nonzero entry a_1j of row 1
    as pivot, swapping indices 2 and j flips the sign, and then
    Pf(a) = a_12 Pf(S) with S the alternating Schur complement
    S_kl = a_kl + (a_2k a_1l - a_1k a_2l) / a_12 on the indices k, l >= 3.
    A zero row 1 makes the Pfaffian 0."""
    if not a.is_alternating():
        raise FormError("pfaffian needs an alternating form")
    if a.ctx.dim % 2:
        raise FormError("pfaffian needs even dimension")
    m = [list(r) for r in a.rows]
    acc = a.ctx.field.one
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
        inv = r0[1].inverse()
        m = [[rk[l] + (r1[k] * r0[l] - r0[k] * r1[l]) * inv for l in range(2, len(rk))]
             for k, rk in enumerate(m) if k >= 2]
    return acc


def right_radical(g: BilinearForm):
    """Basis of {w : G(v, w) = 0 for all v} as a list of Vectors."""
    basis = linalg.nullspace(g.matrix())
    return [Vector(g.ctx, tuple(v)) for v in basis]


def dual_two_form(a: BilinearForm) -> DualTwoForm:
    """Exterior-square coefficients of an alternating form.

    The convention c_ij = -A(e_i, e_j) for i < j makes the pairing with
    x ^ y return A(x, y) and makes the paired interior products of the
    Clifford module act correctly; the round-trip test pins it down.
    """
    if not a.is_alternating():
        raise FormError("exterior-square coefficients need an alternating form")
    n = a.ctx.dim
    return DualTwoForm(a.ctx, tuple(
        tuple(-a.rows[i][j] for j in range(i + 1, n)) for i in range(n - 1)))


def alt_of_dual(astar: DualTwoForm) -> BilinearForm:
    """Inverse of dual_two_form."""
    n = astar.ctx.dim
    zero = astar.ctx.field.zero
    rows = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            c = astar.at(i, j)
            rows[i - 1][j - 1] = -c
            rows[j - 1][i - 1] = c
    return BilinearForm(astar.ctx, tuple(tuple(r) for r in rows))

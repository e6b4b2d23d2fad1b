"""Seeded random generators for property checks and the CLI suites.

Every generator takes an explicit random.Random so runs are reproducible
from a seed.  Coefficients are kept small: identities are linear in each
argument, so small witnesses are as convincing as large ones and keep
exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .clifford import CliffElt, CliffordContext
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, LinearForm,
                    QuadraticForm, Vector)
from .scalars import Field, Scalar
from .tensor import TensorElt


def rand_scalar(rng: random.Random, field: Field, span: int = 5, nonzero: bool = False) -> Scalar:
    if field.char:
        lo = 1 if nonzero else 0
        return field(rng.randrange(lo, field.char))
    num = rng.randint(-span, span)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, span)
    den = rng.choice((1, 1, 1, 2, 3))
    return field(num if den == 1 else Fraction(num, den))


def rand_vector(rng, ctx: AlgebraContext) -> Vector:
    return Vector(ctx, tuple(rand_scalar(rng, ctx.field) for _ in range(ctx.dim)))


def rand_linear_form(rng, ctx: AlgebraContext) -> LinearForm:
    return LinearForm(ctx, tuple(rand_scalar(rng, ctx.field) for _ in range(ctx.dim)))


def rand_bilinear(rng, ctx: AlgebraContext) -> BilinearForm:
    return BilinearForm.make(ctx, [[rand_scalar(rng, ctx.field) for _ in range(ctx.dim)]
                                   for _ in range(ctx.dim)])


def rand_symmetric(rng, ctx: AlgebraContext) -> BilinearForm:
    n = ctx.dim
    m = [[ctx.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_scalar(rng, ctx.field)
            m[i][j] = v
            m[j][i] = v
    return BilinearForm.make(ctx, m)


def rand_alternating(rng, ctx: AlgebraContext) -> BilinearForm:
    n = ctx.dim
    m = [[ctx.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_scalar(rng, ctx.field)
            m[i][j] = v
            m[j][i] = -v
    return BilinearForm.make(ctx, m)


def rand_quadratic(rng, ctx: AlgebraContext) -> QuadraticForm:
    n = ctx.dim
    diag = [rand_scalar(rng, ctx.field) for _ in range(n)]
    upper = [[rand_scalar(rng, ctx.field) for _ in range(n - 1 - i)] for i in range(n - 1)]
    return QuadraticForm.make(ctx, diag, upper)


def rand_dual_two_form(rng, ctx: AlgebraContext) -> DualTwoForm:
    n = ctx.dim
    return DualTwoForm.make(ctx, [
        [rand_scalar(rng, ctx.field) for _ in range(n - 1 - i)] for i in range(n - 1)])


def rand_word(rng, ctx: AlgebraContext, max_len: int) -> tuple:
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, ctx.dim) for _ in range(length))


def rand_tensor(rng, ctx: AlgebraContext, max_grade: int = 4, terms: int = 3) -> TensorElt:
    out = TensorElt.zero(ctx)
    for _ in range(terms):
        word = rand_word(rng, ctx, max_grade)
        out = out + TensorElt.from_word(ctx, word, rand_scalar(rng, ctx.field))
    return out


def rand_blade(rng, ctx: AlgebraContext) -> tuple:
    size = rng.randint(0, ctx.dim)
    return tuple(sorted(rng.sample(range(1, ctx.dim + 1), size)))


def rand_cliff(rng, cctx: CliffordContext, terms: int = 3) -> CliffElt:
    out = CliffElt.zero(cctx)
    for _ in range(terms):
        blade = rand_blade(rng, cctx.ctx)
        out = out + CliffElt.blade(cctx, blade, rand_scalar(rng, cctx.field))
    return out

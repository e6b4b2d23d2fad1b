"""Seeded random generators for property checks and the CLI suites.

Every generator takes an explicit random.Random so runs are reproducible
from a seed.  Coefficients are kept small: identities are linear in each
argument, so small witnesses are as convincing as large ones and keep
exact arithmetic fast.

The draw contract, which the suites' digests pin: one coefficient is
one _draw, over GF(p) randrange(1 if nonzero else 0, p), over Q
randint(-span, span), then if nonzero and it drew 0
choice((-1, 1)) * randint(1, span), then the denominator
choice((1, 1, 1, 2, 3)).  A generator makes its draws in this order:

    rand_scalar, rand_vector,       one draw; dim draws, coordinate order
      rand_linear_form
    rand_bilinear                   dim^2 draws, row-major
    rand_symmetric                  (i, j) for i <= j, row-major
    rand_alternating                (i, j) for i < j, row-major; (j, i) = -(i, j)
    rand_quadratic                  the dim Q(e_i), then the polar values
                                    at (e_i, e_j), i < j, row-major
    rand_dual_two_form              c_ij for i < j, row-major
    rand_word                       randint(0, max_len), then one
                                    randint(1, dim) per letter
    rand_blade                      size = randint(0, dim), then a sample
                                    of size from the dim indices
    rand_tensor, rand_cliff         per term a word (a blade), then its
                                    draw; rand_tensor then refuses a
                                    word over the grade cap

A Scalar is made only where the result is one (rand_scalar).  Vectors,
linear forms, forms and elements are built as the records' canonical
integer data: the draws over the lcm of their denominators, laid out
where the record keeps them and made canonical once (forms._canonical,
or an element's _made), with no Scalar per coefficient.  Colliding
terms of an element are summed in that one pass, and terms that cancel
leave no key.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .clifford import CliffElt, CliffordContext, index_subset
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, LinearForm,
                    QuadraticForm, Vector, _canonical)
from .scalars import Field, Scalar
from .tensor import TensorElt, _check_grade


def _draw(rng: random.Random, p: int, span: int = 5, nonzero: bool = False) -> tuple:
    """One coefficient as (num, den) ints: a residue over 1 over GF(p),
    over Q a numerator and a denominator in 1..3, not reduced."""
    if p:
        return rng.randrange(1 if nonzero else 0, p), 1
    num = rng.randint(-span, span)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, span)
    return num, rng.choice((1, 1, 1, 2, 3))


def _draws(rng: random.Random, p: int, count: int) -> tuple:
    """count draws in turn, as raw int nums over the lcm of their dens."""
    draws = [_draw(rng, p) for _ in range(count)]
    den = lcm(*[d for _, d in draws])
    return [x * (den // d) for x, d in draws], den


def _form(cls, rng: random.Random, ctx: AlgebraContext, cells: list, mirror: int = 0):
    """The form of one draw at each (i, j) of cells, in turn, and when
    mirror is nonzero mirror times it at (j, i); zeros elsewhere."""
    n = ctx.dim
    nums, den = _draws(rng, ctx.field.char, len(cells))
    out = [0] * (n * n)
    for (i, j), x in zip(cells, nums):
        if mirror:
            out[j * n + i] = mirror * x
        out[i * n + j] = x
    return cls(ctx, *_canonical(ctx.field, out, den))


def _summed(cls, home, keys: list, draws: list):
    """The element sum of draws[t] at keys[t], over one den and made
    canonical once; colliding keys add up and cancelled ones drop."""
    den = lcm(*[d for _, d in draws])
    out = {}
    get = out.get
    for key, (x, d) in zip(keys, draws):
        out[key] = get(key, 0) + x * (den // d)
    return cls._made(home, out, out.values(), den)


def rand_scalar(rng, field: Field, span: int = 5, nonzero: bool = False) -> Scalar:
    num, den = _draw(rng, field.char, span, nonzero)
    return field(num if den == 1 else Fraction(num, den))


def rand_vector(rng, ctx: AlgebraContext) -> Vector:
    return Vector(ctx, *_canonical(ctx.field, *_draws(rng, ctx.field.char, ctx.dim)))


def rand_linear_form(rng, ctx: AlgebraContext) -> LinearForm:
    return LinearForm(ctx, *_canonical(ctx.field, *_draws(rng, ctx.field.char, ctx.dim)))


def rand_bilinear(rng, ctx: AlgebraContext) -> BilinearForm:
    nums, den = _draws(rng, ctx.field.char, ctx.dim ** 2)
    return BilinearForm(ctx, *_canonical(ctx.field, nums, den))


def rand_symmetric(rng, ctx: AlgebraContext) -> BilinearForm:
    n = ctx.dim
    return _form(BilinearForm, rng, ctx, [(i, j) for i in range(n) for j in range(i, n)], 1)


def rand_alternating(rng, ctx: AlgebraContext) -> BilinearForm:
    n = ctx.dim
    return _form(BilinearForm, rng, ctx, [(i, j) for i in range(n) for j in range(i + 1, n)], -1)


def rand_quadratic(rng, ctx: AlgebraContext) -> QuadraticForm:
    """Q(e_i) on G_Q's diagonal, then the polar value of (e_i, e_j),
    i < j, in row j and column i (see QuadraticForm)."""
    n = ctx.dim
    return _form(QuadraticForm, rng, ctx, [(i, i) for i in range(n)]
                 + [(j, i) for i in range(n) for j in range(i + 1, n)])


def rand_dual_two_form(rng, ctx: AlgebraContext) -> DualTwoForm:
    n = ctx.dim
    return _form(DualTwoForm, rng, ctx, [(i, j) for i in range(n) for j in range(i + 1, n)])


def rand_word(rng, ctx: AlgebraContext, max_len: int) -> tuple:
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, ctx.dim) for _ in range(length))


def rand_tensor(rng, ctx: AlgebraContext, max_grade: int = 4, terms: int = 3) -> TensorElt:
    keys, draws = [], []
    for _ in range(terms):
        keys.append(rand_word(rng, ctx, max_grade))
        draws.append(_draw(rng, ctx.field.char))
        _check_grade(len(keys[-1]))
    return _summed(TensorElt, ctx, keys, draws)


def _mask(rng: random.Random, n: int) -> int:
    """rand_blade's draws as the blade's mask: sample picks its indices
    from the population's length alone, so range(n) draws what
    range(1, n + 1) does, one less."""
    return sum([1 << i for i in rng.sample(range(n), rng.randint(0, n))])


def rand_blade(rng, ctx: AlgebraContext) -> tuple:
    return index_subset(_mask(rng, ctx.dim))


def rand_cliff(rng, cctx: CliffordContext, terms: int = 3) -> CliffElt:
    keys, draws = [], []
    for _ in range(terms):
        keys.append(_mask(rng, cctx.dim))
        draws.append(_draw(rng, cctx.field.char))
    return _summed(CliffElt, cctx, keys, draws)

"""Seeded random generators for property checks and the CLI suites.

Every generator takes an explicit random.Random so runs are reproducible
from a seed.  Coefficients are kept small: identities are linear in each
argument, so small witnesses are as convincing as large ones and keep
exact arithmetic fast.

The draw contract, which the suites' digests pin, is a sequence of
getrandbits calls.  An int below m >= 1, written below(m), is what
random.Random's randrange, randint and choice draw (_below): r =
getrandbits(k), k = m.bit_length(), drawn again while r >= m.  One
coefficient is one _draw: over GF(p) below(p), or 1 + below(p - 1) if
nonzero; over Q the numerator below(2 span + 1) - span, then if
nonzero and it drew 0 the sign (-1, 1)[below(2)] times
1 + below(span), then the denominator (1, 1, 1, 2, 3)[below(5)].  A
generator makes its draws in this order:

    rand_scalar, rand_vector,       one draw; dim draws, coordinate order
      rand_linear_form
    rand_bilinear                   dim^2 draws, row-major
    rand_symmetric                  (i, j) for i <= j, row-major
    rand_alternating                (i, j) for i < j, row-major; (j, i) = -(i, j)
    rand_quadratic                  the dim Q(e_i), then the polar values
                                    at (e_i, e_j), i < j, row-major
    rand_dual_two_form              c_ij for i < j, row-major
    rand_word                       below(max_len + 1) letters, each
                                    1 + below(dim)
    rand_blade                      size = below(dim + 1), then the
                                    indices random.Random.sample(range(dim),
                                    size) picks: for dim <= 21 from a pool
                                    of the dim indices, each below(what is
                                    left) and its slot refilled by the
                                    pool's last (_mask)
    rand_tensor, rand_cliff         per term a word (a blade), then its
                                    draw; rand_tensor then refuses a
                                    word over the grade cap

A Scalar is made only where the result is one (rand_scalar).  Vectors,
linear forms, forms and elements are built as the records' canonical
integer data: the draws over the lcm of their denominators, laid out
where the record keeps them and made canonical once (the record's
_made), with no Scalar per coefficient.  Colliding terms of an element
are summed in that one pass, and terms that cancel leave no key.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .clifford import CliffElt, CliffordContext, index_subset
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, LinearForm,
                    QuadraticForm, Vector)
from .scalars import Field, Scalar
from .tensor import TensorElt, _check_grade


def _below(bits, m: int) -> int:
    """An int in [0, m), m >= 1, from bits, a random.Random's
    getrandbits, drawn as its randrange, randint and choice draw it."""
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


_DENS = (1, 1, 1, 2, 3)


def _draw(rng: random.Random, p: int, span: int = 5, nonzero: bool = False) -> tuple:
    """One coefficient as (num, den) ints: a residue over 1 over GF(p),
    over Q a numerator and a denominator in 1..3, not reduced."""
    bits = rng.getrandbits
    if p:
        return (1 + _below(bits, p - 1) if nonzero else _below(bits, p)), 1
    num = _below(bits, 2 * span + 1) - span
    if nonzero and num == 0:
        num = (2 * _below(bits, 2) - 1) * (1 + _below(bits, span))
    return num, _DENS[_below(bits, 5)]


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
    return cls._made(ctx, out, den)


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
    return Vector._made(ctx, *_draws(rng, ctx.field.char, ctx.dim))


def rand_linear_form(rng, ctx: AlgebraContext) -> LinearForm:
    return LinearForm._made(ctx, *_draws(rng, ctx.field.char, ctx.dim))


def rand_bilinear(rng, ctx: AlgebraContext) -> BilinearForm:
    return BilinearForm._made(ctx, *_draws(rng, ctx.field.char, ctx.dim ** 2))


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
    bits, n = rng.getrandbits, ctx.dim
    return tuple([1 + _below(bits, n) for _ in range(_below(bits, max_len + 1))])


def rand_tensor(rng, ctx: AlgebraContext, max_grade: int = 4, terms: int = 3) -> TensorElt:
    keys, draws = [], []
    for _ in range(terms):
        keys.append(rand_word(rng, ctx, max_grade))
        draws.append(_draw(rng, ctx.field.char))
        _check_grade(len(keys[-1]))
    return _summed(TensorElt, ctx, keys, draws)


def _mask(rng: random.Random, n: int) -> int:
    """rand_blade's draws as the blade's mask.  random.Random.sample picks
    its indices from the population's length alone, so range(n) draws
    what range(1, n + 1) does, one less; up to n = 21 it always draws
    from a pool, as here, and above it this calls it."""
    bits = rng.getrandbits
    size = _below(bits, n + 1)
    if n > 21:
        return sum([1 << i for i in rng.sample(range(n), size)])
    pool, m = list(range(n)), 0
    for left in range(n, n - size, -1):
        j = _below(bits, left)
        m |= 1 << pool[j]
        pool[j] = pool[left - 1]
    return m


def rand_blade(rng, ctx: AlgebraContext) -> tuple:
    return index_subset(_mask(rng, ctx.dim))


def rand_cliff(rng, cctx: CliffordContext, terms: int = 3) -> CliffElt:
    keys, draws = [], []
    for _ in range(terms):
        keys.append(_mask(rng, cctx.dim))
        draws.append(_draw(rng, cctx.field.char))
    return _summed(CliffElt, cctx, keys, draws)

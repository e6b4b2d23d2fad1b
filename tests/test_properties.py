"""Property tests over random fields, dimensions and sparse elements:
the deformation by -F inverts the deformation by F, in the Clifford and
the tensor algebra, products agree with the relation oracle, the
deformation reads only the strict upper part of F, the divided
powers add up to the tensor deformation, and vectors and linear forms,
held as integer data, compute what their coordinates do one by one."""

import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cliffbundle import (AlgebraContext, BilinearForm, CliffElt,  # noqa: E402
                         CliffordContext, Field, LinearForm, QuadraticForm, TensorElt,
                         Vector, deform, divided_power, sampling, tensor_deform)
from cliffbundle.clifford import contract as cliff_contract  # noqa: E402
from cliffbundle.tensor import contract as tensor_contract  # noqa: E402

from oracles import (bilinear_sum, contract_loop, dot, left_partial, lin_comb,  # noqa: E402
                     quadratic_sum, raw_terms, word_sum)

FIELDS = (Field(0), Field(2), Field(3), Field(7))
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=13)


def _coefficients(field):
    return RATIONAL if field.char == 0 else st.integers(0, field.char - 1).map(Fraction)


@st.composite
def algebras(draw):
    """(Clifford context, bilinear form, three sparse elements)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    ctx = AlgebraContext(n, field)
    coeff = _coefficients(field)

    def scalars(k):
        return draw(st.lists(coeff, min_size=k, max_size=k))

    q = QuadraticForm.make(ctx, scalars(n), [scalars(n - 1 - i) for i in range(n - 1)])
    F = BilinearForm.make(ctx, [scalars(n) for _ in range(n)])
    blades = st.lists(st.integers(1, n), max_size=n, unique=True).map(lambda b: tuple(sorted(b)))
    elts = [draw(st.dictionaries(blades, coeff, max_size=4)) for _ in range(3)]
    return CliffordContext(q), F, [{b: ctx.coerce(c) for b, c in e.items()} for e in elts]


@settings(max_examples=60, deadline=None, database=None)
@given(algebras())
def test_deform_inverse_and_product(data):
    cctx, F, (u_terms, v_terms, w_terms) = data
    w = CliffElt(cctx.shift(F), w_terms)
    assert deform(-F, deform(F, w)) == w
    u, v = CliffElt(cctx, u_terms), CliffElt(cctx, v_terms)
    pairs = [(a + b, c * d) for a, c in u.terms.items() for b, d in v.terms.items()]
    assert (u * v).terms == word_sum(cctx.quadratic, pairs)


@settings(max_examples=60, deadline=None, database=None)
@given(algebras(), st.data())
def test_deform_reads_only_the_strict_upper_part(data, extra):
    """With L lower triangular, diagonal included, deform by F + L and
    by F give the same coordinates: only F_ij with i < j act on
    increasing blades."""
    cctx, F, (w_terms, _, _) = data
    n, coeff = cctx.dim, _coefficients(cctx.field)
    L = BilinearForm.make(cctx.ctx, [[extra.draw(coeff) if j <= i else 0 for j in range(n)]
                                     for i in range(n)])
    w, w_lower = CliffElt(cctx.shift(F), w_terms), CliffElt(cctx.shift(F + L), w_terms)
    assert deform(F + L, w_lower, target=cctx).terms == deform(F, w, target=cctx).terms


@st.composite
def tensors(draw):
    """(bilinear form, sparse tensor with words up to length 6)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    ctx = AlgebraContext(n, field)
    coeff = _coefficients(field)
    F = BilinearForm.make(ctx, [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(n)])
    words = st.lists(st.integers(1, n), max_size=6).map(tuple)
    u = draw(st.dictionaries(words, coeff, max_size=4))
    return F, TensorElt(ctx, {w: ctx.coerce(c) for w, c in u.items()})


@settings(max_examples=60, deadline=None, database=None)
@given(tensors())
def test_tensor_deform_inverse_and_divided_powers(data):
    F, u = data
    deformed = tensor_deform(F, u)
    assert tensor_deform(-F, deformed) == u
    total = TensorElt.zero(u.ctx)
    for k in range(u.max_grade() // 2 + 1):
        total = total + divided_power(F, k, u)
    assert total == deformed


VECTOR_FIELDS = (Field(0), Field(2), Field(7), Field(2 ** 61 - 1))


@st.composite
def vector_data(draw):
    """A context of dim 1 .. 6 over one of VECTOR_FIELDS and raw values
    (Fractions over Q, else residues): vectors x and y, a scalar s, a
    linear form f, a bilinear form F, a quadratic form's diag and polar
    values, a sparse element's blades and a sparse tensor's words."""
    field = draw(st.sampled_from(VECTOR_FIELDS))
    n = draw(st.integers(1, 6))
    coeff = RATIONAL if field.char == 0 else st.integers(0, field.char - 1)

    def values(k):
        return draw(st.lists(coeff, min_size=k, max_size=k))

    blades = st.lists(st.integers(1, n), max_size=n, unique=True).map(lambda b: tuple(sorted(b)))
    words = st.lists(st.integers(1, n), max_size=4).map(tuple)
    return SimpleNamespace(
        ctx=AlgebraContext(n, field), x=values(n), y=values(n), s=draw(coeff), f=values(n),
        F=[values(n) for _ in range(n)], diag=values(n),
        upper=[values(n - 1 - i) for i in range(n - 1)],
        w=draw(st.dictionaries(blades, coeff, max_size=4)),
        u=draw(st.dictionaries(words, coeff, max_size=4)), seed=draw(st.integers(0, 2 ** 32)))


def _values(rec):
    return [c.value for c in rec.coeffs]


def _canonical(rec):
    """rec's data are canonical and read back as its coeffs."""
    p = rec.ctx.field.char
    assert type(rec.nums) is tuple and len(rec.nums) == rec.ctx.dim
    if p:
        assert rec.den == 1 and all(0 <= x < p for x in rec.nums)
    else:
        assert rec.den > 0 and gcd(rec.den, *rec.nums) == 1
    assert _values(rec) == [Fraction(x, rec.den) for x in rec.nums]


def _one(a, b):
    """a and b are one record: equal and hash equal."""
    assert a == b and hash(a) == hash(b)


@settings(max_examples=150, deadline=None, database=None)
@given(vector_data())
def test_vectors_and_linear_forms_match_the_coordinate_oracle(d):
    ctx, p = d.ctx, d.ctx.field.char
    x, y = Vector.make(ctx, d.x), Vector.make(ctx, d.y)
    f, s = LinearForm.make(ctx, d.f), ctx.coerce(d.s)
    F = BilinearForm.make(ctx, d.F)
    q = QuadraticForm.make(ctx, d.diag, d.upper)
    xr = lin_comb(1, d.x, 0, d.y, p)
    for got, a, b in ((x + y, 1, 1), (x - y, 1, -1), (-x, -1, 0), (s * x, d.s, 0),
                      (x, 1, 0)):
        _canonical(got)
        assert _values(got) == lin_comb(a, d.x, b, d.y, p)
        _one(got, Vector.make(ctx, lin_comb(a, d.x, b, d.y, p)))
    _one((x + y) - y, x)
    _one(x - x, Vector.zero(ctx))
    _one(ctx.coerce(2) * x, x + x)
    assert F(x, y).value == bilinear_sum(d.F, d.x, d.y, p)
    assert q(x).value == quadratic_sum(d.diag, d.upper, d.x, p)
    assert f(x).value == dot(d.f, d.x, p)
    partial = F.partial_left(x)
    _canonical(partial)
    assert type(partial) is LinearForm and _values(partial) == left_partial(d.F, d.x, p)
    _one(partial, LinearForm.make(ctx, left_partial(d.F, d.x, p)))
    cctx = CliffordContext(q)
    letters = {(i,): c for i, c in enumerate(xr, 1) if c}
    assert raw_terms(CliffElt.from_vector(cctx, x)) == letters
    assert raw_terms(TensorElt.from_vector(x)) == letters
    w = CliffElt(cctx, {b: ctx.coerce(c) for b, c in d.w.items()})
    u = TensorElt(ctx, {b: ctx.coerce(c) for b, c in d.u.items()})
    assert raw_terms(cliff_contract(f, w)) == contract_loop(d.f, raw_terms(w), p)
    assert raw_terms(tensor_contract(f, u)) == contract_loop(d.f, raw_terms(u), p)
    drawn = sampling.rand_vector(random.Random(d.seed), ctx)
    _canonical(drawn)
    _one(drawn, Vector.make(ctx, drawn.coeffs))
    _one(drawn, Vector.make(ctx, _values(drawn)) + Vector.zero(ctx))
    form = sampling.rand_linear_form(random.Random(d.seed), ctx)
    _canonical(form)
    assert form != drawn and (form.nums, form.den) == (drawn.nums, drawn.den)

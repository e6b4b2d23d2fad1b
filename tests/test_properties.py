"""Property tests over random fields, dimensions and sparse elements:
the deformation by -F inverts the deformation by F, in the Clifford and
the tensor algebra, products agree with the relation oracle, the
deformation reads only the strict upper part of F, and the divided
powers add up to the tensor deformation."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cliffbundle import (AlgebraContext, BilinearForm, CliffElt,  # noqa: E402
                         CliffordContext, Field, QuadraticForm, TensorElt,
                         deform, divided_power, tensor_deform)

from oracles import word_sum  # noqa: E402

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

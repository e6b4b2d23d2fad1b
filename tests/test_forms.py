"""Bilinear, quadratic and alternating forms; Pfaffians; the dual-side
two-form dictionary."""

import random

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CharacteristicError,
                         CheckResult, CliffordContext, ContextMismatch,
                         EndoMatrix, EquivalenceReport, Field, FormError,
                         LinearForm, ParseError, ProbeReport, QuadraticForm,
                         RATIONALS, Vector, alt_of_dual, dual_two_form,
                         pfaffian, polar_form, quad_of_bilinear, right_radical,
                         split_sym_alt, triangular_bilinear)
from cliffbundle import linalg
from cliffbundle.sampling import (rand_alternating, rand_bilinear,
                                  rand_quadratic, rand_vector)

from oracles import det_perm_sum, pfaffian_matchings

FIELDS = (RATIONALS, Field(2), Field(7))


def test_polar_of_quadratic():
    rng = random.Random(3)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(50):
            q = rand_quadratic(rng, ctx)
            x = rand_vector(rng, ctx)
            y = rand_vector(rng, ctx)
            assert polar_form(q)(x, y) == q(x + y) - q(x) - q(y)


def test_polar_diagonal_is_twice_q():
    ctx = AlgebraContext(3, RATIONALS)
    q = QuadraticForm.make(ctx, [1, 2, 3], [[4, 5], [6]])
    for i in range(1, 4):
        e = Vector.basis(ctx, i)
        assert q.polar(i, i) == 2 * q(e)


def test_quadratic_of_bilinear():
    rng = random.Random(5)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(50):
            f = rand_bilinear(rng, ctx)
            x = rand_vector(rng, ctx)
            assert quad_of_bilinear(f)(x) == f(x, x)


def test_triangular_bilinear_rebuilds_q():
    # valid in every characteristic, exhaustive over GF(2)
    rng = random.Random(9)
    for n in range(1, 5):
        ctx = AlgebraContext(n, Field(2))
        for _ in range(20):
            q = rand_quadratic(rng, ctx)
            f = triangular_bilinear(q)
            assert quad_of_bilinear(f) == q
            for bits in range(1 << n):
                x = Vector.make(ctx, [(bits >> i) & 1 for i in range(n)])
                assert f(x, x) == q(x)


def test_split_sym_alt():
    rng = random.Random(1)
    for field in (RATIONALS, Field(7)):
        ctx = AlgebraContext(4, field)
        for _ in range(30):
            f = rand_bilinear(rng, ctx)
            g, a = split_sym_alt(f)
            assert g.is_symmetric()
            assert a.is_alternating()
            assert g + a == f


def test_split_rejects_char_two():
    ctx = AlgebraContext(2, Field(2))
    with pytest.raises(CharacteristicError):
        split_sym_alt(BilinearForm.identity(ctx))


def test_pfaffian_two_by_two():
    ctx = AlgebraContext(2, RATIONALS)
    a = BilinearForm.make(ctx, [[0, 5], [-5, 0]])
    assert pfaffian(a) == RATIONALS(5)


def test_pfaffian_four_by_four_formula():
    rng = random.Random(21)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(30):
        a = rand_alternating(rng, ctx)
        expected = (a.at(1, 2) * a.at(3, 4) - a.at(1, 3) * a.at(2, 4)
                    + a.at(1, 4) * a.at(2, 3))
        assert pfaffian(a) == expected


def test_pfaffian_matches_matching_sum():
    rng = random.Random(33)
    for field in (RATIONALS, Field(7)):
        for n in (2, 4, 6):
            ctx = AlgebraContext(n, field)
            for _ in range(10):
                a = rand_alternating(rng, ctx)
                assert pfaffian(a) == pfaffian_matchings(a)


def test_pfaffian_squares_to_det():
    rng = random.Random(41)
    for field in (RATIONALS, Field(7)):
        for n in (2, 4, 6):
            ctx = AlgebraContext(n, field)
            for _ in range(10):
                a = rand_alternating(rng, ctx)
                assert pfaffian(a) * pfaffian(a) == linalg.det(a.matrix())


def test_det_against_leibniz_sum():
    rng = random.Random(43)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(10):
        m = rand_bilinear(rng, ctx).matrix()
        assert linalg.det(m) == det_perm_sum(m)


def test_pfaffian_rejects_bad_input():
    ctx3 = AlgebraContext(3, RATIONALS)
    with pytest.raises(FormError):
        pfaffian(BilinearForm.zero(ctx3))  # odd size
    ctx2 = AlgebraContext(2, RATIONALS)
    with pytest.raises(FormError):
        pfaffian(BilinearForm.identity(ctx2))  # not alternating


def test_right_radical():
    rng = random.Random(17)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(20):
        g = rand_bilinear(rng, ctx)
        rows = [list(r) for r in g.rows]
        for i in range(4):
            rows[i][2] = RATIONALS.zero
        g = BilinearForm.make(ctx, rows)
        rad = right_radical(g)
        assert rad
        for r in rad:
            for x_idx in range(1, 5):
                assert g(Vector.basis(ctx, x_idx), r) == RATIONALS.zero


def test_dual_two_form_round_trip():
    rng = random.Random(19)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(30):
            a = rand_alternating(rng, ctx)
            assert alt_of_dual(dual_two_form(a)) == a


def test_dual_two_form_convention():
    # n = 2, A(e1, e2) = 1: the dual element carries the single
    # coefficient -1 in our pairing convention
    ctx = AlgebraContext(2, RATIONALS)
    a = BilinearForm.make(ctx, [[0, 1], [-1, 0]])
    astar = dual_two_form(a)
    assert astar.at(1, 2) == RATIONALS(-1)
    assert alt_of_dual(astar) == a


def test_dual_two_form_rejects_non_alternating():
    ctx = AlgebraContext(2, RATIONALS)
    with pytest.raises(FormError):
        dual_two_form(BilinearForm.identity(ctx))


def test_form_json_round_trip():
    rng = random.Random(23)
    for field in FIELDS:
        ctx = AlgebraContext(3, field)
        f = rand_bilinear(rng, ctx)
        assert BilinearForm.from_json(f.to_json()) == f
        q = rand_quadratic(rng, ctx)
        assert QuadraticForm.from_json(ctx, q.to_json()) == q


def test_vector_and_form_context_guards():
    ctx3 = AlgebraContext(3, RATIONALS)
    ctx4 = AlgebraContext(4, RATIONALS)
    x3 = Vector.basis(ctx3, 1)
    x4 = Vector.basis(ctx4, 1)
    with pytest.raises(Exception):
        x3 + x4
    q3 = QuadraticForm.zero(ctx3)
    with pytest.raises(Exception):
        q3(x4)


def test_context_mismatch_names_both_contexts():
    with pytest.raises(ContextMismatch) as info:
        Vector.basis(AlgebraContext(2, RATIONALS), 1) + Vector.basis(AlgebraContext(3, Field(7)), 1)
    assert str(info.value) == (
        "contexts differ: AlgebraContext(dim=2, field=Field(Q), grade_cap=16) "
        "vs AlgebraContext(dim=3, field=Field(Fp:7), grade_cap=16)")


def test_context_equality_ignores_grade_cap():
    a = AlgebraContext(3, RATIONALS)
    b = AlgebraContext(3, Field(0), grade_cap=4)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != AlgebraContext(3, Field(7)) and a != AlgebraContext(2, RATIONALS)
    assert AlgebraContext(dim=3, field=RATIONALS).grade_cap == 16
    assert repr(b) == "AlgebraContext(dim=3, field=Field(Q), grade_cap=4)"


def test_records_compare_fields_within_one_class():
    ctx = AlgebraContext(2, Field(7))
    coeffs = ctx.coerce_all([1, 3])
    assert Vector(ctx, coeffs) == Vector.make(ctx, [8, 10])
    assert hash(Vector(ctx, coeffs)) == hash(Vector.make(ctx, [8, 10]))
    assert Vector(ctx, coeffs) != LinearForm(ctx, coeffs)
    assert Vector(ctx, coeffs) != Vector.make(ctx, [1, 4])
    q = QuadraticForm.make(ctx, [1, 2], [[3]])
    assert CliffordContext(q) == CliffordContext(QuadraticForm.make(ctx, [8, 2], [[10]]))
    assert CliffordContext(q) != CliffordContext.exterior(ctx)


def test_frozen_records_refuse_assignment():
    ctx = AlgebraContext(2, RATIONALS)
    q = QuadraticForm.zero(ctx)
    for obj, name in ((ctx, "dim"), (ctx, "grade_cap"), (RATIONALS, "char"), (q, "diag"),
                      (CliffordContext(q), "quadratic"), (EndoMatrix.identity(ctx), "entries")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert ctx.dim == 2 and RATIONALS.char == 0


def test_record_constructor_arguments():
    with pytest.raises(TypeError):
        AlgebraContext(2)
    with pytest.raises(TypeError):
        AlgebraContext(2, RATIONALS, 16, 0)
    with pytest.raises(TypeError):
        AlgebraContext(2, RATIONALS, dim=3)
    with pytest.raises(TypeError):
        AlgebraContext(2, RATIONALS, cap=3)
    with pytest.raises(ValueError):
        AlgebraContext(0, RATIONALS)
    with pytest.raises(ValueError):
        Field(4)


def test_reports_are_unhashable_values():
    reports = [EquivalenceReport(identity="x", samples=1, failures=[], seed=0),
               ProbeReport(seed=0, dims=(), bases=()),
               CheckResult("c", 0, 1, 1, 0, [])]
    for report in reports:
        with pytest.raises(TypeError):
            hash(report)
    assert reports[2] == CheckResult("c", 0, 1, 1, 0, [])
    assert reports[2] != CheckResult("c", 1, 1, 1, 0, [])
    reports[2].failures = ["late"]
    assert reports[2].failures == ["late"]
    assert repr(reports[1]) == "ProbeReport(seed=0, dims=(), bases=())"
    assert ProbeReport.certifies_irreducibility is False


@pytest.mark.parametrize("dim", [2.5, True, "2", None, [2]])
def test_context_json_needs_integer_dim(dim):
    with pytest.raises(ParseError):
        AlgebraContext.from_json({"dim": dim, "field": "Q"})


def test_context_json_reads_dim_and_field():
    assert AlgebraContext.from_json({"dim": 3, "field": "Fp:7"}) == AlgebraContext(3, Field(7))
    for data in ({"dim": 2.0, "field": "Q", "entries": [["1", "0"], ["0", "1"]]},
                 {"dim": 2, "field": 7, "entries": [["1", "0"], ["0", "1"]]}):
        with pytest.raises(ParseError):
            BilinearForm.from_json(data)

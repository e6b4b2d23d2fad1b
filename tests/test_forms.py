"""Bilinear, quadratic and alternating forms; Pfaffians; the dual-side
two-form dictionary."""

import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CharacteristicError,
                         CheckResult, CliffElt, CliffordContext, ContextMismatch, DualTwoForm,
                         EndoMatrix, EquivalenceReport, Field, FormError,
                         LinearForm, ParseError, ProbeReport, QuadraticForm,
                         RATIONALS, Vector, alt_of_dual, dual_two_form,
                         pfaffian, polar_form, quad_of_bilinear, right_radical,
                         split_sym_alt, triangular_bilinear)
from cliffbundle import linalg
from cliffbundle.clifford import _half_polar
from cliffbundle.sampling import (rand_alternating, rand_bilinear,
                                  rand_quadratic, rand_scalar, rand_vector)

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


@pytest.mark.parametrize("field", [RATIONALS, Field(2), Field(3), Field(7),
                                   Field(2 ** 61 - 1)], ids=lambda f: f.spec)
def test_pfaffian_pivots_and_degenerate_forms(field):
    """Forms with a_12 = 0 (a pivot swap) and forms with zeroed rows
    (a zero Pfaffian, or a zero row 0 partway through) against the
    perfect-matching sum."""
    rng = random.Random(47)
    for n in (2, 4, 6, 8):
        ctx = AlgebraContext(n, field)
        for trial in range(12):
            rows = [list(r) for r in rand_alternating(rng, ctx).rows]
            zeroed = [0] if trial % 3 == 0 else rng.sample(range(n), trial % 3)
            for z in zeroed:
                for t in range(n):
                    rows[z][t] = rows[t][z] = field.zero
            if trial % 3 == 0 and n > 2:  # row 1 keeps only its last entry
                rows[0][n - 1], rows[n - 1][0] = field.one, -field.one
            a = BilinearForm.make(ctx, rows)
            assert pfaffian(a) == pfaffian_matchings(a)


@pytest.mark.parametrize("field", [RATIONALS, Field(7)], ids=lambda f: f.spec)
def test_pfaffian_dense_at_n_40(field):
    """Elimination is O(n^3): a dense n = 40 form takes well under a
    CPU-second."""
    rng = random.Random(53)
    n = 40
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field(rng.choice([k for k in range(-9, 10) if k % 7]))
            rows[i][j], rows[j][i] = v, -v
    a = BilinearForm.make(AlgebraContext(n, field), rows)
    pf = pfaffian(a)
    assert pf and pf * pf == linalg.det(a.matrix())


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


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_right_radical_is_the_scalar_nullspace(field):
    """The radical from G's integer rows is the basis the Scalar
    nullspace of G's matrix gives, vector for vector, at ranks from 0
    to n (zeroed columns, repeated rows) and n = 1 .. 6."""
    rng = random.Random(f"radical/{field.spec}")
    for n in range(1, 7):
        ctx = AlgebraContext(n, field)
        for trial in range(8):
            rows = [list(r) for r in rand_bilinear(rng, ctx).rows]
            for j in rng.sample(range(n), trial % (n + 1)):
                for r in rows:
                    r[j] = field.zero
            if trial % 2 and n > 1:
                rows[-1] = list(rows[0])
            g = BilinearForm.make(ctx, rows)
            rad = right_radical(g)
            _, pivots = linalg.rref(g.matrix())
            assert len(rad) == n - len(pivots)
            assert rad == [Vector.make(ctx, v) for v in linalg.nullspace(g.matrix())]
            for r in rad:
                assert all(not g(Vector.basis(ctx, i), r) for i in range(1, n + 1))


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
        "contexts differ: AlgebraContext(dim=2, field=Field(Q)) "
        "vs AlgebraContext(dim=3, field=Field(Fp:7))")


def test_records_compare_fields_within_one_class():
    ctx = AlgebraContext(2, Field(7))
    coeffs = ctx.coerce_all([1, 3])
    assert Vector.make(ctx, coeffs) == Vector.make(ctx, [8, 10])
    assert hash(Vector.make(ctx, coeffs)) == hash(Vector.make(ctx, [8, 10]))
    assert Vector.make(ctx, coeffs) != LinearForm.make(ctx, coeffs)
    assert Vector.make(ctx, coeffs) != Vector.make(ctx, [1, 4])
    q = QuadraticForm.make(ctx, [1, 2], [[3]])
    assert CliffordContext(q) == CliffordContext(QuadraticForm.make(ctx, [8, 2], [[10]]))
    assert CliffordContext(q) != CliffordContext.exterior(ctx)


def test_frozen_records_refuse_assignment():
    ctx = AlgebraContext(2, RATIONALS)
    q = QuadraticForm.zero(ctx)
    F = BilinearForm.zero(ctx)
    for obj, name in ((ctx, "dim"), (RATIONALS, "char"), (q, "diag"), (q, "nums"), (q, "den"),
                      (F, "nums"), (F, "den"), (F, "rows"),
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


@pytest.mark.parametrize("dim", [2.5, True, "2", None, [2], 0, -1])
def test_context_json_needs_integer_dim(dim):
    with pytest.raises(ParseError):
        AlgebraContext.from_json({"dim": dim, "field": "Q"})


def test_context_json_reads_dim_and_field():
    assert AlgebraContext.from_json({"dim": 3, "field": "Fp:7"}) == AlgebraContext(3, Field(7))
    for data in ({"dim": 2.0, "field": "Q", "entries": [["1", "0"], ["0", "1"]]},
                 {"dim": 2, "field": 7, "entries": [["1", "0"], ["0", "1"]]}):
        with pytest.raises(ParseError):
            BilinearForm.from_json(data)


# ------------------------------------------------ the checked constructors

Q2, GF7_2 = AlgebraContext(2, RATIONALS), AlgebraContext(2, Field(7))
IDENTITY_COLS = ((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)


def test_constructor_refuses_a_float_entry():
    """The parent kept BilinearForm(ctx, (0.5, 0, 0, 1), 1) with
    rows[0][0] = Scalar(Q, 0.5)."""
    with pytest.raises(FormError, match=r"^BilinearForm at dim 2 needs 4 int entries"):
        BilinearForm(Q2, (0.5, 0, 0, 1), 1)


def test_constructor_divides_by_a_unit_den_over_gfp():
    """The parent kept Vector(ctx, (1, 1), 2) over GF(7) as it was, with
    coeffs Scalar(Fp:7, 1/2)."""
    x = Vector(GF7_2, (1, 1), 2)
    assert (x.nums, x.den) == ((4, 4), 1)
    assert x.coeffs == (GF7_2.field(4),) * 2
    assert x == Vector.make(GF7_2, [GF7_2.field(1) / 2] * 2)


def test_constructor_refuses_a_short_vector():
    """The parent took Vector(ctx, (1,), 1) at dim 2."""
    with pytest.raises(FormError, match=r"^Vector at dim 2 needs 2 int entries, got \(1,\)$"):
        Vector(Q2, (1,), 1)


def test_quadratic_constructor_refuses_data_above_the_diagonal():
    """The parent took QuadraticForm(ctx, (1, 1, 0, 1), 1): its e1 e2
    was 1 + e1^e2 while its to_json gave the polar value 0."""
    with pytest.raises(FormError, match="^QuadraticForm is zero above the diagonal$"):
        QuadraticForm(Q2, (1, 1, 0, 1), 1)


@pytest.mark.parametrize("ctx, spelled", [(Q2, ((2, 0, 0, 2), 2)),
                                          (GF7_2, ((9, 0, -14, 2), 2))])
def test_two_spellings_of_one_form_are_one_fiber(ctx, spelled):
    """At the parent two spellings of Q = x1^2 + x2^2 gave unequal
    CliffordContexts, whose elements raised ContextMismatch."""
    q, r = QuadraticForm(ctx, (1, 0, 0, 1), 1), QuadraticForm(ctx, *spelled)
    assert q == r and hash(q) == hash(r) and (r.nums, r.den) == ((1, 0, 0, 1), 1)
    a, b = CliffordContext(q), CliffordContext(r)
    assert a == b and hash(a) == hash(b)
    assert CliffElt.blade(a, (1,)) * CliffElt.blade(b, (1,)) == CliffElt.unit(a)


@pytest.mark.parametrize("make, arg", [(Field, 7.0), (Field, "7"),
                                       (lambda d: AlgebraContext(d, RATIONALS), True),
                                       (lambda d: AlgebraContext(d, RATIONALS), 2.0),
                                       (lambda d: AlgebraContext(d, RATIONALS), "3")])
def test_field_and_context_refuse_values_that_are_not_ints(make, arg):
    """The parent took Field(7.0), with Field(7.0)(3) = Scalar(Fp:7.0,
    3.0), AlgebraContext(True, Q) and AlgebraContext(2.0, Q), and
    raised a bare TypeError from a comparison for "7" and "3"."""
    with pytest.raises(ValueError, match=f"got {re.escape(repr(arg))}$"):
        make(arg)


def test_endo_matrix_refuses_malformed_columns():
    """The parent took EndoMatrix(AlgebraContext(2, Q), ((),), 1), whose
    entries were a 1 x 4 matrix."""
    with pytest.raises(FormError, match=r"^EndoMatrix at dim 2 needs 4 columns"):
        EndoMatrix(Q2, ((),), 1)


@pytest.mark.parametrize("ctx, cols, den", [
    (Q2, tuple(((r, 2),) for r in range(4)), 2),
    (Q2, tuple(((r, -3), (3 - r, 0)) for r in range(4)), -3),
    (GF7_2, tuple(((r, 9),) for r in range(4)), 2)])
def test_endo_matrix_constructor_keeps_the_canonical_form(ctx, cols, den):
    """Any spelling of the identity is the identity, as _endo makes it."""
    m = EndoMatrix(ctx, cols, den)
    assert m == EndoMatrix.identity(ctx) and hash(m) == hash(EndoMatrix.identity(ctx))
    assert (m.cols, m.den) == (IDENTITY_COLS, 1)


def test_trusted_builders_skip_the_check():
    """_of takes data as it is and _made makes it canonical, with no check:
    the package's own builds, as clifford._Sparse's."""
    assert Vector._of(Q2, (2, 4), 2).nums == (2, 4)
    assert Vector._made(Q2, [2, 4], -2) == Vector(Q2, (-1, -2), 1)
    assert BilinearForm._made(GF7_2, [1, 2, 3, 4], 3) == BilinearForm(GF7_2, (5, 3, 1, 6), 1)


REFUSED = [
    (Vector, (Q2, (1, 2, 3), 1), FormError, "needs 2 int entries"),
    (Vector, (Q2, 5, 1), FormError, "needs 2 int entries"),
    (Vector, (Q2, (1, True), 1), FormError, "needs 2 int entries"),
    (Vector, (Q2, (1, 2), 0), FormError, "int den that is a unit of Q, got 0"),
    (Vector, (Q2, (1, 2), 1.0), FormError, "int den that is a unit of Q, got 1.0"),
    (Vector, (Q2, (1, 2), Fraction(1, 2)), FormError, "unit of Q, got Fraction"),
    (Vector, (GF7_2, (1, 2), 14), FormError, "int den that is a unit of Fp:7, got 14"),
    (Vector, (None, (1, 2), 1), FormError, "needs an AlgebraContext, got None"),
    (LinearForm, (Q2, ("1", 2), 1), FormError, "needs 2 int entries"),
    (LinearForm, (GF7_2, (1, 2), -7), FormError, "unit of Fp:7, got -7"),
    (BilinearForm, (Q2, (1, 2, 3), 1), FormError, "needs 4 int entries"),
    (BilinearForm, (Q2, ((1, 0), (0, 1)), 1), FormError, "needs 4 int entries"),
    (QuadraticForm, (Q2, (1, 1, 0, 1), 1), FormError, "zero above the diagonal"),
    (QuadraticForm, (GF7_2, (1, 8, 0, 1), 1), FormError, "zero above the diagonal"),
    (QuadraticForm, (Q2, (1, 0, 0), 1), FormError, "needs 4 int entries"),
    (DualTwoForm, (Q2, (1, 0, 0, 0), 1), FormError, "zero on and below the diagonal"),
    (DualTwoForm, (Q2, (0, 1, 1, 0), 1), FormError, "zero on and below the diagonal"),
    (DualTwoForm, (Q2, (0, 1, 0, 0), 0), FormError, "unit of Q, got 0"),
    (Field, (7.0,), ValueError, "0 or a prime, got 7.0"),
    (Field, ("7",), ValueError, "0 or a prime, got '7'"),
    (Field, (None,), ValueError, "0 or a prime, got None"),
    (Field, (4,), ValueError, "0 or a prime, got 4"),
    (Field, (-7,), ValueError, "0 or a prime, got -7"),
    (AlgebraContext, (True, RATIONALS), ValueError, "must be >= 1, an int, got True"),
    (AlgebraContext, (2.0, RATIONALS), ValueError, "must be >= 1, an int, got 2.0"),
    (AlgebraContext, ("3", RATIONALS), ValueError, "must be >= 1, an int, got '3'"),
    (AlgebraContext, (0, RATIONALS), ValueError, "must be >= 1, an int, got 0"),
    (EndoMatrix, (Q2, ((),), 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, None, 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, ((0, 1),) * 4, 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, IDENTITY_COLS[:3] + (((4, 1),),), 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, IDENTITY_COLS[:3] + (((-1, 1),),), 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, IDENTITY_COLS[:3] + (((3, 1.5),),), 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, IDENTITY_COLS[:3] + (((3.0, 1),),), 1), FormError, "needs 4 columns"),
    (EndoMatrix, (Q2, IDENTITY_COLS[:3] + (((3, 1), (3, 2)),), 1), FormError,
     "rows distinct"),
    (EndoMatrix, (Q2, IDENTITY_COLS, 0), FormError, "unit of Q, got 0"),
    (EndoMatrix, (GF7_2, IDENTITY_COLS, 7), FormError, "unit of Fp:7, got 7"),
]


@pytest.mark.parametrize("make, args, error, message", REFUSED,
                         ids=[f"{m.__name__}-{i}" for i, (m, *_) in enumerate(REFUSED)])
def test_constructors_refuse_malformed_data(make, args, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make(*args)


# ------------------------------------------------ the forms' integer data

def _same_form(got, want):
    """got (reached by integer arithmetic) and want (built from Scalars)
    are one form: equal, hash equal, with canonical data and the same
    JSON bytes."""
    assert got == want and hash(got) == hash(want)
    assert (got.nums, got.den) == (want.nums, want.den)
    p = got.ctx.field.char
    if p:
        assert got.den == 1 and all(0 <= x < p for x in got.nums)
    else:
        assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_integer_data_matches_scalar_arithmetic(field):
    """Every form operation on the integer data gives the form that make
    and from_json build from the Scalar arithmetic of the operands'
    views, at n = 1 .. 6: the shift of a Clifford context, -F, F + G,
    F - G, scalar multiples, transposes, quad_of_bilinear, polar_form,
    half the polar form, triangular_bilinear and the dual two-form."""
    rng = random.Random(f"data/{field.spec}")
    for n in range(1, 7):
        ctx = AlgebraContext(n, field)
        idx = range(1, n + 1)
        for _ in range(4):
            q, F, G = rand_quadratic(rng, ctx), rand_bilinear(rng, ctx), rand_bilinear(rng, ctx)
            s = rand_scalar(rng, field)

            def bilinear(entry):
                return BilinearForm.make(ctx, [[entry(i, j) for j in idx] for i in idx])

            def quadratic(value, polar):
                return QuadraticForm.make(ctx, [value(i) for i in idx],
                                          [[polar(i, j) for j in idx if j > i] for i in idx][:-1])

            _same_form(CliffordContext(q).shift(F).quadratic,
                       quadratic(lambda i: q.value_at(i) + F.at(i, i),
                                 lambda i, j: q.polar(i, j) + F.at(i, j) + F.at(j, i)))
            _same_form(-F, bilinear(lambda i, j: -F.at(i, j)))
            _same_form(F + G, bilinear(lambda i, j: F.at(i, j) + G.at(i, j)))
            _same_form(F - G, bilinear(lambda i, j: F.at(i, j) - G.at(i, j)))
            _same_form(s * F, bilinear(lambda i, j: s * F.at(i, j)))
            _same_form(F.transpose(), bilinear(lambda i, j: F.at(j, i)))
            _same_form(quad_of_bilinear(F), quadratic(lambda i: F.at(i, i),
                                                      lambda i, j: F.at(i, j) + F.at(j, i)))
            _same_form(polar_form(q), bilinear(q.polar))
            _same_form(triangular_bilinear(q),
                       bilinear(lambda i, j: q.polar(i, j) if i < j else
                                q.value_at(i) if i == j else field.zero))
            if field.char != 2:
                half = field.one / field(2)
                _same_form(_half_polar(CliffordContext(q)),
                           bilinear(lambda i, j: half * q.polar(i, j)))
            A = rand_alternating(rng, ctx)
            astar = dual_two_form(A)
            _same_form(astar, DualTwoForm.make(ctx, [[-A.at(i, j) for j in idx if j > i]
                                                     for i in idx][:-1]))
            _same_form(alt_of_dual(astar), A)
            for form in (F, -F, quad_of_bilinear(F), astar):
                _same_form(type(form).from_json(*_json_args(form)), form)


def _json_args(form):
    """from_json's arguments that read back a form's to_json."""
    if isinstance(form, QuadraticForm):
        return form.ctx, json.loads(json.dumps(form.to_json()))
    return (json.loads(json.dumps(form.to_json())),)


def test_denominators_that_cancel_leave_canonical_data():
    """Over Q the data keep no common factor of the denominator and the
    numerators: sums, halves and polar values whose denominators cancel
    give the data of the integral form, and equal forms from different
    denominators have one hash."""
    ctx = AlgebraContext(2, RATIONALS)
    F = BilinearForm.make(ctx, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6), 1]])
    G = BilinearForm.make(ctx, [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(5, 6), 0]])
    total = F + G
    assert (total.nums, total.den) == ((1, 0, 1, 1), 1)
    _same_form(total, BilinearForm.make(ctx, [[1, 0], [1, 1]]))
    assert (F.nums, F.den) == ((3, 2, 1, 6), 6)
    q = QuadraticForm.make(ctx, [Fraction(1, 2), Fraction(3, 2)], [[Fraction(5, 4)]])
    assert (q.nums, q.den) == ((2, 0, 5, 6), 4)
    _same_form(polar_form(q), BilinearForm.make(ctx, [[1, Fraction(5, 4)], [Fraction(5, 4), 3]]))
    _same_form(Fraction(4, 5) * quad_of_bilinear(F), QuadraticForm.make(
        ctx, [Fraction(2, 5), Fraction(4, 5)], [[Fraction(2, 5)]]))
    _same_form(6 * F - 6 * F, BilinearForm.zero(ctx))
    assert (BilinearForm.zero(ctx).nums, BilinearForm.zero(ctx).den) == ((0, 0, 0, 0), 1)

"""Clifford algebras by normal ordering, the quotient map, deformation
maps between algebras, twisted products, gauge action, symbol and
quantization."""

import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CapExceeded,
                         CharacteristicError, CliffElt, CliffordContext, ContextMismatch,
                         DualTwoForm, Field, FieldMismatch, FormError, QuadraticForm,
                         RATIONALS, TensorElt, Vector, clifford_contract,
                         clifford_contract_vec, contract, deform,
                         deform_apply, dual_two_form, exp_contract, interior,
                         quantize, quotient_map, symbol, twisted_mul)
from cliffbundle.sampling import (rand_alternating, rand_bilinear, rand_cliff,
                                  rand_linear_form, rand_quadratic, rand_scalar,
                                  rand_tensor, rand_vector)

from cliffbundle import clifford, scalars
from cliffbundle.forms import quad_of_bilinear
from cliffbundle.scalars import Scalar, scaled_ints
from cliffbundle.clifford import (_act, _act_word, _canonical, _contract_pairs, _data_of,
                                  _operate, _packed_sum, _word_sum, index_subset, subset_index)
from oracles import (chevalley_rows, contract_loop, deform_sum, interior_sum, left_mul_loop,
                     pair_sum, quantize_perm_sum, to_exterior, word_sum)

FIELDS = (RATIONALS, Field(2), Field(7))


def _hyperbolic_plane():
    # Q(e1) = Q(e2) = 0, polar(e1, e2) = 1
    ctx = AlgebraContext(2, RATIONALS)
    return CliffordContext(QuadraticForm.make(ctx, [0, 0], [[1]]))


def test_normal_ordering_hyperbolic():
    cctx = _hyperbolic_plane()
    e1 = CliffElt.blade(cctx, (1,))
    e2 = CliffElt.blade(cctx, (2,))
    assert e1 * e2 == CliffElt.blade(cctx, (1, 2))
    assert e2 * e1 == CliffElt.unit(cctx) - CliffElt.blade(cctx, (1, 2))
    assert e1 * e1 == CliffElt.zero(cctx)
    assert (e1 * e2 + e2 * e1) == CliffElt.unit(cctx)


def test_product_matches_relation_oracle():
    """Products, reversal and the quotient map against bubble-sorting
    words with the defining relations: this pins the normal-form
    coordinates, which identity suites alone would not."""
    rng = random.Random(31)
    for field in FIELDS:
        for n, terms in ((4, None), (5, 4), (6, 4)):
            ctx = AlgebraContext(n, field)
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            q = cctx.quadratic
            if terms is None:
                blades = [b for k in range(n + 1) for b in combinations(range(1, n + 1), k)]
                u, v = (CliffElt(cctx, {b: rand_scalar(rng, field, nonzero=True)
                                        for b in blades}) for _ in range(2))
            else:
                u, v = (rand_cliff(rng, cctx, terms=terms) for _ in range(2))
            pairs = [(a + b, ca * cb) for a, ca in u.terms.items() for b, cb in v.terms.items()]
            assert (u * v).terms == word_sum(q, pairs)
            assert u.reverse().terms == word_sum(q, [(b[::-1], c) for b, c in u.terms.items()])
            t = rand_tensor(rng, ctx, max_grade=6, terms=4)
            assert quotient_map(cctx, t).terms == word_sum(q, t.terms.items())


# Coprime and negative denominators: the common denominator of a form
# exceeds 1, so the integer kernel weights words of different lengths
# by different powers of it.
Q_COEFFS = (Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13), 2, -1)


def _coeff(rng, field):
    if field.char == 0:
        return field(rng.choice(Q_COEFFS))
    return field(rng.randrange(1, field.char))


def _blade_terms(rng, field, n, count=None):
    """All blades (count None) or count random blades, with coefficients."""
    blades = [b for k in range(n + 1) for b in combinations(range(1, n + 1), k)]
    return {b: _coeff(rng, field) for b in (blades if count is None
                                            else rng.sample(blades, count))}


def _pairs(a, b):
    return [(x + y, c * d) for x, c in a.items() for y, d in b.items()]


def _check_exp_contract(rng, a, u):
    """exp_contract of the dual of the alternating a on u against the
    pair-matching oracle for deform by a, and the gauge laws: the
    transformation by -a* inverts it, and it conjugates left
    multiplication by a vector x into x u + contraction by a(x, .)."""
    astar, cctx = dual_two_form(a), u.cctx
    assert exp_contract(astar, u).terms == deform_sum(a, cctx.quadratic, u.terms)
    assert exp_contract(-astar, exp_contract(astar, u)) == u
    x = rand_vector(rng, cctx.ctx)
    xe = CliffElt.from_vector(cctx, x)
    assert exp_contract(astar, xe * exp_contract(-astar, u)) \
        == xe * u + clifford_contract_vec(a, x, u)


@pytest.mark.parametrize("field", (Field(2), Field(3), Field(7), RATIONALS),
                         ids=lambda f: f.spec)
def test_kernel_matches_oracles(field):
    """Every operation on the kernel against the relation and pair
    expansion oracles; dense at n = 4, sparse with mixed grades above."""
    rng = random.Random(37)
    for n, count in ((4, None), (5, 5), (6, 4)):
        ctx = AlgebraContext(n, field)
        q = QuadraticForm.make(ctx, [_coeff(rng, field) for _ in range(n)],
                               [[_coeff(rng, field) for _ in range(n - 1 - i)]
                                for i in range(n - 1)])
        F = BilinearForm.make(ctx, [[_coeff(rng, field) for _ in range(n)] for _ in range(n)])
        cctx = CliffordContext(q)
        shifted = cctx.shift(F)
        qs = shifted.quadratic
        u, v = (CliffElt(cctx, _blade_terms(rng, field, n, count)) for _ in range(2))
        w = CliffElt(shifted, _blade_terms(rng, field, n, count))
        assert (u * v).terms == word_sum(q, _pairs(u.terms, v.terms))
        assert u.reverse().terms == word_sum(q, [(b[::-1], c) for b, c in u.terms.items()])
        words = {tuple(rng.randint(1, n) for _ in range(rng.randint(0, 7))): _coeff(rng, field)
                 for _ in range(6)}
        assert quotient_map(cctx, TensorElt(ctx, words)).terms == word_sum(q, words.items())
        assert deform(F, w, target=cctx).terms == deform_sum(F, q, w.terms)
        # deform_apply(F, w, v) = D_F(w * D_-F(v)) and u twisted v =
        # D_F(D_-F(u) * D_-F(v)), the products taken in the shifted algebra
        back_u, back_v = deform_sum(-F, qs, u.terms), deform_sum(-F, qs, v.terms)
        assert deform_apply(F, w, v).terms \
            == deform_sum(F, q, word_sum(qs, _pairs(w.terms, back_v)))
        assert twisted_mul(F, u, v).terms \
            == deform_sum(F, q, word_sum(qs, _pairs(back_u, back_v)))
        ext = CliffordContext.exterior(ctx)
        f, g = (CliffElt(ext, _blade_terms(rng, field, n, count or 6)) for _ in range(2))
        assert interior(f, u).terms == interior_sum(f.terms, u.terms, field.zero)
        assert (f * g).terms == word_sum(QuadraticForm.zero(ctx), _pairs(f.terms, g.terms))
        upper = [[_coeff(rng, field) for _ in range(n)] for _ in range(n)]
        a = BilinearForm.make(ctx, [[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                     for j in range(n)] for i in range(n)])
        _check_exp_contract(rng, a, u)


@pytest.mark.parametrize("field", (Field(2), Field(3), Field(7), RATIONALS),
                         ids=lambda f: f.spec)
def test_contraction_sums_at_benchmark_sizes(field):
    """interior and exp_contract against their oracles at the sizes the
    dense benchmark runs: a dense dual element on a dense w at n = 7,
    and the exponential of a dense two-form, all 28 of its pair factors
    acting, on 20 random blades and the top one at n = 8."""
    rng = random.Random(43)
    ctx = AlgebraContext(7, field)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    f = CliffElt(CliffordContext.exterior(ctx), _blade_terms(rng, field, 7))
    w = CliffElt(cctx, _blade_terms(rng, field, 7))
    assert interior(f, w).terms == interior_sum(f.terms, w.terms, field.zero)
    n = 8
    ctx = AlgebraContext(n, field)
    q = rand_quadratic(rng, ctx)
    upper = [[_coeff(rng, field) for _ in range(n)] for _ in range(n)]
    a = BilinearForm.make(ctx, [[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                 for j in range(n)] for i in range(n)])
    terms = _blade_terms(rng, field, n, 20)
    terms[tuple(range(1, n + 1))] = _coeff(rng, field)
    _check_exp_contract(rng, a, CliffElt(CliffordContext(q), terms))


def _half_polar_form(cctx):
    n, half = cctx.dim, cctx.field.one / cctx.field(2)
    return BilinearForm.make(cctx.ctx, [[half * cctx.quadratic.polar(i, j)
                                         for j in range(1, n + 1)] for i in range(1, n + 1)])


@pytest.mark.parametrize("field", (Field(2), Field(3), Field(7), RATIONALS),
                         ids=lambda f: f.spec)
def test_deform_family_matches_pair_oracle(field):
    """deform with and without a target, symbol, quantize and
    twisted_mul against the sum over pair matchings: dense elements up
    to n = 6, up to six random blades up to n = 9, and w = 0, w = 1."""
    rng = random.Random(43)
    for n, count in [(n, None) for n in range(1, 7)] + [(n, 6) for n in range(1, 10)]:
        ctx = AlgebraContext(n, field)
        q = QuadraticForm.make(ctx, [_coeff(rng, field) for _ in range(n)],
                               [[_coeff(rng, field) for _ in range(n - 1 - i)]
                                for i in range(n - 1)])
        F = BilinearForm.make(ctx, [[_coeff(rng, field) for _ in range(n)] for _ in range(n)])
        cctx = CliffordContext(q)
        shifted = cctx.shift(F)
        count = count and min(count, 2 ** n)
        for terms in (_blade_terms(rng, field, n, count), {}, {(): field.one}):
            w = CliffElt(shifted, terms)
            expected = deform_sum(F, q, w.terms)
            assert deform(F, w, target=cctx).terms == expected
            out = deform(F, w)
            assert out.cctx == cctx and out.terms == expected
        u, v = (CliffElt(cctx, _blade_terms(rng, field, n, count)) for _ in range(2))
        qs = shifted.quadratic
        back_u, back_v = deform_sum(-F, qs, u.terms), deform_sum(-F, qs, v.terms)
        assert twisted_mul(F, u, v).terms \
            == deform_sum(F, q, word_sum(qs, _pairs(back_u, back_v)))
        if field.char != 2:
            half, ext = _half_polar_form(cctx), CliffordContext.exterior(ctx)
            assert symbol(u).terms == deform_sum(half, ext.quadratic, u.terms)
            e = CliffElt(ext, _blade_terms(rng, field, n, count))
            assert quantize(cctx, e).terms == deform_sum(-half, q, e.terms)


@pytest.mark.parametrize("field", (Field(2), Field(3), Field(7), RATIONALS),
                         ids=lambda f: f.spec)
def test_kernel_cancels_to_zero(field):
    """Terms that cancel inside one kernel call leave no zero entries:
    an isotropic vector squares to 0, a linear form wedges itself to 0."""
    rng = random.Random(41)
    ctx = AlgebraContext(4, field)
    a, b, q1, q2 = (_coeff(rng, field) for _ in range(4))
    polar = -(q1 * a * a + q2 * b * b) / (a * b)
    upper = [[polar, _coeff(rng, field), 0], [_coeff(rng, field), 0], [_coeff(rng, field)]]
    cctx = CliffordContext(QuadraticForm.make(ctx, [q1, q2, 1, _coeff(rng, field)], upper))
    x = CliffElt(cctx, {(1,): a, (2,): b})
    assert (x * x).terms == word_sum(cctx.quadratic, _pairs(x.terms, x.terms)) == {}
    f = CliffElt(CliffordContext.exterior(ctx), {(1,): a, (2,): b, (4,): q1})
    assert (f * f).terms == {}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_chevalley_rows_match_oracle(field):
    """The kernel's rows of G_Q and of G_Q + F, (nums, den), are the
    entries of the Chevalley form that the oracle builds from the plain
    values the forms were made of, at n = 1 .. 6."""
    rng = random.Random(f"chevalley/{field.spec}")
    p = field.char
    for n in range(1, 7):
        ctx = AlgebraContext(n, field)
        for _ in range(4):
            diag = [_coeff(rng, field).value for _ in range(n)]
            upper = [[_coeff(rng, field).value for _ in range(n - 1 - i)] for i in range(n - 1)]
            f = [[_coeff(rng, field).value for _ in range(n)] for _ in range(n)]
            q, F = QuadraticForm.make(ctx, diag, upper), BilinearForm.make(ctx, f)
            for got, want in ((clifford._chevalley(q), chevalley_rows(p, diag, upper)),
                              (clifford._chevalley(q, F), chevalley_rows(p, diag, upper, f))):
                nums, den = got
                assert [x % p if p else Fraction(x, den) for x in nums] \
                    == [x for row in want for x in row]


def _count_scalars(monkeypatch) -> list:
    """Count every Scalar built from here on, by Scalar.__init__ or by
    scalars.canonical, which every view reaches through scalars_over: a
    one-item list holding the count."""
    count = [0]
    init, canonical = Scalar.__init__, scalars.canonical

    def counted_init(self, *args):
        count[0] += 1
        init(self, *args)

    def counted_canonical(*args):
        count[0] += 1
        return canonical(*args)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    monkeypatch.setattr(scalars, "canonical", counted_canonical)
    return count


def test_operations_build_no_scalars(monkeypatch):
    """A cost guard on counts, which do not drift: a dense twisted_mul,
    symbol and deform at n = 5 over Q build no Scalar at all, in their
    set-up (int work on the forms' data) or in the kernel; the first read
    of a result's terms builds one per term, and a second read none.
    The counted calls get forms reached by arithmetic and drawn afresh,
    so no view of them is built yet and reading one would count too."""
    ctx = AlgebraContext(5, RATIONALS)

    def draw():
        rng = random.Random("set-up")
        cctx = CliffordContext(quad_of_bilinear(-rand_bilinear(rng, ctx)))
        F = -rand_bilinear(rng, ctx)
        return (cctx, F, *(CliffElt(cctx, _blade_terms(rng, RATIONALS, 5)) for _ in range(3)))

    cctx, F, u, v, w = draw()
    expected = twisted_mul(F, u, v), symbol(w), deform(F, w)
    assert len(u.terms) == len(v.terms) == len(w.terms) == 32
    cctx, F, u, v, w = draw()
    count = _count_scalars(monkeypatch)
    outputs = twisted_mul(F, u, v), symbol(w), deform(F, w)
    assert count[0] == 0
    assert outputs == expected
    for out in outputs:
        assert len(out.terms) > 16 and count[0] == len(out.terms)
        assert out.terms is out.terms and count[0] == len(out.terms)
        count[0] = 0


def _canonical_data(elt) -> bool:
    """Whether elt holds canonical data: nonzero int values, over GF(p)
    residues over den 1, over Q over den > 0 with no common factor."""
    p, values = elt._home.field.char, list(elt.data.values())
    if not all(type(x) is int and x for x in values):
        return False
    if p:
        return elt.den == 1 and all(0 < x < p for x in values)
    return elt.den > 0 and gcd(elt.den, *values) == 1


@pytest.mark.parametrize("field", (RATIONALS, Field(2), Field(7), Field((1 << 61) - 1)),
                         ids=lambda f: f.spec)
def test_elements_hold_canonical_data(field):
    """Every element is canonical however it is built: the constructor,
    from_json, the kernels, +, -, scalar multiples, grade parts (a
    subset's gcd can exceed the whole's) and sums that cancel, Clifford
    and tensor alike.  So equal elements reached two ways have equal
    (data, den), and == agrees with == of the terms views."""
    rng = random.Random(f"canonical/{field.spec}")
    n = 4
    ctx = AlgebraContext(n, field)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    u, v, w = (CliffElt(cctx, _blade_terms(rng, field, n, count)) for count in (None, 5, 3))
    s, xv = _coeff(rng, field), rand_vector(rng, ctx)
    x = CliffElt.from_vector(cctx, xv)
    t, t2, t3 = (rand_tensor(rng, ctx, max_grade=4, terms=4) for _ in range(3))
    ext = CliffordContext.exterior(ctx)
    f = CliffElt(ext, _blade_terms(rng, field, n, 6))
    astar = dual_two_form(rand_alternating(rng, ctx))
    same = [(u + v, v + u), (u - u, CliffElt.zero(cctx)), (u * (v + w), u * v + u * w),
            (s * (u + v), s * u + s * v), (-(-u), u), (CliffElt(cctx, u.terms), u),
            (CliffElt.from_json(cctx, u.to_json()), u),
            (sum((u.grade_part(k) for k in range(n + 1)), CliffElt.zero(cctx)), u),
            (u.grade_involution().grade_involution(), u), (u.reverse().reverse(), u),
            (deform(-F, deform(F, w)), w),
            (twisted_mul(F, x, v), x * v + clifford_contract_vec(F, xv, v)),
            (exp_contract(-astar, exp_contract(astar, w)), w), (interior(f, u), interior(f, u)),
            (t * (t2 + t3), t * t2 + t * t3), (t - t, TensorElt.zero(ctx)),
            (TensorElt.from_json(ctx, t.to_json()), t), (t.reverse().reverse(), t),
            (TensorElt(ctx, t.terms), t), (s * t - t * s, TensorElt.zero(ctx))]
    if field.char != 2:
        same.append((quantize(cctx, symbol(u)), u))
    if not field.char:
        y = CliffElt(cctx, {(): field(Fraction(1, 2)), (1,): field(Fraction(1, 3))})
        assert (y.data, y.den) == ({0: 3, 1: 2}, 6)
        z = CliffElt.blade(cctx, (1,), Fraction(1, 3))
        same += [(y.grade_part(1), z), (y - CliffElt.unit(cctx) * field(Fraction(1, 2)), z),
                 (field(Fraction(3, 5)) * (y * 10), field(6) * y)]
        assert (z.data, z.den) == ({1: 1}, 3)
    for a, b in same:
        assert _canonical_data(a) and _canonical_data(b)
        assert a == b and (a.data, a.den) == (b.data, b.den) and a.terms == b.terms
    elements = [e for pair in same for e in pair]
    for a in elements:
        for b in elements:
            if type(a) is type(b) and a._home == b._home:
                assert (a == b) == (a.terms == b.terms)


# ------------------------------------------------ packed and dict word sums

PACKED_FIELDS = (RATIONALS, Field(2), Field(3), Field(7), Field((1 << 61) - 1))


def _kernel_rows(rows):
    """The kernel's (nums, den) of raw rows: their entries row-major
    over one common denominator."""
    return scaled_ints([c for row in rows for c in row])


def _pair(field, terms):
    """The kernel's (data, den) of a blade -> Scalar map."""
    return _data_of(field, map(subset_index, terms), terms.values())


def _terms(field, pair):
    """The blade -> Scalar map of a (data, den) pair."""
    data, den = pair
    return {index_subset(m): field(Fraction(x, den)) for m, x in data.items()}


def _both_sums(field, rows, u, v, wedge):
    """_packed_sum and _word_sum of the same call, each through the
    exit _operate takes, as blade -> Scalar maps; u and v map blades
    to Scalars."""
    n, p, kernel = len(rows[0]), field.char, _kernel_rows(rows)
    (u, du), (v, dv) = _pair(field, u), _pair(field, v)
    values, den = _packed_sum(p, n, kernel, u, v, wedge)
    out, den_dict = _word_sum(p, n, kernel, u, v, wedge)
    return (_terms(field, _canonical(p, range(1 << n), values, du * dv * den)),
            _terms(field, _canonical(p, out, out.values(), du * dv * den_dict)))


def _oracle(field, rows, u, v, wedge):
    """The word sum by an oracle: with the wedge part, the tensor
    deformation operator of rows at u applied to v pushed to the
    exterior algebra; without it and identity rows, the interior sum."""
    p = field.char
    if wedge:
        raw = {b: c.value for b, c in u.items()}
        return {b: field(x) for b, x in to_exterior(
            pair_sum(rows, p, raw, {b: c.value for b, c in v.items()}), p).items()}
    return interior_sum(u, v, field.zero)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_packed_sum_matches_dict_sum(field):
    """Both word sums give the same map on the same input, on either
    side of _operate's rule (dense and sparse operands), with the wedge
    part on (random rows) and off (random rows, identity rows as in
    interior, one row as in contract); at n <= 5, so does an oracle."""
    rng = random.Random(f"packed/{field.spec}")

    def rand_rows(n, count):
        return [[_coeff(rng, field).value if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(count)]

    sides = set()
    for n in range(1, 7):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for count in (None, 3):
            u, v = (_blade_terms(rng, field, n, None if count is None else min(count, 1 << n))
                    for _ in range(2))
            sides.add(2 * min(len(u), len(v)) >= 1 << n)
            for rows, wedge in ((rand_rows(n, n), True), (rand_rows(n, n), False),
                                (identity, False)):
                packed, dicted = _both_sums(field, rows, u, v, wedge)
                assert packed == dicted
                assert _terms(field, _operate(field.char, n, _kernel_rows(rows), _pair(field, u),
                                              _pair(field, v), wedge)) == packed
                # the pair-sum oracle takes seconds on dense operands above n = 3
                if n <= 5 and (count or n <= 3) and (wedge or rows is identity):
                    assert packed == _oracle(field, rows, u, v, wedge)
            packed, dicted = _both_sums(field, rand_rows(n, 1), {(1,): field.one}, v, False)
            assert packed == dicted
    assert sides == {True, False}


def _split_shapes(rng, n):
    """Masks of u that reach each part of the packed sum's split at
    k = n // 2 (letters 1..k the low part T, the rest the high part R):
    every blade; only letters <= k, so the walk acts out R = 0 alone;
    only letters > k, so only the accumulator of T = 0 fills; one blade
    per high part; and 2^(n - 1) blades, the edge of _operate's rule."""
    k = n >> 1
    low, masks = (1 << k) - 1, range(1 << n)
    return {
        "dense": list(masks),
        "low": [m for m in masks if not m & ~low],
        "high": [m for m in masks if not m & low],
        "one per group": [r | rng.randrange(1 << k) for r in range(0, 1 << n, 1 << k)],
        "edge": sorted(rng.sample(masks, 1 << (n - 1))),
    }


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_split_sum_matches_dict_sum(field):
    """The packed sum, which walks the high parts of u's blades and
    finishes with a Horner pass over letters k..1, against the dict sum
    at n = 1..9, for every shape of _split_shapes, with the wedge part
    under random rows (over Q with a common denominator d != 1, so the
    grades are weighted apart) and, for the dense and edge shapes,
    without it under identity rows as in interior; an edge call also
    goes through _operate's rule.  _operate on word-keyed u at n = 1,
    as quotient_map and reverse call it, agrees with the dict sum too."""
    rng = random.Random(f"split/{field.spec}")
    for n in range(1, 10):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        rows = [[_coeff(rng, field).value if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        v = _blade_terms(rng, field, n)
        for shape, masks in _split_shapes(rng, n).items():
            u = {index_subset(m): _coeff(rng, field) for m in masks}
            cases = [(rows, True)]
            if shape in ("dense", "edge"):
                cases.append((identity, False))
            for some, wedge in cases:
                packed, dicted = _both_sums(field, some, u, v, wedge)
                assert packed == dicted, (n, shape, wedge)
                if shape == "edge":
                    assert 2 * min(len(u), len(v)) == 1 << n
                    assert _terms(field, _operate(field.char, n, _kernel_rows(some),
                                                  _pair(field, u), _pair(field, v),
                                                  wedge)) == packed
    rows = _kernel_rows([[_coeff(rng, field).value]])
    words, du = _data_of(field, [(1,) * k for k in range(4)],
                         [_coeff(rng, field) for _ in range(4)])
    p = field.char
    out, den = _word_sum(p, 1, rows, words, {0: 1})
    assert (_canonical(p, out, out.values(), du * den)
            == _operate(p, 1, rows, (words, du), ({0: 1}, 1)))


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_word_keys_run_on_dicts(field, monkeypatch):
    """quotient_map and reverse act on the unit with words as u's keys,
    and _operate packs only masks: with _packed_sum patched to raise,
    both still equal the dict sum at n = 1..3, dense u included (at
    n = 1 it meets the size rule 2 min(|u|, |v|) >= 2^n)."""
    def refuse(*args):
        raise AssertionError("_packed_sum reached with word keys")

    monkeypatch.setattr(clifford, "_packed_sum", refuse)
    rng = random.Random(f"words/{field.spec}")
    p = field.char
    for n in range(1, 4):
        ctx = AlgebraContext(n, field)
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        rows = clifford._chevalley(cctx.quadratic)
        for _ in range(3):
            w = CliffElt(cctx, _blade_terms(rng, field, n))
            u = rand_tensor(rng, ctx, max_grade=2 * n, terms=4)
            words = {index_subset(m)[::-1]: c for m, c in w.data.items()}
            for got, (data, den) in ((w.reverse(), (words, w.den)),
                                     (quotient_map(cctx, u), (u.data, u.den))):
                out, den_dict = _word_sum(p, n, rows, data, {0: 1})
                assert (got.data, got.den) == _canonical(p, out, out.values(), den * den_dict)


def test_packed_sum_on_wide_rationals():
    """Coefficients with 1,000-digit numerators and denominators make the
    slots thousands of bits wide: dense u and v at n = 4 under small
    rows, and at n = 3 under rows as wide, so the rows' common
    denominator weights the shorter words; both sums and the oracle
    agree."""
    rng = random.Random("packed/wide")
    dens = [rng.randrange(10 ** 999, 10 ** 1000) for _ in range(2)]

    def wide():
        return Fraction(rng.randrange(10 ** 999, 10 ** 1000) * rng.choice((1, -1)),
                        rng.choice(dens))

    def dense(n):
        return {index_subset(m): RATIONALS(wide()) for m in range(1 << n)}

    for n, rows in ((4, [[rng.choice(Q_COEFFS) for _ in range(4)] for _ in range(4)]),
                    (3, [[wide() for _ in range(3)] for _ in range(3)])):
        u, v = dense(n), dense(n)
        packed, dicted = _both_sums(RATIONALS, rows, u, v, True)
        assert packed == dicted == _oracle(RATIONALS, rows, u, v, True)
        assert max(abs(c.value.denominator) for c in packed.values()) > 10 ** 999


# ------------------------------------------------ packed and dict pair passes

def _pairs_both_ways(monkeypatch, p, n, rows, w):
    """_contract_pairs of one input, a (data, den) pair, on both
    carriers: as its rule sends it, and again with each pair pass
    standing in for the other."""
    chosen = _contract_pairs(p, n, rows, w)
    packed, passes = clifford._packed_pairs, clifford._pair_passes

    def dict_as_packed(g, n, values):
        out = passes(g, dict(enumerate(values)))
        return [out.get(k, 0) for k in range(1 << n)]

    def packed_as_dict(g, terms):
        return dict(enumerate(packed(g, len(g), [terms.get(k, 0) for k in range(1 << len(g))])))

    with monkeypatch.context() as m:
        m.setattr(clifford, "_packed_pairs", dict_as_packed)
        m.setattr(clifford, "_pair_passes", packed_as_dict)
        other = _contract_pairs(p, n, rows, w)
    return chosen, other


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_packed_pairs_match_pair_passes(field, monkeypatch):
    """Both pair passes give the same map on the same input: w dense,
    of exactly 2^(n-1) blades (the edge of the rule from n = 7), of one
    blade fewer and of three, under random rows and under rows with a
    zero strict upper part; at n <= 5, so does the pair-matching
    oracle.  Then exp_contract on both carriers, dense and sparse."""
    rng = random.Random(f"pairs/{field.spec}")
    sides = set()
    for n in range(1, 9):
        ctx = AlgebraContext(n, field)
        upper = [[_coeff(rng, field).value if i < j and rng.random() < 0.7 else 0
                  for j in range(n)] for i in range(n)]
        lower = [[_coeff(rng, field).value if i >= j else 0 for j in range(n)]
                 for i in range(n)]
        for rows in (upper, lower):
            F = BilinearForm.make(ctx, rows)
            for count in {None, 1 << (n - 1), (1 << (n - 1)) - 1, min(3, 1 << n)} - {0}:
                w = _blade_terms(rng, field, n, count)
                sides.add(2 * len(w) >= 1 << max(n, 7))
                chosen, other = _pairs_both_ways(monkeypatch, field.char, n, _kernel_rows(rows),
                                                 _pair(field, w))
                assert chosen == other
                if n <= 5:
                    assert _terms(field, chosen) == deform_sum(F, QuadraticForm.zero(ctx), w)
                if rows is lower:
                    assert chosen == _pair(field, w)
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        astar = DualTwoForm.make(ctx, [[_coeff(rng, field) for _ in range(n - 1 - i)]
                                       for i in range(n - 1)])
        for count in (None, min(3, 1 << n)):
            w = CliffElt(cctx, _blade_terms(rng, field, n, count))
            chosen = exp_contract(astar, w)
            with monkeypatch.context() as m:
                m.setattr(clifford, "_contract_pairs",
                          lambda p, n, rows, w: _pairs_both_ways(monkeypatch, p, n, rows, w)[1])
                assert exp_contract(astar, w) == chosen
    assert sides == {True, False}


def test_packed_pairs_on_wide_rationals(monkeypatch):
    """1,000-digit numerators and denominators in w and in the rows make
    the slots and the grade weights thousands of bits wide: both pair
    passes and the oracle agree, dense and on 2^(n-1) blades."""
    rng = random.Random("pairs/wide")
    dens = [rng.randrange(10 ** 999, 10 ** 1000) for _ in range(2)]

    def wide():
        return Fraction(rng.randrange(10 ** 999, 10 ** 1000) * rng.choice((1, -1)),
                        rng.choice(dens))

    for n in (4, 5):
        ctx = AlgebraContext(n, RATIONALS)
        rows = [[wide() for _ in range(n)] for _ in range(n)]
        F = BilinearForm.make(ctx, rows)
        for count in (None, 1 << (n - 1)):
            w = {b: RATIONALS(wide()) for b in _blade_terms(rng, RATIONALS, n, count)}
            chosen, other = _pairs_both_ways(monkeypatch, 0, n, _kernel_rows(rows),
                                             _pair(RATIONALS, w))
            assert chosen == other
            chosen = _terms(RATIONALS, chosen)
            assert chosen == deform_sum(F, QuadraticForm.zero(ctx), w)
            assert max(c.value.denominator for c in chosen.values()) > 10 ** 2000


# (n, c, f): the pairs (1, 2), (3, 4), ... of n letters, each with f,
# on a dense w of the value c.  Nothing lies between a pair's letters,
# so each contracts with the sign +, and the slot at the empty blade is
# c (1 + f)^(n / 2), the pair product's bound exactly.  The values are
# each field's own (over GF(p) 0 < c < p and |f| <= p / 2); one case
# per field fills its largest slot past 2^(W - 2), and over GF(7) the
# slot 384 at n = 6 is 2 bits past an 8-bit carrier, so a bound 2 bits
# low would choose that carrier.
PAIR_EDGES = {
    7: [(2, 6, 3), (4, 6, 3), (6, 6, 3), (8, 6, 3), (4, 6, -3), (6, 5, -2)],
    (1 << 61) - 1: [(2, (1 << 61) - 2, (1 << 58) - 1), (4, (1 << 61) - 2, (1 << 57) - 1),
                    (4, (1 << 61) - 2, -(1 << 60) + 1)],
    0: [(2, 3 << 10, 20), (4, 3 << 101, (1 << 20) - 1), (4, -(3 << 101), -(1 << 20) - 1)],
}


@pytest.mark.parametrize("p", PAIR_EDGES, ids=lambda p: Field(p).spec if p else "Q")
def test_packed_pairs_at_the_slot_edge(p, monkeypatch):
    """The packed pair product of aligned pairs on dense w (PAIR_EDGES)
    matches the dict passes, and some case fills its largest slot past
    half of 2^(W - 1) at the width the call chose: the bound max|w|
    (sum of e_k(r)) is tight there, and a narrower W would overflow."""
    real, widths = clifford._carrier, []

    def carrier(n, bound):
        widths.append(real(n, bound)[0])
        return real(n, bound)

    monkeypatch.setattr(clifford, "_carrier", carrier)
    filled = []
    for n, c, f in PAIR_EDGES[p]:
        g = [[(i + 1, f)] if i % 2 == 0 else [] for i in range(n)]
        terms = dict.fromkeys(range(1 << n), c)
        values = clifford._packed_pairs(g, n, list(terms.values()))
        passes = clifford._pair_passes(g, terms)
        assert values == [passes.get(m, 0) for m in range(1 << n)], (n, c, f)
        assert max(map(abs, values)) == abs(c * (1 + f) ** (n >> 1)), (n, c, f)
        filled.append(max(map(abs, values)) > 1 << (8 * widths[-1] - 2))
    assert any(filled)


# ------------------------------------------------ the kernel's entry and exit

@pytest.mark.parametrize("n", (0, 1, 5, 8, 10))
def test_pack_round_trip(n):
    """_pack against the packed map written out as the signed sum of
    x 2^(m W), and _unpack back, at every width from 1 to 17 bytes (one
    to three 64-bit limbs a slot): slots at the carrier's largest
    magnitude, 2^(W - 1) - 1 of either sign, zeros and random values."""
    rng = random.Random(f"pack/{n}")
    for width in range(1, 18):
        W = 8 * width
        edge = (1 << (W - 1)) - 1
        values = [rng.choice((edge, -edge, 0, rng.randint(-edge, edge))) for _ in range(1 << n)]
        values[0] = edge
        values[-1] = -edge if n else edge
        H, _ = clifford._constants(n, width)
        X = clifford._pack(values, width, H)
        assert X == sum(x << (m * W) for m, x in enumerate(values))
        assert clifford._unpack(X, n, width, H) == values


@pytest.mark.parametrize("width", (1, 8, 9, 17))
def test_packed_moves_at_the_slot_edge(width):
    """Every bit's wedge (a one-letter _packed_sum with zero rows, whose
    carrier is exactly width bytes) and contraction (_contract less its
    image on H) at n = 5, on slots of 2^(W - 1) - 1 of either sign,
    match the slot-by-slot rules: the bias borrows from no neighbour.
    The image of H is (H & without) ^ odd, which _packed_pairs takes
    off without a contraction."""
    n, W = 5, 8 * width
    edge = (1 << (W - 1)) - 1
    rng = random.Random(f"edge/{width}")
    values = {m: rng.choice((edge, -edge)) for m in range(1 << n)}
    assert clifford._carrier(n, edge)[0] == width
    H, masks = clifford._constants(n, width)
    X = clifford._pack(values.values(), width, H)
    wedge_only = ([0] * n * n, 1)
    for r in range(n):
        bit = 1 << r

        def sign(m):
            return -1 if (m & (bit - 1)).bit_count() & 1 else 1

        wedge = [sign(m ^ bit) * values[m ^ bit] if m & bit else 0 for m in range(1 << n)]
        assert _packed_sum(0, n, wedge_only, {bit: 1}, values) == (wedge, 1)
        down = [0 if m & bit else sign(m) * values[m | bit] for m in range(1 << n)]
        row = [(masks[r], 1)]
        _, without, odd = masks[r]
        assert (H & without) ^ odd == clifford._contract(H, row)
        got = clifford._contract(X + H, row) - clifford._contract(H, row)
        assert clifford._unpack(got, n, width, H) == down


@pytest.mark.parametrize("field", (RATIONALS, Field(2), Field(7), Field((1 << 61) - 1)),
                         ids=lambda f: f.spec)
def test_bias_images_are_the_actions_on_H(field):
    """_bias_images, built from the per-bit contractions of H, equals
    each generator action run on H as a map: the wedge times its weight
    (d > 1 over Q) plus the contraction by the row, on random rows with
    the wedge on and off and on identity rows without it (as in
    interior), on carriers of one to three 64-bit limbs a slot."""
    rng = random.Random(f"images/{field.spec}")
    weights = set()
    for n in (1, 3, 6):
        rows = [[_coeff(rng, field).value if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for raw, wedge in ((rows, True), (rows, False), (identity, False)):
            kernel = _kernel_rows(raw)
            scale = kernel[1] if wedge else 0
            weights.add(scale)
            for bound in (1, 1 << 70, 1 << 140):
                _, H, masks = clifford._carrier(n, bound)

                def act(Y, r):
                    up, without, odd = masks[r]
                    out = ((Y & without) ^ odd) << up if scale else 0
                    row = [(masks[j], f) for j, f in enumerate(kernel[0][r * n:(r + 1) * n]) if f]
                    return clifford._contract(Y, row, out * scale)

                assert (clifford._bias_images(H, masks, n, kernel, wedge)
                        == [act(H, r) for r in range(n)])
    assert {0, 1} <= weights if field.char else max(weights) > 1


def _word_action(r, row, scale, p, words):
    """e_(r+1) acting on a word -> int map by the oracles: scale times
    left multiplication by e_(r+1) plus the contraction by row, reduced
    mod p when p > 0."""
    out = left_mul_loop([scale if j == r else 0 for j in range(len(row))], words, 0)
    for w, c in contract_loop(row, words, 0).items():
        out[w] = out.get(w, 0) + c
    return {w: c % p if p else c for w, c in out.items() if (c % p if p else c)}


def _mask_action(r, n, row, scale, p, terms):
    """The same action on a mask -> int map: the low n bits of each mask
    as an increasing word, pushed back to the exterior algebra, and the
    bits above n (rho's (column << n) | row) kept as they are."""
    out = {}
    for high in {m >> n for m in terms}:
        words = {index_subset(m & ((1 << n) - 1)): c for m, c in terms.items() if m >> n == high}
        for blade, c in to_exterior(_word_action(r, row, scale, p, words), p).items():
            out[subset_index(blade) | high << n] = c
    return out


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_actions_read_rows_in_place(field):
    """_act and _act_word read row r of the kernel's rows in place,
    nums[r n:(r + 1) n], and equal the oracles' left multiplication plus
    contraction at n = 1..6: on the full rows of G_Q + F (d > 1 over Q)
    with the wedge weight d and with the wedge off, on zero rows, on a
    single row (contract's), and on masks with bits above n set, as rho
    keys its identity matrix."""
    rng = random.Random(f"rows/{field.spec}")
    p = field.char

    def value():
        return rng.randrange(p) if p else rng.randint(-40, 40)

    for n in range(1, 7):
        ctx = AlgebraContext(n, field)
        full = clifford._chevalley(rand_quadratic(rng, ctx), rand_bilinear(rng, ctx))
        cases = [(full, full[1]), (full, 0), (([0] * n * n, 1), 1), (([0] * n * n, 1), 0),
                 (([value() for _ in range(n)], 1), 0)]
        masks = {rng.randrange(1 << n) | rng.randrange(1 << n) << n: value() for _ in range(12)}
        words = {tuple(rng.randint(1, n) for _ in range(rng.randint(0, n + 2))): value()
                 for _ in range(12)}
        for (nums, d), scale in cases:
            for r in range(len(nums) // n):
                row = [nums[r * n + j] for j in range(n)]
                for terms in (masks, {m & ((1 << n) - 1): c for m, c in masks.items()}):
                    assert (_act(r, n, nums, scale, p, terms)
                            == _mask_action(r, n, row, scale, p, terms)), (n, r, scale)
                assert (_act_word(r, n, nums, scale, p, words)
                        == _word_action(r, row, scale, p, words)), (n, r, scale)
    assert full[1] > 1 if not p else full[1] == 1


@pytest.mark.parametrize("order", ("little", "big"))
def test_limb_layout_in_either_byte_order(order):
    """_limbs pads each slot of width bytes to whole 64-bit limbs laid
    out in the byte order given: each limb read in that order is the
    slot's next 64-bit digit (so the padding is zero), and in the
    machine's own order a memoryview cast reads them, as _unpack does."""
    rng = random.Random(f"limbs/{order}")
    for width in range(1, 18):
        size = -(-width // 8)
        slots = [rng.getrandbits(8 * width) for _ in range(5)]
        raw = b"".join(x.to_bytes(width, "little") for x in slots)
        buf = bytes(clifford._limbs(raw, width, order))
        limbs = [int.from_bytes(buf[i:i + 8], order) for i in range(0, len(buf), 8)]
        assert limbs == [x >> (64 * k) & ((1 << 64) - 1) for x in slots for k in range(size)]
        if order == sys.byteorder:
            assert memoryview(buf).cast("Q").tolist() == limbs


def test_rational_pair_weights_follow_the_grade(monkeypatch):
    """Over Q the pair product weighs w in slot order and lifts the
    result by grade (_grades): a w of every even grade, top grade
    n - 1 < n and no odd grade, dense enough to pack at n = 7, and a
    sparse w of grades 1 and 3 on the dicts each equal _pair_passes run
    on the Fractions themselves, rows with denominators 7, 11 and 13."""
    rng = random.Random("pairs/grades")
    n = 7
    rows = [[rng.choice(Q_COEFFS) for _ in range(n)] for _ in range(n)]
    g = [[(j, Fraction(rows[i][j])) for j in range(i + 1, n)] for i in range(n)]
    real, packed = clifford._packed_pairs, []
    monkeypatch.setattr(clifford, "_packed_pairs", lambda *a: packed.append(a) or real(*a))
    even = [m for m in range(1 << n) if not m.bit_count() & 1]
    odd = [m for m in range(1 << n) if m.bit_count() in (1, 3)]
    for masks in (even, rng.sample(odd, 5)):
        w = {m: Fraction(rng.choice(Q_COEFFS)) for m in masks}
        nums, den = scaled_ints(list(w.values()))
        data, den = _contract_pairs(0, n, _kernel_rows(rows), (dict(zip(w, nums)), den))
        want = {m: c for m, c in clifford._pair_passes(g, w).items() if c}
        assert {m: Fraction(x, den) for m, x in data.items()} == want
    assert len(packed) == 1


def test_carrier_constants_are_kept_up_to_the_limit():
    """A carrier of at most _KEEP_BITS bits takes its constants from the
    kept table, equal to a fresh build, in at most 64 entries; a dense
    deform at n = 14 over GF(7), on carriers past the limit, leaves no
    entry in it."""
    kept = clifford._kept
    assert kept.cache_info().maxsize == 64
    kept.cache_clear()
    ctx = AlgebraContext(14, Field(7))
    rng = random.Random("kept")
    w = CliffElt._of(CliffordContext.exterior(ctx),
                     {m: rng.randrange(1, 7) for m in range(1 << 14)})
    A = BilinearForm.make(ctx, [[rng.randrange(7) for _ in range(14)] for _ in range(14)])
    assert deform(A, w) != w
    assert kept.cache_info().currsize == 0
    for n, bound in ((0, 1), (5, 1 << 40), (10, 1 << 62), (13, 100)):
        width, H, masks = clifford._carrier(n, bound)
        assert 8 * width << n <= clifford._KEEP_BITS
        assert (H, masks) == clifford._constants(n, width)
        assert clifford._carrier(n, bound)[2] is masks
    assert kept.cache_info().currsize == 4
    assert 8 * clifford._carrier(14, 1)[0] << 14 > clifford._KEEP_BITS
    assert kept.cache_info().currsize == 4


@pytest.mark.parametrize("kind", (CliffElt, TensorElt))
def test_constructors_take_scalars_of_their_field(kind):
    """CliffElt and TensorElt take Scalars of their context's field
    only: one of GF(7) over Q, or a Q one (1/2) over GF(7), raises
    FieldMismatch with the message of AlgebraContext.coerce, and a value
    that is not a Scalar raises FormError naming it."""
    def make(field, value):
        ctx = AlgebraContext(2, field)
        home = CliffordContext.exterior(ctx) if kind is CliffElt else ctx
        return kind(home, {(1,): value})

    with pytest.raises(FieldMismatch, match=r"^scalar over Fp:7 used in a Q context$"):
        make(RATIONALS, Field(7)(10))
    with pytest.raises(FieldMismatch, match=r"^scalar over Q used in a Fp:7 context$"):
        make(Field(7), RATIONALS(Fraction(1, 2)))
    with pytest.raises(FormError, match=r"^a coefficient must be a Scalar, got 3$"):
        make(RATIONALS, 3)
    assert make(Field(7), Field(7)(10)).data == {1 if kind is CliffElt else (1,): 3}


def test_blade_tables_match_bit_loops():
    """_blades and _masks are index_subset and subset_index on every
    mask up to n = 12, the largest kept table, and at n = 13, past the
    tables, a dense element's terms view and constructor convert every
    key by the bit loops."""
    for n in range(clifford._TABLE_DIM + 1):
        blades = clifford._blades(n)
        assert list(blades) == [index_subset(m) for m in range(1 << n)]
        assert clifford._masks(n) == {b: subset_index(b) for b in blades}
    cctx = CliffordContext.exterior(AlgebraContext(13, RATIONALS))
    dense = CliffElt._of(cctx, dict.fromkeys(range(1 << 13), 1))
    assert list(dense.terms) == [index_subset(m) for m in range(1 << 13)]
    assert CliffElt(cctx, dense.terms) == dense


def test_sparse_calls_above_the_tables_build_none(monkeypatch):
    """Above n = 12 blades and masks convert key by key: a product, a
    deformation and exp_contract at n = 40 and the terms of their
    results ask for no blade table, and give what the defining rules
    do."""
    kept = clifford._blades

    def blades(n):
        assert n <= clifford._TABLE_DIM, f"a blade table at n = {n}"
        return kept(n)

    monkeypatch.setattr(clifford, "_blades", blades)
    ctx = AlgebraContext(40, RATIONALS)
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    e = {i: CliffElt.blade(cctx, (i,)) for i in (3, 17, 40)}
    assert e[40] * e[3] == -CliffElt.blade(cctx, (3, 40))
    A = BilinearForm.make(ctx, [[int((i, j) == (2, 39)) - int((i, j) == (39, 2))
                                 for j in range(40)] for i in range(40)])
    w = CliffElt.blade(cctx, (3, 17, 40)) + e[17]
    out = deform(A, w, target=cctx)
    assert out != w and out.terms == deform_sum(A, cctx.quadratic, w.terms)
    assert exp_contract(dual_two_form(A), w) == out


def test_blade_of_a_non_iterable_is_refused():
    """CliffElt.blade with an int for the indices raises the
    constructor's FormError, not the TypeError of tuple()."""
    cctx = CliffordContext.exterior(AlgebraContext(3, RATIONALS))
    with pytest.raises(FormError, match=r"^a term's key must be a blade on e_1\.\.e_3, got 5$"):
        CliffElt.blade(cctx, 5)


@pytest.mark.parametrize("key", [(2, 1), (1, 5)])
def test_coeff_of_a_key_that_is_not_a_blade_is_refused(key):
    """coeff refuses a key the constructor refuses, with its FormError,
    where it answered 0: at n = 3 a blade out of order and one out of
    range.  A blade, as a tuple or a list, reads its coefficient."""
    cctx = CliffordContext.exterior(AlgebraContext(3, RATIONALS))
    u = CliffElt(cctx, {(1, 2): cctx.coerce(3)})
    with pytest.raises(FormError, match=r"^a term's key must be a blade on e_1\.\.e_3, "
                                        f"got {re.escape(repr(key))}$"):
        u.coeff(key)
    assert u.coeff((1, 2)) == u.coeff([1, 2]) == cctx.coerce(3)
    assert u.coeff((3,)) == u.coeff(()) == cctx.coerce(0)


@pytest.mark.parametrize("n", [3, clifford._TABLE_DIM + 1])
def test_kernel_refuses_keys_that_are_not_blades(n):
    """A term key that is not a blade on e_1 .. e_n (out of order,
    repeated, out of range, not a tuple of ints) never reaches the
    kernel: building the element raises a FormError that names it,
    with a zero coefficient too and through CliffElt.blade, whether the
    key is looked up in the kept tables (n <= 12) or tested key by key
    (n = 13).  A key equal to a blade is stored as the blade itself."""
    ctx = AlgebraContext(n, RATIONALS)
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    one = CliffElt.blade(cctx, ())
    for key in [(2, 1), (3, 3), (n + 1,), (0,), (1.5,), "ab"]:
        for coeff in (1, 0):
            with pytest.raises(FormError, match=f"got {re.escape(repr(key))}$"):
                CliffElt(cctx, {key: ctx.coerce(coeff)})
        if isinstance(key, tuple):
            with pytest.raises(FormError, match=f"got {re.escape(repr(key))}$"):
                CliffElt.blade(cctx, key)
    good = CliffElt(cctx, {(1, 3): ctx.coerce(2)})
    assert good * one == CliffElt.blade(cctx, (1, 3), 2)
    for elt in (CliffElt.blade(cctx, (True, 2)), CliffElt(cctx, {(True, 2): ctx.coerce(1)})):
        assert [type(i) for k in elt.terms for i in k] == [int, int]
        assert elt.to_json() == {"terms": [{"blade": [1, 2], "coeff": "1"}]}


@pytest.mark.parametrize("n", [3, clifford._TABLE_DIM + 1])
def test_built_elements_round_trip_through_json(n):
    """Every element that can be built survives to_json -> from_json,
    keys equal to a blade (a bool or int subclass as an index) included."""
    ctx = AlgebraContext(n, Field(7))
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    c = ctx.coerce(3)
    for terms in ({(True,): c}, {(True, 2): c, (): c}, {(1, 2, 3): c, (2,): c},
                  {tuple(range(1, n + 1)): c}):
        elt = CliffElt(cctx, terms)
        assert CliffElt.from_json(cctx, elt.to_json()) == elt
    rng = random.Random(24)
    for _ in range(20):
        elt = rand_cliff(rng, cctx)
        assert CliffElt.from_json(cctx, elt.to_json()) == elt


def test_mask_walk_matches_suffix_walk():
    """On blades the mask walk yields the suffix walk's triples in the
    same order and acts out as many letters: random sparse and dense
    sets of blades, with and without the empty blade."""
    rng = random.Random("walks")
    for n in range(9):
        blades = clifford._blades(n)
        for count in {1, 2, 3, 1 << max(n - 1, 0), (1 << n) - 1}:
            chosen = rng.sample(range(1, 1 << n), min(count, (1 << n) - 1))
            for masks in (chosen, chosen + [0]):
                walks = []
                for walk, items in ((clifford._mask_walk, [(m, m) for m in masks]),
                                    (clifford._suffix_walk, [(blades[m], m) for m in masks])):
                    steps = []

                    def step(got, letter):
                        steps.append(letter)
                        return got + (letter,)

                    walks.append((list(walk(items, (), step)), len(steps)))
                assert walks[0] == walks[1]
                assert sorted(m for m, _, _ in walks[0][0]) == sorted(masks)
                assert all(got == blades[m][::-1] and k == len(blades[m])
                           for m, k, got in walks[0][0])


def test_exit_over_prime_fields():
    """The exit over GF(3), GF(7) and GF(2^61 - 1) keeps the nonzero
    residues over den 1, in the order of the keys, and the terms view
    of its element holds their Scalars: canonical, and of the caller's
    field object."""
    rng = random.Random("exit")
    keys = range(1 << 5)
    for p in (3, 7, (1 << 61) - 1):
        field = Field(p)
        values = [rng.choice((0, p, -p, 1 - p, rng.randrange(-10 * p, 10 * p))) for _ in keys]
        data, den = _canonical(p, keys, values, 1)
        assert den == 1 and data == {k: x % p for k, x in zip(keys, values) if x % p}
        assert list(data) == [k for k, x in zip(keys, values) if x % p]
        cctx = CliffordContext.exterior(AlgebraContext(5, field))
        out = CliffElt._of(cctx, data).terms
        assert out == {index_subset(k): field(x) for k, x in zip(keys, values) if x % p}
        assert all(c.field is field and type(c.value) is int and 0 < c.value < p
                   for c in out.values())


def test_vector_squares():
    rng = random.Random(2)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(30):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            x = rand_vector(rng, ctx)
            xe = CliffElt.from_vector(cctx, x)
            assert xe * xe == cctx.quadratic(x) * CliffElt.unit(cctx)


def test_quotient_is_algebra_map():
    rng = random.Random(4)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(25):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            u = rand_tensor(rng, ctx, max_grade=3, terms=2)
            v = rand_tensor(rng, ctx, max_grade=3, terms=2)
            assert quotient_map(cctx, u * v) \
                == quotient_map(cctx, u) * quotient_map(cctx, v)


def test_quotient_kills_defining_relations():
    rng = random.Random(6)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(25):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        x = rand_vector(rng, ctx)
        rel = TensorElt.from_vector(x) * TensorElt.from_vector(x) \
            - cctx.quadratic(x) * TensorElt.unit(ctx)
        assert not quotient_map(cctx, rel)


def test_quotient_nontrivial():
    # the unit never dies, for any quadratic form
    rng = random.Random(8)
    for field in FIELDS:
        ctx = AlgebraContext(3, field)
        for _ in range(10):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            assert quotient_map(cctx, TensorElt.unit(ctx))


def test_descended_contraction():
    rng = random.Random(10)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(20):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            f = rand_linear_form(rng, ctx)
            u = rand_tensor(rng, ctx)
            assert quotient_map(cctx, TensorElt(ctx, dict())) == CliffElt.zero(cctx)
            assert clifford_contract(f, quotient_map(cctx, u)) \
                == quotient_map(cctx, contract(f, u))


def test_deform_between_algebras():
    rng = random.Random(12)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(20):
            target = CliffordContext(rand_quadratic(rng, ctx))
            F = rand_bilinear(rng, ctx)
            src = target.shift(F)
            w = rand_cliff(rng, src)
            out = deform(F, w, target=target)
            assert out.cctx == target
            # vectors are fixed, the unit is fixed
            assert deform(F, CliffElt.unit(src), target=target) \
                == CliffElt.unit(target)
            x = rand_vector(rng, ctx)
            assert deform(F, CliffElt.from_vector(src, x), target=target) \
                == CliffElt.from_vector(target, x)


def test_deform_context_mismatch():
    # the element's form must equal target form + quadratic part of F
    ctx = AlgebraContext(2, RATIONALS)
    cctx = CliffordContext(QuadraticForm.make(ctx, [1, 1], [[0]]))
    F = BilinearForm.zero(ctx)
    wrong_target = CliffordContext(QuadraticForm.make(ctx, [5, 5], [[0]]))
    with pytest.raises(FormError):
        deform(F, CliffElt.unit(cctx), target=wrong_target)


_SHIFT_REFUSED = ("quadratic forms do not match: source must equal target plus the "
                  "quadratic part of the deforming form")


def _shift_cases():
    """(name, F, source Q, target Q, the error deform_apply raises and
    its message, None when the shift holds) for _check_shift."""
    q_ctx, f_ctx = AlgebraContext(3, RATIONALS), AlgebraContext(3, Field(7))
    F = BilinearForm.make(q_ctx, [[1, 2, 0], [Fraction(1, 2), 3, 1], [0, 4, Fraction(-1, 3)]])
    target = QuadraticForm.make(q_ctx, [1, 0, 2], [[1, Fraction(1, 5)], [0]])
    source = target + quad_of_bilinear(F)

    def edited(q, k, delta):
        nums = list(q.nums)
        nums[k] += delta * q.den
        return QuadraticForm(q.ctx, nums, q.den)

    G = BilinearForm.make(f_ctx, [[3, 1, 0], [4, 5, 0], [0, 2, 6]])
    t7 = QuadraticForm.make(f_ctx, [4, 4, 1], [[2, 0], [6]])
    # the residues of t7 + quad_of_bilinear(G), whose integer differences
    # at (1, 1) and (2, 1) are 0 - 4 - 3 and 0 - 2 - (4 + 1), both -7
    s7 = QuadraticForm(f_ctx, (0, 0, 0, 0, 2, 0, 0, 1, 0), 1)
    # three distinct dens: F over 2, the target over 3, the source over 6
    H = BilinearForm.make(q_ctx, [[Fraction(1, 2), 0, 0], [0, 0, 0], [1, 0, 0]])
    t3 = QuadraticForm.make(q_ctx, [Fraction(1, 3), 0, 1], [[1, 0], [Fraction(2, 3)]])
    s6 = t3 + quad_of_bilinear(H)
    assert (H.den, t3.den, s6.den) == (2, 3, 6)
    other = AlgebraContext(2, RATIONALS)
    refused = (FormError, _SHIFT_REFUSED)
    return [
        ("holds", F, source, target, None),
        ("diagonal wrong", F, edited(source, 4, 1), target, refused),
        ("one polar value wrong", F, edited(source, 7, -1), target, refused),
        ("difference 7 over GF(7)", G, s7, t7, None),
        ("difference nonzero mod 7", G, edited(s7, 0, 1), t7, refused),
        ("dens differ, values equal", H, s6, t3, None),
        ("dims differ", F, QuadraticForm.zero(other), target, refused),
        ("fields differ", G, QuadraticForm.zero(q_ctx), t7, refused),
        ("F of another context", BilinearForm.zero(other), source, target,
         (ContextMismatch, f"contexts differ: {other} vs {q_ctx}")),
    ]


@pytest.mark.parametrize("name, F, source, target, refused", _shift_cases(),
                         ids=[case[0] for case in _shift_cases()])
def test_check_shift_table(name, F, source, target, refused):
    """deform_apply checks that the source form is the target's plus
    F's quadratic part: each refusal raises its error with its message,
    and each accepted shift gives deform of the source element."""
    u = CliffElt.blade(CliffordContext(source), (1, 2))
    v = CliffElt.unit(CliffordContext(target))
    if refused is None:
        assert deform_apply(F, u, v) == deform(F, u, target=v.cctx)
        return
    error, message = refused
    with pytest.raises(error) as info:
        deform_apply(F, u, v)
    assert str(info.value) == message


def test_deform_apply_operator():
    rng = random.Random(14)
    for field in FIELDS:
        ctx = AlgebraContext(3, field)
        for _ in range(20):
            base = CliffordContext(rand_quadratic(rng, ctx))
            F = rand_bilinear(rng, ctx)
            src = base.shift(F)
            u = rand_cliff(rng, src, terms=2)
            v = rand_cliff(rng, src, terms=2)
            w = rand_cliff(rng, base, terms=2)
            assert deform_apply(F, u * v, w) \
                == deform_apply(F, u, deform_apply(F, v, w))
            assert deform_apply(F, u, CliffElt.unit(base)) \
                == deform(F, u, target=base)


def test_twisted_product_vector_rule():
    rng = random.Random(16)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(20):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            F = rand_bilinear(rng, ctx)
            x = rand_vector(rng, ctx)
            v = rand_cliff(rng, cctx)
            xe = CliffElt.from_vector(cctx, x)
            assert twisted_mul(F, xe, v) == xe * v + clifford_contract_vec(F, x, v)


def test_twisted_product_associative():
    rng = random.Random(18)
    ctx = AlgebraContext(3, RATIONALS)
    for _ in range(10):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        u = rand_cliff(rng, cctx, terms=2)
        v = rand_cliff(rng, cctx, terms=2)
        w = rand_cliff(rng, cctx, terms=2)
        assert twisted_mul(F, twisted_mul(F, u, v), w) \
            == twisted_mul(F, u, twisted_mul(F, v, w))


def _dual(f):
    """A linear form as a grade-1 element of the exterior algebra."""
    return CliffElt.from_vector(CliffordContext.exterior(f.ctx), Vector.make(f.ctx, f.coeffs))


def test_dual_wedge_antisymmetry():
    ctx = AlgebraContext(3, RATIONALS)
    f = _dual(rand_linear_form(random.Random(1), ctx))
    g = _dual(rand_linear_form(random.Random(2), ctx))
    assert f * g == -(g * f)
    assert not (f * f)


def test_interior_composes():
    rng = random.Random(20)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(20):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        w = rand_cliff(rng, cctx)
        f = _dual(rand_linear_form(rng, ctx))
        g = _dual(rand_linear_form(rng, ctx))
        assert interior(f * g, w) == interior(f, interior(g, w))


@pytest.mark.parametrize("field", (Field(2), Field(3), Field(7), RATIONALS),
                         ids=lambda f: f.spec)
def test_interior_takes_exterior_elements(field):
    """interior reads an exterior-algebra element as one of the dual:
    the unit acts as the identity, zero and anything on zero give zero,
    a one-form acts as its contraction, and an element of another
    algebra or dimension is refused."""
    rng = random.Random(26)
    ctx = AlgebraContext(4, field)
    ext = CliffordContext.exterior(ctx)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    w = rand_cliff(rng, cctx)
    f = rand_linear_form(rng, ctx)
    two = CliffElt(ext, _blade_terms(rng, field, 4, 5))
    assert interior(CliffElt.unit(ext), w) == w
    assert interior(CliffElt.zero(ext), w) == CliffElt.zero(cctx)
    assert interior(two, CliffElt.zero(cctx)) == CliffElt.zero(cctx)
    assert interior(_dual(f), w) == clifford_contract(f, w)
    assert interior(two, w).terms == interior_sum(two.terms, w.terms, field.zero)
    assert not cctx.is_exterior()
    with pytest.raises(FormError, match="exterior-algebra element"):
        interior(w, w)
    with pytest.raises(ContextMismatch):
        interior(CliffElt.unit(CliffordContext.exterior(AlgebraContext(3, field))), w)
    assert exp_contract(DualTwoForm.zero(ctx), w) == w
    assert exp_contract(dual_two_form(rand_alternating(rng, ctx)), CliffElt.zero(cctx)) \
        == CliffElt.zero(cctx)


def test_exp_contract_is_deformation():
    rng = random.Random(22)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(20):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        a = rand_alternating(rng, ctx)
        astar = dual_two_form(a)
        w = rand_cliff(rng, cctx)
        assert exp_contract(astar, w) == deform(a, w, target=cctx)


def test_exp_contract_refuses_work_over_the_guard():
    """A dense two-form on e_1...e_18 is refused before any work
    (e_1...e_17 runs, in about 0.7 CPU-s); what counts is w's support
    inside the form's nonzero pairs, not the dimension."""
    def ones(n, pairs=None):
        ctx = AlgebraContext(n, RATIONALS)
        rows = [[int(pairs is None or (i, j) in pairs) for j in range(i + 1, n)]
                for i in range(n - 1)]
        return DualTwoForm.make(ctx, rows), CliffordContext(QuadraticForm.zero(ctx))

    astar, cctx = ones(18)
    with pytest.raises(CapExceeded, match="153 pairs on 18 indices of w, 1 terms"):
        exp_contract(astar, CliffElt.blade(cctx, range(1, 19)))
    astar, cctx = ones(40)
    assert exp_contract(astar, CliffElt.blade(cctx, (3, 17, 40)))
    astar, cctx = ones(40, pairs={(0, 1), (5, 9)})
    assert exp_contract(astar, CliffElt.blade(cctx, range(1, 41)))
    # dense inputs at the benchmark's largest n
    rng = random.Random(5)
    ctx = AlgebraContext(8, RATIONALS)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    w = CliffElt(cctx, {b: rand_scalar(rng, RATIONALS, nonzero=True)
                        for k in range(9) for b in combinations(range(1, 9), k)})
    assert len(w.terms) == 256
    assert exp_contract(ones(8)[0], w)


def test_exp_contract_guard_counts_every_term():
    """Each nonzero pair is one pass over all running terms, so a w of
    many terms is refused although each term alone is small: the 45
    pairs on e_1...e_10 against 2000 blades holding e_1...e_10, each
    pass over up to 2000 * 2^10 terms (about 12 CPU-s if it ran)."""
    ctx = AlgebraContext(22, RATIONALS)
    astar = DualTwoForm.make(ctx, [[int(j < 10) for j in range(i + 1, 22)] for i in range(21)])
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    w = CliffElt(cctx, {tuple(range(1, 11)) + tuple(11 + i for i in range(12) if m >> i & 1):
                        RATIONALS(1) for m in range(2000)})
    with pytest.raises(CapExceeded, match=r"work 92160000 .* 45 pairs on 10 indices of w, "
                                          r"2000 terms"):
        exp_contract(astar, w)


def test_symbol_quantize_round_trip():
    rng = random.Random(24)
    for field in (RATIONALS, Field(7)):
        ctx = AlgebraContext(4, field)
        for _ in range(20):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            w = rand_cliff(rng, cctx)
            assert quantize(cctx, symbol(w)) == w


def test_symbol_and_quantize_run_no_shift_check(monkeypatch):
    """symbol and quantize hand half the polar form to the pair product
    directly, since their shift holds by construction: with _check_shift
    made to raise, both still equal deform by that form with the target
    given, sparse (dict passes) and dense at n = 7 (packed carrier)."""
    rng = random.Random(27)
    cases = []
    for field in (RATIONALS, Field(7)):
        ctx = AlgebraContext(7, field)
        cctx, ext = CliffordContext(rand_quadratic(rng, ctx)), CliffordContext.exterior(ctx)
        half = _half_polar_form(cctx)
        for count in (5, None):
            w = CliffElt(cctx, _blade_terms(rng, field, 7, count))
            e = CliffElt(ext, _blade_terms(rng, field, 7, count))
            cases.append((cctx, w, e, deform(half, w, target=ext), deform(-half, e, target=cctx)))

    def refuse(*args):
        raise AssertionError("_check_shift ran")

    monkeypatch.setattr(clifford, "_check_shift", refuse)
    for cctx, w, e, sym, quant in cases:
        assert symbol(w) == sym and quantize(cctx, e) == quant


def test_symbol_rejects_char_two():
    ctx = AlgebraContext(2, Field(2))
    cctx = CliffordContext(QuadraticForm.make(ctx, [1, 1], [[1]]))
    with pytest.raises(CharacteristicError):
        symbol(CliffElt.unit(cctx))


def test_quantize_matches_permutation_sum():
    rng = random.Random(26)
    ctx = AlgebraContext(4, RATIONALS)
    ext = CliffordContext.exterior(ctx)
    for _ in range(10):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        for k in range(1, 5):
            ys = [rand_vector(rng, ctx) for _ in range(k)]
            wedge = CliffElt.unit(ext)
            for y in ys:
                wedge = wedge * CliffElt.from_vector(ext, y)
            assert quantize(cctx, wedge) == quantize_perm_sum(cctx, ys)


def test_symbol_fixes_orthogonal_blades():
    ctx = AlgebraContext(3, RATIONALS)
    q = QuadraticForm.make(ctx, [2, -1, Fraction(1, 3)])
    cctx = CliffordContext(q)
    ext = CliffordContext.exterior(ctx)
    for blade in [(), (1,), (2, 3), (1, 2, 3)]:
        assert symbol(CliffElt.blade(cctx, blade)) == CliffElt.blade(ext, blade)


def test_grade_involution_and_reverse_descend():
    rng = random.Random(28)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(15):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            u = rand_tensor(rng, ctx)
            pu = quotient_map(cctx, u)
            assert quotient_map(cctx, u.grade_involution()) == pu.grade_involution()
            assert quotient_map(cctx, u.reverse()) == pu.reverse()


def test_cliff_json_round_trip():
    rng = random.Random(30)
    ctx = AlgebraContext(3, Field(5))
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    for _ in range(20):
        w = rand_cliff(rng, cctx)
        assert CliffElt.from_json(cctx, w.to_json()) == w
    assert CliffordContext.from_json(cctx.to_json()) == cctx


def test_clifford_context_needs_a_quadratic_form():
    """A record that is not a QuadraticForm is refused, with FormError:
    a bilinear form with the same data would multiply as if it were G_Q
    and write JSON that from_json cannot read.  _of builds take their
    form as it is."""
    ctx = AlgebraContext(2, RATIONALS)
    for bad in (BilinearForm(ctx, (0, 1, 0, 0), 1), QuadraticForm.zero(ctx).nums, None, ctx):
        with pytest.raises(FormError, match="a Clifford context needs a QuadraticForm"):
            CliffordContext(bad)
    q = QuadraticForm(ctx, (0, 0, 1, 0), 1)
    assert CliffordContext._of(q) == CliffordContext(q) == CliffordContext.exterior(ctx).shift(
        BilinearForm(ctx, (0, 0, 1, 0), 1))


def test_blade_validation():
    ctx = AlgebraContext(3, RATIONALS)
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (2, 1))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (1, 1))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (4,))

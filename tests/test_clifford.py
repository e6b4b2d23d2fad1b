"""Clifford algebras by normal ordering, the quotient map, deformation
maps between algebras, twisted products, gauge action, symbol and
quantization."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CapExceeded,
                         CharacteristicError, CliffElt, CliffordContext, ContextMismatch,
                         DualTwoForm, Field, FormError, QuadraticForm,
                         RATIONALS, TensorElt, Vector, clifford_contract,
                         clifford_contract_vec, contract, deform,
                         deform_apply, dual_two_form, exp_contract, interior,
                         quantize, quotient_map, symbol, twisted_mul)
from cliffbundle.sampling import (rand_alternating, rand_bilinear, rand_cliff,
                                  rand_linear_form, rand_quadratic, rand_scalar,
                                  rand_tensor, rand_vector)

from cliffbundle import clifford
from cliffbundle.clifford import (_act, _actions, _contract_pairs, _operate, _packed_sum,
                                  _scalars, _word_sum, index_subset, subset_index)
from oracles import (deform_sum, interior_sum, pair_sum, quantize_perm_sum, to_exterior,
                     word_sum)

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


# ------------------------------------------------ packed and dict word sums

PACKED_FIELDS = (RATIONALS, Field(2), Field(3), Field(7), Field((1 << 61) - 1))


def _both_sums(field, rows, u, v, wedge):
    """_packed_sum and _word_sum of the same call, each as the map
    _operate would return; u and v map blades to Scalars."""
    n = len(rows[0])
    actions = _actions(rows, wedge)
    masks = {subset_index(b): c.value for b, c in v.items()}
    values, den = _packed_sum(actions, field.char, n, u, masks)
    out, den_dict = _word_sum(_act, actions, field.char, u, masks)
    return (_scalars(field, map(index_subset, range(1 << n)), values, den),
            _scalars(field, map(index_subset, out), out.values(), den_dict))


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
                assert _operate(field, rows, u, v, wedge) == packed
                # the pair-sum oracle takes seconds on dense operands above n = 3
                if n <= 5 and (count or n <= 3) and (wedge or rows is identity):
                    assert packed == _oracle(field, rows, u, v, wedge)
            packed, dicted = _both_sums(field, rand_rows(n, 1), {(1,): field.one}, v, False)
            assert packed == dicted
    assert sides == {True, False}


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

def _pairs_both_ways(monkeypatch, field, rows, w):
    """_contract_pairs of one input on both carriers: as its rule sends
    it, and again with each pair pass standing in for the other."""
    chosen = _contract_pairs(field, rows, w)
    packed, passes = clifford._packed_pairs, clifford._pair_passes

    def dict_as_packed(g, n, terms):
        out = passes(g, terms)
        return [out.get(k, 0) for k in range(1 << n)]

    with monkeypatch.context() as m:
        m.setattr(clifford, "_packed_pairs", dict_as_packed)
        m.setattr(clifford, "_pair_passes",
                  lambda g, terms: dict(enumerate(packed(g, len(g), terms))))
        other = _contract_pairs(field, rows, w)
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
                chosen, other = _pairs_both_ways(monkeypatch, field, rows, w)
                assert chosen == other
                if n <= 5:
                    assert chosen == deform_sum(F, QuadraticForm.zero(ctx), w)
                if rows is lower:
                    assert chosen == w
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        astar = DualTwoForm.make(ctx, [[_coeff(rng, field) for _ in range(n - 1 - i)]
                                       for i in range(n - 1)])
        for count in (None, min(3, 1 << n)):
            w = CliffElt(cctx, _blade_terms(rng, field, n, count))
            chosen = exp_contract(astar, w)
            with monkeypatch.context() as m:
                m.setattr(clifford, "_contract_pairs",
                          lambda f, rows, terms: _pairs_both_ways(monkeypatch, f, rows, terms)[1])
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
            chosen, other = _pairs_both_ways(monkeypatch, RATIONALS, rows, w)
            assert chosen == other == deform_sum(F, QuadraticForm.zero(ctx), w)
            assert max(c.value.denominator for c in chosen.values()) > 10 ** 2000


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
    return CliffElt.from_vector(CliffordContext.exterior(f.ctx), Vector(f.ctx, f.coeffs))


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


def test_blade_validation():
    ctx = AlgebraContext(3, RATIONALS)
    cctx = CliffordContext(QuadraticForm.zero(ctx))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (2, 1))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (1, 1))
    with pytest.raises(FormError):
        CliffElt.blade(cctx, (4,))

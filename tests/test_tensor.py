"""Tensor-algebra operators: contractions, deformations, divided powers."""

import random
from fractions import Fraction

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CapExceeded, Field,
                         FormError, LinearForm, ParseError, RATIONALS,
                         TensorElt, Vector, contract, contract_vec,
                         divided_power, left_mul, pfaffian, tensor_deform,
                         tensor_deform_apply)
from cliffbundle import tensor
from cliffbundle.sampling import (rand_alternating, rand_bilinear,
                                  rand_linear_form, rand_tensor)

from oracles import contract_loop, deform_word_pairs, left_mul_loop, pair_sum, raw_terms

FIELDS = (RATIONALS, Field(2), Field(7))
# rationals with distinct denominators, so that a lost weight or
# denominator in the fraction-free kernel changes the result
Q_COEFFS = (Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13), Fraction(2), Fraction(-1))


def test_contraction_explicit_signs():
    # i_f(x1 (x) x2 (x) x3) = f(x1) x2x3 - f(x2) x1x3 + f(x3) x1x2
    ctx = AlgebraContext(3, RATIONALS)
    f = LinearForm.make(ctx, [2, 3, 5])
    u = TensorElt.from_word(ctx, (1, 2, 3))
    got = contract(f, u)
    expected = (TensorElt.from_word(ctx, (2, 3), 2)
                + TensorElt.from_word(ctx, (1, 3), -3)
                + TensorElt.from_word(ctx, (1, 2), 5))
    assert got == expected


def test_contraction_kills_scalars():
    ctx = AlgebraContext(2, RATIONALS)
    f = LinearForm.make(ctx, [1, 1])
    assert not contract(f, TensorElt.unit(ctx))


def test_contraction_is_antiderivation():
    rng = random.Random(2)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(50):
            f = rand_linear_form(rng, ctx)
            g = rand_linear_form(rng, ctx)
            u = rand_tensor(rng, ctx)
            assert not contract(f, contract(f, u))
            assert contract(f, contract(g, u)) == -contract(g, contract(f, u))


def test_contraction_left_multiplication():
    rng = random.Random(4)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(50):
            f = rand_linear_form(rng, ctx)
            x = Vector.make(ctx, [rng.randint(-3, 3) for _ in range(4)])
            u = rand_tensor(rng, ctx)
            lhs = left_mul(x, contract(f, u)) + contract(f, left_mul(x, u))
            assert lhs == f(x) * u


def test_deform_matches_pair_expansion():
    rng = random.Random(6)
    for field in FIELDS:
        ctx = AlgebraContext(3, field)
        for _ in range(10):
            F = rand_bilinear(rng, ctx)
            for length in range(5):
                for _ in range(8):
                    word = tuple(rng.randint(1, 3) for _ in range(length))
                    assert raw_terms(tensor_deform(F, TensorElt.from_word(ctx, word))) \
                        == deform_word_pairs(F, word)


def test_deform_group_law():
    rng = random.Random(8)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(25):
            F = rand_bilinear(rng, ctx)
            G = rand_bilinear(rng, ctx)
            u = rand_tensor(rng, ctx)
            assert tensor_deform(F, tensor_deform(G, u)) == tensor_deform(F + G, u)
            assert tensor_deform(F, tensor_deform(-F, u)) == u


def test_deform_fixes_low_grades():
    ctx = AlgebraContext(3, RATIONALS)
    rng = random.Random(10)
    F = rand_bilinear(rng, ctx)
    assert tensor_deform(F, TensorElt.unit(ctx)) == TensorElt.unit(ctx)
    v = TensorElt.from_word(ctx, (2,))
    assert tensor_deform(F, v) == v


def test_divided_power_grade_zero_is_pfaffian():
    # full contraction of e1 (x) ... (x) e2n against an alternating form
    rng = random.Random(12)
    for field in (RATIONALS, Field(7)):
        for n in (1, 2, 3):
            ctx = AlgebraContext(2 * n, field)
            for _ in range(10):
                a = rand_alternating(rng, ctx)
                word = TensorElt.from_word(ctx, tuple(range(1, 2 * n + 1)))
                full = divided_power(a, n, word)
                assert full.grade_part(0) == full
                assert full.coeff(()) == pfaffian(a)


def test_divided_power_binomial():
    rng = random.Random(14)
    for field in FIELDS:
        ctx = AlgebraContext(4, field)
        for _ in range(15):
            F = rand_bilinear(rng, ctx)
            k, l = rng.randint(0, 2), rng.randint(0, 2)
            u = rand_tensor(rng, ctx, max_grade=6, terms=2)
            binom = 1
            for i in range(1, k + 1):
                binom = binom * (k + l - i + 1) // i
            assert divided_power(F, k, divided_power(F, l, u)) \
                == field(binom) * divided_power(F, k + l, u)


def _raw_cases(seed, u_len, v_len):
    """(context, form, raw form, raw u, raw v): a form with a few zero
    entries and multi-term u, v whose words have mixed lengths up to
    u_len and v_len, over Q (coefficients from Q_COEFFS), GF(2), GF(3)
    and GF(7)."""
    rng = random.Random(seed)
    for field in (RATIONALS, Field(2), Field(3), Field(7)):
        p = field.char

        def coeff():
            return rng.choice(Q_COEFFS) if p == 0 else rng.randrange(1, p)

        for n in (1, 2, 3):
            ctx = AlgebraContext(n, field)
            for _ in range(8):
                raw = [[coeff() if rng.random() < 0.8 else 0 for _ in range(n)]
                       for _ in range(n)]

                def elt(top):
                    return {tuple(rng.randint(1, n) for _ in range(rng.randint(0, top))): coeff()
                            for _ in range(3)}

                yield ctx, BilinearForm.make(ctx, raw), raw, elt(u_len), elt(v_len)


def _tensor(ctx, raw):
    return TensorElt(ctx, {w: ctx.coerce(c) for w, c in raw.items()})


def test_deform_apply_matches_pair_sum():
    for ctx, F, raw, u, v in _raw_cases(30, 4, 3):
        got = tensor_deform_apply(F, _tensor(ctx, u), _tensor(ctx, v))
        assert raw_terms(got) == pair_sum(raw, ctx.field.char, u, v)


def test_divided_power_matches_pair_sum():
    for ctx, F, raw, u, _ in _raw_cases(31, 8, 0):
        for k in range(5):
            got = divided_power(F, k, _tensor(ctx, u))
            assert raw_terms(got) == pair_sum(raw, ctx.field.char, u, {(): 1}, k)


@pytest.mark.parametrize("field", (RATIONALS, Field(2), Field(3), Field(7)),
                         ids=lambda f: f.spec)
def test_contract_and_left_mul_match_loops(field):
    """contract and left_mul, both word actions on the kernel, against
    plain loops: random words with repeated letters, the unit and zero,
    forms with zero entries, and x = 0."""
    rng = random.Random(33)
    p = field.char

    def coeff():
        return rng.choice(Q_COEFFS) if p == 0 else rng.randrange(1, p)

    for n in (1, 2, 3, 5):
        ctx = AlgebraContext(n, field)
        for _ in range(10):
            words = {tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6))): coeff()
                     for _ in range(4)}
            f = [coeff() if rng.random() < 0.8 else 0 for _ in range(n)]
            for raw in (words, {(): 1}, {}):
                u = _tensor(ctx, raw)
                assert raw_terms(contract(LinearForm.make(ctx, f), u)) \
                    == contract_loop(f, raw, p)
                for x in (f, [0] * n):
                    assert raw_terms(left_mul(Vector.make(ctx, x), u)) \
                        == left_mul_loop(x, raw, p)


def test_left_mul_grade_cap():
    """left_mul refuses only a nonzero x on a nonzero u whose longest
    word is at the cap."""
    ctx = AlgebraContext(2, Field(3))
    one = ctx.field.one
    x = Vector.basis(ctx, 1)
    cap = tensor._GRADE_CAP
    below = TensorElt(ctx, {(2,) * (cap - 1): one, (2,): one})
    assert left_mul(x, below) == TensorElt(ctx, {(1,) + (2,) * (cap - 1): one, (1, 2): one})
    at_cap = TensorElt(ctx, {(1, 2) * (cap // 2): one, (2,): one})
    with pytest.raises(CapExceeded, match=f"length {cap + 1} exceeds the grade cap {cap}$"):
        left_mul(x, at_cap)
    assert not left_mul(Vector.zero(ctx), at_cap)
    assert not left_mul(x, TensorElt.zero(ctx))


def test_deformations_grade_cap():
    # words built directly, past the check in from_word
    ctx = AlgebraContext(2, Field(7))
    F = BilinearForm.make(ctx, [[0, 1], [0, 0]])

    def word(length):
        return TensorElt(ctx, {tuple(1 + i % 2 for i in range(length)): ctx.field.one})

    with pytest.raises(CapExceeded):
        tensor_deform(F, word(17))
    with pytest.raises(CapExceeded):
        tensor_deform_apply(F, word(9), word(8))
    assert tensor_deform(F, word(16)).grade_part(16) == word(16)
    assert tensor_deform_apply(F, word(8), word(8)).grade_part(16) == word(16)
    assert divided_power(F, 1, word(17)).max_grade() == 15


def test_deform_apply_word_by_word():
    # the operator form of the deformation, checked against the sum of
    # a left multiplication and a contraction for a single generator
    rng = random.Random(16)
    ctx = AlgebraContext(3, RATIONALS)
    for _ in range(20):
        F = rand_bilinear(rng, ctx)
        v = rand_tensor(rng, ctx)
        x = TensorElt.from_word(ctx, (2,))
        got = tensor_deform_apply(F, x, v)
        e2 = Vector.basis(ctx, 2)
        expected = left_mul(e2, v) + contract(F.partial_left(e2), v)
        assert got == expected


def test_grade_cap_enforced():
    """The cap is one constant: from_word takes a word of its length,
    and a product longer than it is refused."""
    ctx = AlgebraContext(2, RATIONALS)
    cap = tensor._GRADE_CAP
    u = TensorElt.from_word(ctx, (1, 2) * (cap // 2))
    assert (u * TensorElt.unit(ctx)) == u
    with pytest.raises(CapExceeded, match=f"length {cap + 1} exceeds the grade cap {cap}$"):
        TensorElt.from_word(ctx, (1,) * (cap + 1))
    with pytest.raises(CapExceeded, match=f"length {2 * cap} exceeds"):
        u * u


def test_constructor_refuses_letters_outside_the_space():
    """A key that is not a tuple of letters in 1..n is refused when the
    element is built, zero coefficient or not, so to_json never emits a
    word that from_json refuses; a word longer than the cap is built
    freely."""
    ctx = AlgebraContext(2, Field(5))
    c = ctx.coerce(2)
    for word, message in (((0, 5), "word index 0 out of range"),
                          ((1, 3), "word index 3 out of range"),
                          ((True, 2), "word index True out of range"),
                          ((1.0,), "word index 1.0 out of range"),
                          (5, "word 5 is not a tuple of letters"),
                          (frozenset({1}), r"word frozenset\(\{1\}\) is not a tuple of letters")):
        for coeff in (c, ctx.coerce(0)):
            with pytest.raises(FormError, match=f"^{message} .*1..2$"):
                TensorElt(ctx, {word: coeff})
    for u in (TensorElt(ctx, {(2, 1): c, (): c}), TensorElt(ctx, {(1, 2) * 10: c})):
        assert TensorElt(ctx, u.terms) == u
    assert TensorElt.from_json(ctx, TensorElt(ctx, {(2, 1): c}).to_json()) \
        == TensorElt(ctx, {(2, 1): c})


def test_coeff_of_a_key_that_is_not_a_word_is_refused():
    """coeff refuses a key the constructor refuses, with its FormError,
    where it answered 0: at n = 3 the letter 9.  A word reads its
    coefficient."""
    ctx = AlgebraContext(3, RATIONALS)
    u = TensorElt.from_word(ctx, (1, 2), 3)
    with pytest.raises(FormError, match=r"^word index 9 out of range 1\.\.3$"):
        u.coeff((9,))
    assert u.coeff((1, 2)) == u.coeff([1, 2]) == ctx.coerce(3)
    assert u.coeff((2, 1)) == ctx.coerce(0)


def test_from_word_of_a_non_iterable_is_refused():
    """TensorElt.from_word with an int for the word raises the
    constructor's FormError, not the TypeError of tuple()."""
    with pytest.raises(FormError, match=r"^word 5 is not a tuple of letters in 1\.\.3$"):
        TensorElt.from_word(AlgebraContext(3, RATIONALS), 5)


def test_word_validation():
    ctx = AlgebraContext(2, RATIONALS)
    with pytest.raises(FormError):
        TensorElt.from_word(ctx, (0,))
    with pytest.raises(FormError):
        TensorElt.from_word(ctx, (3,))


def test_word_rejects_bool_index():
    ctx = AlgebraContext(2, RATIONALS)
    with pytest.raises(FormError):
        TensorElt.from_word(ctx, (True, 2))
    with pytest.raises(ParseError):
        TensorElt.from_json(ctx, {"terms": [{"word": [True, 2], "coeff": "1"}]})


def test_word_error_quotes_long_index_briefly():
    ctx = AlgebraContext(2, RATIONALS)
    with pytest.raises(FormError, match="5000 chars") as info:
        TensorElt.from_word(ctx, ["x" * 5000])
    assert len(str(info.value)) < 200


def test_involutions():
    rng = random.Random(18)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(30):
        u = rand_tensor(rng, ctx)
        assert u.grade_involution().grade_involution() == u
        assert u.reverse().reverse() == u
    w = TensorElt.from_word(ctx, (1, 2, 3))
    assert w.reverse() == TensorElt.from_word(ctx, (3, 2, 1))
    assert w.grade_involution() == -w


def test_contract_vec_uses_rows():
    rng = random.Random(20)
    ctx = AlgebraContext(3, RATIONALS)
    F = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx)
    x = Vector.make(ctx, [1, -2, 3])
    direct = contract_vec(F, x, u)
    via_form = contract(F.partial_left(x), u)
    assert direct == via_form


def test_tensor_json_parse_sums_in_one_map(monkeypatch):
    """Parsing sums repeated words and cancels opposite ones, and hands
    TensorElt one map for the whole request: the entries its
    constructor receives grow with the terms, not with their square."""
    ctx = AlgebraContext(6, RATIONALS)
    words = [[a, b, c] for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)]
    terms = [{"word": w, "coeff": k} for k in ("1", "2") for w in words]
    terms += [{"word": [2], "coeff": "1/3"}, {"word": [2], "coeff": "-1/3"}]
    sizes = []
    init = TensorElt.__init__

    def counting(self, ctx, terms=None):
        sizes.append(len(terms or {}))
        init(self, ctx, terms)

    monkeypatch.setattr(TensorElt, "__init__", counting)
    u = TensorElt.from_json(ctx, {"terms": terms})
    assert u.terms == {tuple(w): ctx.field(3) for w in words}
    assert sum(sizes) <= len(terms)


def test_tensor_json_round_trip():
    rng = random.Random(22)
    ctx = AlgebraContext(3, Field(7))
    for _ in range(20):
        u = rand_tensor(rng, ctx)
        assert TensorElt.from_json(ctx, u.to_json()) == u

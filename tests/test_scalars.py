"""Field and scalar arithmetic."""

import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

import cliffbundle as cb
from cliffbundle import (CapExceeded, Field, FieldMismatch, FormError, ParseError, RATIONALS,
                         is_prime, linalg)
from cliffbundle.clifford import _canonical as element_data
from cliffbundle.repcheck import _endo
from cliffbundle.scalars import canonical_ints, ints_of, scalars_over


def test_rational_arithmetic():
    F = RATIONALS
    assert str(F.parse("1/2") + F.parse("1/3")) == "5/6"
    assert str(F.parse("3/4") * F.parse("-2/9")) == "-1/6"
    assert str(F.parse("1") / F.parse("-4/7")) == "-7/4"
    assert str(-F.parse("0")) == "0"


def test_prime_field_arithmetic():
    F7 = Field(7)
    assert str(F7.parse("1/2")) == "4"
    assert str(F7.parse("-1")) == "6"
    assert str(F7(3) * F7(5)) == "1"
    assert F7(3).inverse() == F7(5)
    assert F7(6) + F7(1) == F7.zero


def test_parse_print_round_trip():
    rng = random.Random(7)
    for field in (RATIONALS, Field(2), Field(97)):
        for _ in range(200):
            if field.char:
                a = field(rng.randrange(field.char))
            else:
                a = field(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
            assert field.parse(str(a)) == a


def test_parse_accepts_unicode_minus():
    assert RATIONALS.parse("−5/3") == RATIONALS(Fraction(-5, 3))


def test_parse_rejects_garbage():
    for field in (RATIONALS, Field(7)):
        # a number, a decimal and an exponent are not literals
        for bad in ("one half", "1/0", 1.5, "1.5", "1e1000000"):
            with pytest.raises(ParseError):
                field.parse(bad)
    with pytest.raises(ParseError):
        Field.from_spec("Fp:4")
    with pytest.raises(ParseError):
        Field.from_spec("R")


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        RATIONALS(1) + Field(5)(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RATIONALS(1) / RATIONALS(0)
    with pytest.raises(ZeroDivisionError):
        Field(5)(2) / Field(5)(0)
    with pytest.raises(ZeroDivisionError):
        Field(5)(0).inverse()


def test_powers():
    F5 = Field(5)
    assert F5(2) ** 4 == F5.one
    assert F5(2) ** -1 == F5(3)
    assert RATIONALS(Fraction(2, 3)) ** -2 == RATIONALS(Fraction(9, 4))


def test_fermat_little_theorem():
    rng = random.Random(11)
    for p in (2, 3, 7, 31):
        F = Field(p)
        for _ in range(50):
            a = F(rng.randrange(p))
            assert a ** p == a


def test_is_prime():
    assert all(is_prime(p) for p in (2, 3, 5, 7, 97, 7919, 2 ** 61 - 1))
    assert not any(is_prime(c) for c in (0, 1, 4, 561, 1105, 2 ** 61 - 3))


def test_is_prime_rejects_strong_pseudoprime():
    # the least strong pseudoprime to bases 2..37 (Sorenson and Webster)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        Field(318665857834031151167461)


def test_modulus_at_the_primality_bound_is_refused():
    bound = 3317044064679887385961981
    with pytest.raises(ValueError, match=str(bound)):
        is_prime(bound)
    with pytest.raises(ValueError, match=str(bound)):
        Field(bound)
    with pytest.raises(ParseError, match=str(bound)):
        Field.from_spec(f"Fp:{bound}")


def test_large_prime_modulus_is_accepted():
    p = 2 ** 61 - 1
    assert Field.from_spec(f"Fp:{p}") == Field(p)
    assert Field(p)(p + 5) == Field(p)(5)


def test_field_spec_round_trip():
    for spec in ("Q", "Fp:2", "Fp:101"):
        assert Field.from_spec(spec).spec == spec


def test_scalar_hash_consistency():
    F = RATIONALS
    assert hash(F.parse("2/4")) == hash(F.parse("1/2"))
    d = {F.parse("1/2"): "a"}
    assert d[F.parse("2/4")] == "a"


def _canonical(x) -> bool:
    """x.value is the field's one form of it: over Q an int exactly when
    integral and a Fraction otherwise, over GF(p) the residue."""
    v = x.value
    if x.field.char:
        return type(v) is int and 0 <= v < x.field.char
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_rational_values_are_canonical():
    F = RATIONALS
    values = [F(0), F(3), F(-4), F(True), F(Fraction(4, 2)), F(Fraction(-1, 3)),
              F(Fraction(3, 2)), F.parse("6/3"), F.parse("-5/2"), F.parse("−8")]
    results = list(values)
    for a in values:
        results += [-a, a ** 2, a ** 0]
        if a:
            results += [a.inverse(), a ** -1, a ** -2, 1 / a, True / a]
        for b in values:
            results += [a + b, a - b, a * b, a + 2, 2 - a, a * Fraction(2, 3)]
            if b:
                results += [a / b, a / 2, a / Fraction(1, 2)]
    assert all(_canonical(x) for x in results), [x for x in results if not _canonical(x)]
    assert type((F(3) / F(2) * F(2)).value) is int
    assert (F(1) / F(3)).value == Fraction(1, 3) and (F(3) ** -2).value == Fraction(1, 9)

    # kernel and linear-algebra outputs
    ctx = cb.AlgebraContext(3, F)
    half = Fraction(1, 2)
    q = cb.QuadraticForm.make(ctx, [2, half, -1], [[1, 0], [half]])
    cctx = cb.CliffordContext(q)
    u = cb.CliffElt(cctx, {(): F(1), (1,): F(half), (1, 2): F(2), (1, 2, 3): F(-3)})
    f = cb.BilinearForm.make(ctx, [[1, half, 0], [2, 0, Fraction(1, 3)], [0, -1, 4]])
    astar = cb.DualTwoForm.make(ctx, [[half, 2], [-1]])
    s = cb.symbol(u)
    elts = [u * u, cb.deform(f, u), s, cb.quantize(cctx, s), cb.twisted_mul(f, u, u),
            cb.exp_contract(astar, s), cb.interior(s, s)]
    outs = [c for e in elts for c in e.terms.values()]
    m = [list(row) for row in f.rows]
    outs += [linalg.det(m), cb.pfaffian(cb.BilinearForm.make(
        cb.AlgebraContext(2, F), [[0, Fraction(3, 1)], [-3, 0]]))]
    outs += [x for row in linalg.rref(m)[0] for x in row]
    outs += [x for row in cb.rho_matrix(f, cb.CliffElt(
        cb.CliffordContext(cb.quad_of_bilinear(f)), {(1,): F(half), (2, 3): F(1)})).entries
        for x in row]
    assert outs and all(_canonical(x) for x in outs)
    assert any(type(x.value) is int for x in outs)
    assert any(type(x.value) is Fraction for x in outs)


@pytest.mark.parametrize("field", (RATIONALS, Field(7)), ids=lambda f: f.spec)
def test_kernel_outputs_are_canonical_on_both_carriers(field):
    """The kernels build their Scalars without __init__'s tests, from
    values that must already be canonical: so they are, dense (packed
    carrier) and sparse (dicts), each equal to the Scalar built anew."""
    rng = random.Random(f"exit/{field.spec}")

    def value():
        if field.char:
            return rng.randrange(1, field.char)
        return Fraction(rng.randrange(-9, 10) or 1, rng.choice((1, 2, 3)))

    n = 5
    ctx = cb.AlgebraContext(n, field)
    cctx = cb.CliffordContext(cb.QuadraticForm.make(
        ctx, [value() for _ in range(n)], [[value() for _ in range(n - 1 - i)]
                                           for i in range(n - 1)]))
    f = cb.BilinearForm.make(ctx, [[value() for _ in range(n)] for _ in range(n)])
    astar = cb.DualTwoForm.make(ctx, [[value() for _ in range(n - 1 - i)] for i in range(n - 1)])
    outs = []
    for count in (1 << n, 3):
        u = cb.CliffElt(cctx, {cb.index_subset(m): field(value())
                               for m in rng.sample(range(1 << n), count)})
        elts = [u * u, cb.deform(f, u), cb.twisted_mul(f, u, u), cb.exp_contract(astar, u)]
        if field.char != 2:
            elts.append(cb.symbol(u))
        outs += [c for e in elts for c in e.terms.values()]
    assert outs and all(_canonical(x) and x and x == field(x.value) for x in outs)


def test_ints_of_reads_a_one_shot_iterator_once():
    """ints_of (and so raw_values) materializes an iterator before its
    checks: one that yields a Scalar of another field raises
    FieldMismatch and one that yields an int FormError, and an
    iterator of the field's Scalars gives what the list gives."""
    F7 = Field(7)
    with pytest.raises(FieldMismatch):
        ints_of(F7, iter([F7(1), Field(5)(2)]))
    with pytest.raises(FormError, match="^a coefficient must be a Scalar, got 3$"):
        ints_of(F7, (x for x in [F7(1), 3]))
    assert ints_of(F7, iter([F7(1), F7(3)])) == ints_of(F7, [F7(1), F7(3)]) == ([1, 3], 1)
    halves = [RATIONALS(Fraction(1, 2)), RATIONALS(1)]
    assert ints_of(RATIONALS, iter(halves)) == ints_of(RATIONALS, halves) == ([1, 2], 2)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no digit limit for int -> str")
def test_text_past_the_digit_limit_is_refused():
    """str and repr of a value with more digits than int -> str converts
    raise the same CapExceeded, and so does repr of an element."""
    big = RATIONALS(10 ** (sys.get_int_max_str_digits() + 1))
    for x in (big, big / RATIONALS(3)):
        for text in (str, repr):
            with pytest.raises(CapExceeded, match="digit"):
                text(x)
    e = cb.CliffElt(cb.CliffordContext.exterior(cb.AlgebraContext(1, RATIONALS)), {(1,): big})
    with pytest.raises(CapExceeded):
        repr(e)


def test_equal_rationals_share_value_hash_and_text():
    a, b = RATIONALS(Fraction(4, 2)), RATIONALS(2)
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2"
    assert repr(a) == repr(b) == "Scalar(Q, 2)"
    assert a.value == 2 and type(a.value) is int
    assert {a: 1}[b] == 1


def test_int_and_bool_operands_coerce():
    F7 = Field(7)
    for F in (RATIONALS, F7):
        three = F(3)
        assert three + True == F(4) == True + three
        assert three - True == F(2) and True - three == F(-2)
        assert three * True == three == True * three
        assert three * 2 == F(6) == 2 * three
        assert three / True == three and True / F(2) == F(1) / F(2)
        assert F(True) == F(1) and F(False) == F(0)
        assert all(_canonical(x) for x in (three + True, True / F(2), F(True)))


def test_prime_field_refuses_a_fraction():
    with pytest.raises(TypeError, match="prime-field scalar needs an integer value"):
        Field(7)(Fraction(1, 2))
    assert Field(7)(Fraction(8, 2)) == Field(7)(4)


@pytest.mark.parametrize("field", (RATIONALS, Field(7)), ids=lambda f: f.spec)
def test_scalar_refuses_inexact_values(field):
    """A float, a string, a Decimal or a complex is refused where the
    Scalar is built, with TypeError naming its type, so none reaches an
    element or a form: over GF(7) a float used to be stored as it was,
    and the element's square held NotImplemented.  Text is pointed to
    Field.parse.  Integral values still enter as ints."""
    for value in (2.0, 0.1, "3", "1/2", Decimal(2), 2 + 0j):
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"got {name}") as err:
            field(value)
        assert ("Field.parse" in str(err.value)) == (name == "str")
    ctx = cb.AlgebraContext(2, field)
    with pytest.raises(TypeError, match="got float"):
        cb.CliffElt.blade(cb.CliffordContext.exterior(ctx), (1,), 2.0)
    with pytest.raises(TypeError, match="got float"):
        cb.QuadraticForm.make(ctx, [2.0, 1])

    class Tagged(int):
        pass

    for value in (True, Tagged(3), Fraction(6, 2)):
        x = field(value)
        assert type(x.value) is int and x == field(int(value))


_WIDE = (RATIONALS, Field(2), Field(7), Field(2 ** 61 - 1))


def _raw(rng, field, count):
    """count raw ints over a den: zeros, small and wide negatives and
    multiples of den; over Q a den up to 10^30 and a common factor, so
    that the gcd rule has work, over GF(p) den 1."""
    if field.char:
        factor, den = 1, 1
    else:
        factor = rng.choice((1, 2, 3, 10 ** 15))
        den = rng.choice((1, 2, 6, 10 ** 30, rng.randrange(1, 10 ** 30)))
    values = [rng.choice((0, 0, rng.randrange(-9, 10), rng.randrange(-10 ** 40, 10 ** 40),
                          den, -2 * den)) for _ in range(count)]
    return [x * factor for x in values], den * factor


def _same(got, x, den) -> bool:
    """Whether got is the Scalar x / den built anew, value type included."""
    want = got.field(Fraction(x, den))
    return got == want and type(got.value) is type(want.value)


@pytest.mark.parametrize("field", _WIDE, ids=lambda f: f.spec)
def test_canonical_ints_and_scalars_over_match_fractions(field):
    """canonical_ints keeps the values x / den and makes them canonical
    (residues over 1; over Q den > 0 and gcd(den, *nums) = 1), zeros in
    place, and scalars_over builds the Scalars of the result: each the
    Scalar of Fraction(x, den), an int when integral."""
    rng = random.Random(f"canonical/{field.spec}")
    p = field.char
    cases = [_raw(rng, field, count) for count in (0, 1, 5, 40) for _ in range(10)]
    cases += [([0, 0, 0], 1 if p else 6), ([-4, 8, 0], 1 if p else 12)]
    for values, den in cases:
        nums, d = canonical_ints(p, iter(values), den)
        assert type(nums) is list and len(nums) == len(values)
        if p:
            assert d == 1 and nums == [field(x).value for x in values]
        else:
            assert d > 0 and gcd(d, *nums) == 1
            assert [Fraction(x, d) for x in nums] == [Fraction(x, den) for x in values]
        scalars = scalars_over(field, nums, d)
        assert len(scalars) == len(values)
        assert all(_same(s, x, den) for s, x in zip(scalars, values))
        assert all(type(s.value) is int for s in scalars if s.value.denominator == 1)


@pytest.mark.parametrize("field", _WIDE, ids=lambda f: f.spec)
def test_every_view_is_the_scalars_of_its_data(field):
    """The Scalar views of forms (rows, diag, upper, coeffs), elements
    (terms, coeff) and matrices (EndoMatrix.entries), built from
    canonical data never read before, each equal to the Scalar of
    Fraction(x, den) entry by entry."""
    rng = random.Random(f"views/{field.spec}")
    n, p = 3, field.char
    ctx = cb.AlgebraContext(n, field)
    cctx = cb.CliffordContext.exterior(ctx)

    def data(keep):
        """Canonical form data, the raw entries zero where keep(i, j) fails."""
        values, den = _raw(rng, field, n * n)
        nums, den = canonical_ints(p, [x if keep(k // n, k % n) else 0
                                       for k, x in enumerate(values)], den)
        return tuple(nums), den

    for _ in range(10):
        nums, den = data(lambda i, j: True)
        rows = cb.BilinearForm(ctx, nums, den).rows
        assert all(_same(rows[i][j], nums[i * n + j], den) for i in range(n) for j in range(n))
        nums, den = data(lambda i, j: j <= i)
        q = cb.QuadraticForm(ctx, nums, den)
        assert all(_same(q.diag[i], nums[i * n + i], den) for i in range(n))
        assert all(_same(q.upper[i][k], nums[(i + 1 + k) * n + i], den)
                   for i in range(n - 1) for k in range(n - 1 - i))
        nums, den = data(lambda i, j: j > i)
        a = cb.DualTwoForm(ctx, nums, den)
        assert all(_same(a.coeffs[i][k], nums[i * n + i + 1 + k], den)
                   for i in range(n - 1) for k in range(n - 1 - i))

        values, den = _raw(rng, field, 1 << n)
        u = cb.CliffElt._of(cctx, *element_data(p, range(1 << n), values, den))
        assert all(_same(u.terms[cb.index_subset(m)], x, u.den) for m, x in u.data.items())
        assert all(_same(u.coeff(cb.index_subset(m)), u.data.get(m, 0), u.den)
                   for m in range(1 << n))
        words = [(1, 1), (2,), (), (3, 1, 2)]
        values, den = _raw(rng, field, len(words))
        t = cb.TensorElt._of(ctx, *element_data(p, words, values, den))
        assert all(_same(t.terms[w], x, t.den) for w, x in t.data.items())

        values, den = _raw(rng, field, 1 << 2 * n)
        m = _endo(ctx, dict(enumerate(values)), den)
        dense = [[0] * (1 << n) for _ in range(1 << n)]
        for c, col in enumerate(m.cols):
            for r, x in col:
                dense[r][c] = x
        assert all(_same(s, x, m.den) for row, xs in zip(m.entries, dense)
                   for s, x in zip(row, xs))

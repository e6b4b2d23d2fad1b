"""Field and scalar arithmetic."""

import random
from fractions import Fraction

import pytest

from cliffbundle import Field, FieldMismatch, ParseError, RATIONALS, is_prime


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


def test_field_spec_round_trip():
    for spec in ("Q", "Fp:2", "Fp:101"):
        assert Field.from_spec(spec).spec == spec


def test_scalar_hash_consistency():
    F = RATIONALS
    assert hash(F.parse("2/4")) == hash(F.parse("1/2"))
    d = {F.parse("1/2"): "a"}
    assert d[F.parse("2/4")] == "a"

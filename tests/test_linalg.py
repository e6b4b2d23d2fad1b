"""Exact linear algebra against a plain Gauss-Jordan oracle and the
Leibniz determinant, over Q, GF(2), GF(3), GF(7) and GF(2^61 - 1)."""

import random
from fractions import Fraction

import pytest

from cliffbundle import Field, FieldMismatch, FormError, linalg

from oracles import det_perm_sum, matmul_oracle, rref_oracle

PRIMES = [0, 2, 3, 7, (1 << 61) - 1]
Q_VALUES = [Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13), 2, -1]
SHAPES = {"square": (5, 5), "wide": (3, 6), "tall": (6, 3), "rank-deficient": (5, 5),
          "zero": (3, 4), "single-row": (1, 5)}


def spec(p):
    return Field(p).spec


def draw(rng, p):
    # zero a quarter of the time, so that some columns lack a pivot
    if rng.random() < 0.25:
        return 0
    return rng.choice(Q_VALUES) if p == 0 else rng.randrange(1, p)


def raw_matrix(rng, p, shape):
    rows, cols = SHAPES[shape]
    if shape == "zero":
        return [[0] * cols for _ in range(rows)]
    m = [[draw(rng, p) for _ in range(cols)] for _ in range(rows)]
    if shape == "rank-deficient":
        # the last two rows are combinations of the first two
        for t in (3, 4):
            a, b = draw(rng, p), draw(rng, p)
            m[t] = [(a * x + b * y) % p if p else a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def scalars(p, m):
    field = Field(p)
    return [[field(x) for x in row] for row in m]


def values(m):
    return [[x.value for x in row] for row in m]


def cases(p, shape, count=4):
    rng = random.Random(f"{p}/{shape}")
    return [raw_matrix(rng, p, shape) for _ in range(count)], rng


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("p", PRIMES, ids=spec)
def test_rref_nullspace_row_space_match_oracle(p, shape):
    mats, _ = cases(p, shape)
    for a in mats:
        want, pivots = rref_oracle(a, p)
        red, got_pivots = linalg.rref(scalars(p, a))
        assert got_pivots == pivots
        assert values(red) == want
        assert values(linalg.row_space_basis(scalars(p, a))) == want[:len(pivots)]
        # the kernel basis: one vector per free column, read off the RREF
        ncols = len(a[0])
        free = [c for c in range(ncols) if c not in pivots]
        null = values(linalg.nullspace(scalars(p, a)))
        assert len(null) == len(free)
        for v, fc in zip(null, free):
            expect = [0] * ncols
            expect[fc] = 1
            for r, pc in enumerate(pivots):
                expect[pc] = -want[r][fc] % p if p else -want[r][fc]
            assert v == expect
            assert all(x == 0 for row in matmul_oracle(a, [[x] for x in v], p) for x in row)


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("p", PRIMES, ids=spec)
def test_solve_matrix_matches_oracle(p, shape):
    mats, rng = cases(p, shape)
    for t, a in enumerate(mats):
        ncols = len(a[0])
        if t % 2:
            # consistent by construction
            b = matmul_oracle(a, [[draw(rng, p) for _ in range(2)] for _ in range(ncols)], p)
        else:
            b = [[draw(rng, p) for _ in range(2)] for _ in a]
        red, pivots = rref_oracle([ra + rb for ra, rb in zip(a, b)], p)
        got = linalg.solve_matrix(scalars(p, a), scalars(p, b))
        if any(c >= ncols for c in pivots):
            assert got is None
            continue
        want = [[0, 0] for _ in range(ncols)]
        for r, pc in enumerate(pivots):
            want[pc] = red[r][ncols:]
        assert values(got) == want
        assert matmul_oracle(a, want, p) == [[x % p if p else x for x in row] for row in b]
        x = linalg.solve(scalars(p, a), [row[0] for row in scalars(p, b)])
        assert [v.value for v in x] == [row[0] for row in want]


@pytest.mark.parametrize("p", PRIMES, ids=spec)
def test_solve_inconsistent_is_none(p):
    a = scalars(p, [[1, 1], [1, 1], [0, 0]])
    assert linalg.solve_matrix(a, scalars(p, [[1], [0], [0]])) is None
    assert linalg.solve_matrix(a, scalars(p, [[0], [0], [1]])) is None
    assert linalg.solve(a, scalars(p, [[1, 0, 0]])[0]) is None
    assert values(linalg.solve_matrix(a, scalars(p, [[1], [1], [0]]))) == [[1], [0]]


@pytest.mark.parametrize("p", PRIMES, ids=spec)
def test_det_matches_permutation_sum_and_rank(p):
    rng = random.Random(f"det/{p}")
    for n in range(1, 6):
        for shape in ("square", "rank-deficient"):
            for _ in range(3):
                a = [[draw(rng, p) for _ in range(n)] for _ in range(n)]
                if shape == "rank-deficient" and n > 1:
                    a[-1] = list(a[0])
                m = scalars(p, a)
                assert linalg.det(m) == det_perm_sum(m)
    for _ in range(4):
        a = [[draw(rng, p) for _ in range(6)] for _ in range(6)]
        full = len(rref_oracle(a, p)[1]) == 6
        assert bool(linalg.det(scalars(p, a))) == full
    assert linalg.det(scalars(p, [[0] * 3] * 3)).value == 0


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("p", PRIMES, ids=spec)
def test_mat_mul_and_mat_vec_match_oracle(p, shape):
    mats, rng = cases(p, shape)
    for a in mats:
        b = [[draw(rng, p) for _ in range(3)] for _ in a[0]]
        assert values(linalg.mat_mul(scalars(p, a), scalars(p, b))) == matmul_oracle(a, b, p)
        v = [row[0] for row in b]
        got = [x.value for x in linalg.mat_vec(scalars(p, a), scalars(p, [v])[0])]
        assert got == [row[0] for row in matmul_oracle(a, [[x] for x in v], p)]


def test_scalar_entries_are_one_field():
    """The Scalar functions read the field of a matrix's first entry and
    refuse any entry of another field (FieldMismatch), in either operand,
    or one that is not a Scalar (FormError), instead of computing in the
    first entry's field."""
    F7, F5 = Field(7), Field(5)
    with pytest.raises(FieldMismatch, match=r"^scalar over Fp:5 used in a Fp:7 context$"):
        linalg.rref([[F7(2), F5(4)]])
    mixed = [[F7(1), F5(3)], [F7(0), F7(1)]]
    one = [[F7(1), F7(3)], [F7(0), F7(1)]]
    calls = (linalg.det, linalg.nullspace, linalg.row_space_basis,
             lambda a: linalg.mat_mul(a, one), lambda a: linalg.mat_mul(one, a),
             lambda a: linalg.mat_vec(one, a[0]), lambda a: linalg.solve_matrix(one, a),
             lambda a: linalg.solve(one, a[0]))
    for call in calls:
        with pytest.raises(FieldMismatch):
            call(mixed)
        with pytest.raises(FormError, match="must be a Scalar, got 3"):
            call([[F7(1), 3], [F7(0), F7(1)]])
    with pytest.raises(FormError, match=r"^a matrix's first entry must be a Scalar, got 3$"):
        linalg.det([[3, F7(1)], [F7(0), F7(1)]])
    assert linalg.det(one) == F7(1)

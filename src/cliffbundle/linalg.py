"""Dense exact linear algebra on raw values.

Internal helper module: matrices are plain lists of lists, row-major.
The core takes raw values, residues over GF(p) or ints and Fractions
over Q, and the characteristic p (0 for Q).  Each problem has one
algorithm for both fields, on integer rows (over Q over a common
denominator, _int_matrix); the field picks only the row normal form
(_normal: mod p, or divided by the content, the gcd of the entries)
and the exit division (by the inverse mod p, or through Fraction).
Elimination is fraction-free: a row update cross-multiplies by the
pivot, and each output row is divided once by its pivot; the reduced
echelon form is unique, so the result is the one exact division would
give.  Determinants use Bareiss' elimination (Math. Comp. 22, 1968),
exact over any integral domain; a product divides once per entry.

The functions without a _raw suffix take and return Scalars of one
field, the first entry's; raw_rows refuses any other entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import floordiv, mod

from .scalars import Field, Scalar, field_of, raw_rows, scaled_ints


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------- raw core


def _int_matrix(a, p: int) -> tuple:
    """Rows as integer rows over the lcm of their denominators; ints and residues as they are."""
    dens = () if p else {x.denominator for row in a for x in row if type(x) is not int}
    if not dens:
        return a, 1
    den = lcm(*dens)
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _normal(row, p: int) -> list:
    """An integer row in the field's normal form, a new list: mod p, or the content removed."""
    if p:
        return [x % p for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _combine(a: int, row, f: int, prow, p: int) -> list:
    """The row update a row - f prow, in normal form (_normal)."""
    if p:
        return [(a * x - f * y) % p for x, y in zip(row, prow)]
    return _normal([a * x - f * y for x, y in zip(row, prow)], 0)


def _products(a, b):
    """Integer (or unreduced residue) product, skipping zeros of a."""
    cols = len(b[0])
    out = []
    for arow in a:
        acc = [0] * cols
        for x, brow in zip(arow, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_mul_raw(a, b, p: int):
    (ia, da), (ib, db) = _int_matrix(a, p), _int_matrix(b, p)
    out = _products(ia, ib)
    if p:
        return [[s % p for s in row] for row in out]
    den = da * db
    return [[Fraction(s, den) if s and den != 1 else s for s in row] for row in out]


def mat_vec_raw(a, v, p: int):
    return [row[0] for row in mat_mul_raw(a, [[x] for x in v], p)]


def rref_raw(a, p: int):
    """Reduced row echelon form of raw rows (on a copy); returns
    (rows, pivot_cols)."""
    m = [_normal(row, p) for row in _int_matrix(a, p)[0]]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        a_c = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _combine(a_c, m[i], f, prow, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, c in enumerate(pivots):
        piv = m[i][c]
        if piv != 1:
            if p:
                inv = pow(piv, -1, p)
                m[i] = [x * inv % p for x in m[i]]
            else:
                m[i] = [Fraction(x, piv) if x else 0 for x in m[i]]
    return m, pivots


def det_raw(a, p: int):
    n = len(a)
    scaled = [scaled_ints(row) for row in a]
    m = [[x % p for x in row] if p else row for row, _ in scaled]
    exact = mod if p else floordiv
    sign, prev = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        krow = m[k]
        piv = krow[k]
        # (piv row - f krow) / prev, exact: over GF(p) times prev's inverse, mod p
        inv = pow(prev, -1, p) if p else 1
        a, d = piv * inv, p or prev
        for i in range(k + 1, n):
            f = m[i][k] * inv
            m[i] = [exact(a * x - f * y, d) for x, y in zip(m[i], krow)]
        prev = piv
    last = sign * m[-1][-1] if n else 1
    return last % p if p else Fraction(last, prod(den for _, den in scaled))


def nullspace_raw(a, p: int):
    """Basis of {v : a v = 0}."""
    ncols = len(a[0])
    m, pivots = rref_raw(a, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] % p if p else -m[r][fc]
        basis.append(v)
    return basis


def solve_matrix_raw(a, b, p: int):
    """Solve a @ X = b exactly; the solution with free variables zero,
    or None if inconsistent."""
    n = len(a[0])
    red, pivots = rref_raw([list(ra) + list(rb) for ra, rb in zip(a, b)], p)
    if any(c >= n for c in pivots):
        return None
    x = [[0] * len(b[0]) for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    return x


def solve_raw(a, b, p: int):
    x = solve_matrix_raw(a, [[v] for v in b], p)
    return None if x is None else [row[0] for row in x]


def row_space_raw(vectors, p: int):
    red, pivots = rref_raw(vectors, p)
    return red[:len(pivots)]


# ---------------------------------------------------------------- Scalar entries


def _scalars(field: Field, a):
    zero = field.zero
    return [[Scalar(field, x) if x else zero for x in row] for row in a]


def mat_mul(a, b):
    field = field_of(a)
    return _scalars(field, mat_mul_raw(raw_rows(a, field), raw_rows(b, field), field.char))


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def rref(a):
    """Reduced row echelon form (on a copy); returns (rows, pivot_cols)."""
    if not a or not a[0]:
        return [list(row) for row in a], []
    field = field_of(a)
    red, pivots = rref_raw(raw_rows(a, field), field.char)
    return _scalars(field, red), pivots


def det(a) -> Scalar:
    field = field_of(a)
    return Scalar(field, det_raw(raw_rows(a, field), field.char))


def nullspace(a):
    """Basis of {v : a v = 0}, each vector a list of Scalar."""
    field = field_of(a)
    return _scalars(field, nullspace_raw(raw_rows(a, field), field.char))


def solve_matrix(a, b):
    """Solve a @ X = b exactly.  a is m x n, b is m x k; returns the
    n x k solution with free variables zero, or None if inconsistent."""
    field = field_of(a)
    x = solve_matrix_raw(raw_rows(a, field), raw_rows(b, field), field.char)
    return None if x is None else _scalars(field, x)


def solve(a, b):
    """One exact solution of a x = b (vector b), or None."""
    x = solve_matrix(a, [[v] for v in b])
    return None if x is None else [row[0] for row in x]


def row_space_basis(vectors):
    red, pivots = rref(vectors)
    return [list(row) for row in red[:len(pivots)]]

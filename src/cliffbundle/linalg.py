"""Dense exact linear algebra on raw values.

Internal helper module: matrices are plain lists of lists, row-major.
The core works on the raw values of scalars and takes the field's
characteristic p (0 for the rationals): residues in [0, p) over GF(p),
inverted by pow(x, -1, p); ints or Fractions over Q.  Elimination over
Q is fraction-free: every row is scaled to a primitive integer vector,
a row update cross-multiplies by the pivot and removes the content
(the gcd of the entries) again, and each output row is divided once by
its pivot; the reduced echelon form is unique, so the result is the
one exact division would give.  Determinants over Q use Bareiss'
exact-division elimination, and products scale both operands to
integers and divide once per entry.  Pivoting picks the first nonzero
entry; exact arithmetic needs no numerical care.

The functions without a _raw suffix take and return Scalar entries:
they read the values at entry and build Scalars at exit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .scalars import Field, Scalar, raw_rows, scaled_ints


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------- raw core


def _int_matrix(a) -> tuple:
    """Rational rows as integer rows over one common denominator."""
    flat, den = scaled_ints([x for row in a for x in row])
    width = len(a[0]) if a else 0
    return [flat[i * width:(i + 1) * width] for i in range(len(a))], den


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
    if p:
        return [[s % p for s in row] for row in _products(a, b)]
    ia, da = _int_matrix(a)
    ib, db = _int_matrix(b)
    den = da * db
    return [[Fraction(s, den) if s and den != 1 else s for s in row]
            for row in _products(ia, ib)]


def mat_vec_raw(a, v, p: int):
    return [row[0] for row in mat_mul_raw(a, [[x] for x in v], p)]


def rref_raw(a, p: int):
    """Reduced row echelon form of raw rows (on a copy); returns
    (rows, pivot_cols)."""
    if p:
        m = [[x % p for x in row] for row in a]
    else:
        m = [_primitive(scaled_ints(row)[0]) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][c], -1, p)
            prow = m[r] = [x * inv % p for x in m[r]]
            for i in range(nrows):
                f = m[i][c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        else:
            prow = m[r]
            a_c = prow[c]
            for i in range(nrows):
                f = m[i][c]
                if f and i != r:
                    m[i] = _primitive([a_c * x - f * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if not p:
        for i, c in enumerate(pivots):
            piv = m[i][c]
            if piv != 1:
                m[i] = [Fraction(x, piv) if x else 0 for x in m[i]]
    return m, pivots


def det_raw(a, p: int):
    n = len(a)
    if p:
        m = [[x % p for x in row] for row in a]
        result = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c]), None)
            if pr is None:
                return 0
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                result = -result
            piv = m[c][c]
            result = result * piv % p
            inv = pow(piv, -1, p)
            for i in range(c + 1, n):
                f = m[i][c] * inv % p
                if f:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
        return result % p
    scaled = [scaled_ints(row) for row in a]
    m = [row for row, _ in scaled]
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
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], krow)]
        prev = piv
    return Fraction(sign * m[-1][-1], prod(den for _, den in scaled))


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
    field = a[0][0].field
    return _scalars(field, mat_mul_raw(raw_rows(a), raw_rows(b), field.char))


def mat_vec(a, v):
    field = a[0][0].field
    return _scalars(field, [mat_vec_raw(raw_rows(a), [x.value for x in v], field.char)])[0]


def rref(a):
    """Reduced row echelon form (on a copy); returns (rows, pivot_cols)."""
    if not a or not a[0]:
        return [list(row) for row in a], []
    field = a[0][0].field
    red, pivots = rref_raw(raw_rows(a), field.char)
    return _scalars(field, red), pivots


def det(a) -> Scalar:
    field = a[0][0].field
    return Scalar(field, det_raw(raw_rows(a), field.char))


def nullspace(a):
    """Basis of {v : a v = 0}, each vector a list of Scalar."""
    field = a[0][0].field
    return _scalars(field, nullspace_raw(raw_rows(a), field.char))


def solve_matrix(a, b):
    """Solve a @ X = b exactly.  a is m x n, b is m x k; returns the
    n x k solution with free variables zero, or None if inconsistent."""
    field = a[0][0].field
    x = solve_matrix_raw(raw_rows(a), raw_rows(b), field.char)
    return None if x is None else _scalars(field, x)


def solve(a, b):
    """One exact solution of a x = b (vector b), or None."""
    x = solve_matrix(a, [[v] for v in b])
    return None if x is None else [row[0] for row in x]


def row_space_basis(vectors):
    red, pivots = rref(vectors)
    return [list(row) for row in red[:len(pivots)]]

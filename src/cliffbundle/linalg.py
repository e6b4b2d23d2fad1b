"""Dense exact linear algebra on integer rows.

Internal helper module: matrices are plain lists of lists, row-major.
The raw core takes and returns integer rows, with the characteristic p
(0 for Q): over GF(p) any ints, read as residues; over Q a rational
matrix is its integer rows over one denominator that the caller keeps
(nullspace_raw and solve_matrix_raw return theirs).  Both fields share
each algorithm and pick only the row normal form (_normal: mod p, or
divided by the gcd of the entries).  An echelon is a list of (c, row)
by increasing leading column c; over GF(p) a row is scaled to 1 at c
once, so an update takes one product per entry, and over Q rows are
cross-multiplied, fraction-free.  rref_raw returns the canonical form of
a row span: the reduced echelon form, over Q with each row primitive
and its pivot positive.  Determinants over Q use Bareiss' elimination.

The functions without a _raw suffix take and return Scalars of one
field, the first entry's (ints_of refuses any other), and refuse with
FormError, before any work, rows of unequal length or operands whose
shapes do not fit.
"""

from __future__ import annotations

from bisect import insort
from itertools import islice
from math import gcd, lcm

from .errors import FormError
from .scalars import Scalar, field_of, ints_of, scalars_over


def transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------- raw core


def _normal(row, p: int) -> list:
    """An integer row in the field's normal form, a new list: mod p, or the content removed."""
    if p:
        return [x % p for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _combine(a: int, row, f: int, prow, p: int) -> list:
    """The row update a row - f prow, in normal form; over GF(p) a is 1."""
    if p:
        return [(x - f * y) % p for x, y in zip(row, prow)]
    return _normal([a * x - f * y for x, y in zip(row, prow)], 0)


def _reduce(v, echelon, p: int) -> list:
    """v reduced by an echelon's rows: zero at each of its leading columns."""
    for c, row in echelon:
        f = v[c]
        if f:
            v = _combine(row[c], v, f, row, p)
    return v


def echelon_raw(echelon, v, p: int, head=None) -> list:
    """v reduced by an echelon (_reduce), returned, and inserted at its
    leading column (scaled to 1 there over GF(p)) unless v[:head] is zero."""
    v = _reduce(_normal(v, p), echelon, p)
    c = next(filter(v.__getitem__, range(head or len(v))), None)
    if c is not None:
        inv = pow(v[c], -1, p) if p else 1
        insort(echelon, (c, [x * inv % p for x in v] if inv != 1 else v))
    return v


def mat_mul_raw(a, b, p: int) -> list:
    """The integer product a b, mod p over GF(p); zeros of a are skipped."""
    cols = len(b[0])
    out = []
    for arow in a:
        acc = [0] * cols
        for x, brow in zip(arow, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append([s % p for s in acc] if p else acc)
    return out


def canonical_raw(echelon, p: int):
    """(rows, pivots): the canonical form of an echelon's span, each row reduced by those below."""
    done = []
    for c, row in reversed(echelon):
        row = _reduce(row, done, p)
        done.insert(0, (c, row if row[c] > 0 else [-x for x in row]))
    return [row for _, row in done], [c for c, _ in done]


def rref_raw(a, p: int):
    """canonical_raw of an echelon of a's rows, then a zero row per dependent row."""
    echelon = []
    for row in a:
        echelon_raw(echelon, row, p)
    rows, pivots = canonical_raw(echelon, p)
    return rows + [[0] * len(a[0]) for _ in range(len(a) - len(rows))], pivots


def det_raw(a, p: int) -> int:
    """Determinant of a square integer matrix: over Q by Bareiss, over GF(p)
    the product of the pivots of an elimination on rows scaled to 1 there."""
    n = len(a)
    m = [_normal(row, p) if p else row for row in a]
    sign, prev = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        piv = m[k][k]
        inv = pow(piv, -1, p) if p else 1
        krow = [x * inv % p for x in m[k]] if p else m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if p:
                m[i] = _combine(1, m[i], f, krow, p) if f else m[i]
            else:  # (piv row - f krow) / prev, exact
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], krow)]
        prev = prev * piv % p if p else piv
    return sign * prev % p if p else sign * prev


def nullspace_raw(a, p: int) -> tuple:
    """A basis of {v : a v = 0} over one den, (vectors, den): over den the
    vector of a free column is 1 there and 0 at the other free columns."""
    ncols = len(a[0])
    m, pivots = rref_raw(a, p)
    den = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] * (den // m[r][pc])
        basis.append([x % p for x in v] if p else v)
    return basis, den


def solve_matrix_raw(a, b, p: int):
    """Solve a X = b exactly: (rows, den), X being the rows over den with
    free variables zero, or None if inconsistent."""
    n = len(a[0])
    red, pivots = rref_raw([list(ra) + list(rb) for ra, rb in zip(a, b)], p)
    if any(c >= n for c in pivots):
        return None
    den = lcm(*(red[r][c] for r, c in enumerate(pivots)))
    x = [[0] * len(b[0]) for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = [y * (den // red[r][pc]) for y in red[r][n:]]
    return x, den


def row_space_raw(vectors, p: int):
    red, pivots = rref_raw(vectors, p)
    return red[:len(pivots)]


# ---------------------------------------------------------------- Scalar entries


def int_rows(a, field=None) -> tuple:
    """(field, integer rows, den) of a matrix of Scalars of one field, the
    first entry's unless given, by ints_of; rows keep their lengths."""
    field = field or field_of(a)
    nums, den = ints_of(field, [x for row in a for x in row])
    it = iter(nums)
    return field, [list(islice(it, len(row))) for row in a], den


def _shape(a) -> tuple:
    """(rows, columns) of a matrix; FormError if its rows differ in length."""
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise FormError(f"a matrix's rows must have one length, got {sorted(set(map(len, a)))}")
    return len(a), cols


def mat_mul(a, b):
    (m, k), (kb, n) = _shape(a), _shape(b)
    if k != kb:
        raise FormError(f"cannot multiply a {m}x{k} matrix by a {kb}x{n} matrix")
    field, ia, da = int_rows(a)
    _, ib, db = int_rows(b, field)
    return [scalars_over(field, row, da * db) for row in mat_mul_raw(ia, ib, field.char)]


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def rref(a):
    """Reduced row echelon form (on a copy); returns (rows, pivot_cols)."""
    if not all(_shape(a)):
        return [list(row) for row in a], []
    field, ia, _ = int_rows(a)
    red, pivots = rref_raw(ia, field.char)  # each row over its pivot, its first nonzero
    return [scalars_over(field, row, next(filter(None, row), 1)) for row in red], pivots


def det(a) -> Scalar:
    m, k = _shape(a)
    if m != k:
        raise FormError(f"a determinant needs a square matrix, got {m}x{k}")
    field, ia, den = int_rows(a)
    return scalars_over(field, [det_raw(ia, field.char)], den ** m)[0]


def nullspace(a):
    """Basis of {v : a v = 0}, each vector a list of Scalar."""
    _shape(a)
    field, ia, _ = int_rows(a)
    basis, den = nullspace_raw(ia, field.char)
    return [scalars_over(field, v, den) for v in basis]


def solve_matrix(a, b):
    """Solve a @ X = b exactly.  a is m x n, b is m x k; returns the
    n x k solution with free variables zero, or None if inconsistent."""
    (m, n), (mb, k) = _shape(a), _shape(b)
    if m != mb:
        raise FormError(f"cannot solve a {m}x{n} system for {mb}x{k} right-hand sides")
    field, ia, da = int_rows(a)
    _, ib, db = int_rows(b, field)
    x = solve_matrix_raw(ia, ib, field.char)
    # (a' / da) X = b' / db where a' (x / den) = b', so X = x da / (den db)
    return None if x is None else [scalars_over(field, [y * da for y in row], x[1] * db)
                                   for row in x[0]]


def solve(a, b):
    """One exact solution of a x = b (vector b), or None."""
    x = solve_matrix(a, [[v] for v in b])
    return None if x is None else [row[0] for row in x]


def row_space_basis(vectors):
    red, pivots = rref(vectors)
    return [list(row) for row in red[:len(pivots)]]

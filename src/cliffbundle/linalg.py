"""Dense exact linear algebra over Scalar entries.

Internal helper module: matrices are plain lists of lists of Scalar,
row-major.  Pivoting picks the first nonzero entry; exact arithmetic
needs no numerical care.
"""

from __future__ import annotations

from .scalars import Field, Scalar


def zeros(field: Field, rows: int, cols: int):
    z = field.zero
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field: Field, n: int):
    m = zeros(field, n, n)
    one = field.one
    for i in range(n):
        m[i][i] = one
    return m


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        arow = a[i]
        orow = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                v = arow[k]
                if v:
                    t = v * b[k][j]
                    acc = t if acc is None else acc + t
            orow.append(acc if acc is not None else arow[0].field.zero)
        out.append(orow)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0].field.zero
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def rref(a):
    """Reduced row echelon form (on a copy); returns (rows, pivot_cols)."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def det(a) -> Scalar:
    n = len(a)
    field = a[0][0].field
    m = [list(row) for row in a]
    sign = 1
    result = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        result = result * piv
        inv = piv.inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result if sign == 1 else -result


def nullspace(a):
    """Basis of {v : a v = 0}, each vector a list of Scalar."""
    ncols = len(a[0])
    field = a[0][0].field
    m, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve_matrix(a, b):
    """Solve a @ X = b exactly.  a is m x n, b is m x k; returns the
    n x k solution with free variables zero, or None if inconsistent."""
    m = len(a)
    n = len(a[0])
    k = len(b[0])
    field = a[0][0].field
    aug = [list(a[i]) + list(b[i]) for i in range(m)]
    red, pivots = rref(aug)
    if any(p >= n for p in pivots):
        return None
    x = zeros(field, n, k)
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    return x


def solve(a, b):
    """One exact solution of a x = b (vector b), or None."""
    x = solve_matrix(a, [[v] for v in b])
    if x is None:
        return None
    return [row[0] for row in x]


def row_space_basis(vectors):
    red, pivots = rref(vectors)
    return [list(row) for row in red[:len(pivots)]]

"""A Clifford algebra that shares no code with cliffbundle.

The benchmark checks the program's outputs against this module.  It is
Chevalley's picture of Cl(V, Q) as the exterior algebra of V: a vector x
acts on a wedge w by

    x . w = x ^ w + i_{B(x, .)} w

where B is any bilinear form with B(x, x) = Q(x).  With the
lower-triangular B (B(e_i, e_j) = 0 for j > i) the product of increasing
generators is their wedge, so coordinates here are the program's
normal-ordered coordinates.  Blades are bitmasks (bit i-1 for e_i),
elements are dicts mask -> coefficient, and coefficients are
fractions.Fraction over Q (p == 0) or ints in [0, p) over GF(p).

The same action with B replaced by B + F gives the paper's deformation
lambda_F: its value at the unit is deform(F, .), and its operator form is
deform_apply(F, ., .).
"""

from __future__ import annotations

from fractions import Fraction


def reduce(p: int, x):
    return x % p if p else x


def inverse(p: int, x):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def bits(mask: int):
    """Zero-based positions of the set bits, increasing."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def clean(p: int, elt: dict) -> dict:
    out = {}
    for m, c in elt.items():
        c = reduce(p, c)
        if c:
            out[m] = c
    return out


def add(p: int, a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return clean(p, out)


# ------------------------------------------------------------ forms


def lower_form(n: int, diag, upper):
    """The lower-triangular B with B(x, x) = Q(x): B(e_i, e_i) = Q(e_i),
    B(e_j, e_i) = polar(e_i, e_j) for j > i, zero above the diagonal."""
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = diag[i]
        for j in range(i + 1, n):
            b[j][i] = upper[i][j - i - 1]
    return b


def mat_add(p: int, a, b, scale=1):
    return [[reduce(p, x + scale * y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def half_polar(p: int, n: int, diag, upper):
    """Half the polar form of Q: diagonal Q(e_i), off-diagonal polar/2."""
    half = inverse(p, 2)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = diag[i]
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = reduce(p, upper[i][j - i - 1] * half)
    return b


def alternating_of_two_form(p: int, n: int, coeffs):
    """The alternating form A with A(e_i, e_j) = -c_ij, A(e_j, e_i) = c_ij
    (i < j), whose deformation is the exponential of the contraction by
    the two-form with coefficients c_ij."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = coeffs[i][j - i - 1]
            a[i][j] = reduce(p, -c)
            a[j][i] = c
    return a


# ------------------------------------------------------------ the action


def gen_action(p: int, b, i: int, w: dict) -> dict:
    """e_{i+1} . w = e_{i+1} ^ w + contraction of w by B(e_{i+1}, .)."""
    row = b[i]
    bit = 1 << i
    below = bit - 1
    out = {}
    for m, c in w.items():
        if not m & bit:
            t = m | bit
            out[t] = out.get(t, 0) + (-c if popcount(m & below) & 1 else c)
        for k, j in enumerate(bits(m)):
            f = row[j]
            if f:
                t = m ^ (1 << j)
                out[t] = out.get(t, 0) + (-(f * c) if k & 1 else f * c)
    return clean(p, out)


def act(p: int, b, u: dict, v: dict) -> dict:
    """u . v, with u's blades read as products of generators acting
    through b (so u lives over the quadratic form x -> b(x, x))."""
    out = {}
    for mask, c in u.items():
        acc = v
        for i in reversed(bits(mask)):
            acc = gen_action(p, b, i, acc)
            if not acc:
                break
        for m, x in acc.items():
            out[m] = out.get(m, 0) + c * x
    return clean(p, out)


UNIT = {0: 1}


def product(p: int, n: int, diag, upper, u: dict, v: dict) -> dict:
    """The product of Cl(V, Q)."""
    return act(p, lower_form(n, diag, upper), u, v)


def deform(p: int, n: int, diag, upper, f, w: dict) -> dict:
    """lambda_F: w over Q + Q_F mapped into the algebra of Q."""
    return act(p, mat_add(p, lower_form(n, diag, upper), f), w, UNIT)


def undeform(p: int, c, u: dict) -> dict:
    """The w with act(c, w, 1) == u.  act(c, e_A, 1) is e_A plus terms of
    lower grade, so the top grade of the residue fixes w grade by grade."""
    w = {}
    residue = dict(u)
    while residue:
        top = max(popcount(m) for m in residue)
        lead = {m: x for m, x in residue.items() if popcount(m) == top}
        w = add(p, w, lead)
        residue = add(p, residue, act(p, c, lead, UNIT), -1)
    return w


def twisted(p: int, n: int, diag, upper, f, u: dict, v: dict) -> dict:
    """The product of Cl(Q + Q_F) carried onto Cl(Q) by lambda_F:
    lambda_F(a b) = a . lambda_F(b), so u *_F v = lambda_F^{-1}(u) . v."""
    c = mat_add(p, lower_form(n, diag, upper), f)
    return act(p, c, undeform(p, c, u), v)


def symbol(p: int, n: int, diag, upper, w: dict) -> dict:
    return act(p, half_polar(p, n, diag, upper), w, UNIT)


def quantize(p: int, n: int, diag, upper, e: dict) -> dict:
    c = mat_add(p, lower_form(n, diag, upper), half_polar(p, n, diag, upper), -1)
    return act(p, c, e, UNIT)


def exp_contract(p: int, n: int, diag, upper, coeffs, w: dict) -> dict:
    """The paper's gauge identity: exp of the contraction by a two-form
    is the deformation by its alternating form."""
    return deform(p, n, diag, upper, alternating_of_two_form(p, n, coeffs), w)


def rank(p: int, rows) -> int:
    """Rank of a list of rows, by Gaussian elimination."""
    m = [[Fraction(x) if not p else x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = inverse(p, m[r][c])
        for i in range(r + 1, len(m)):
            if m[i][c]:
                k = m[i][c] * inv
                m[i] = [reduce(p, x - k * y) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det(p: int, a) -> object:
    """Determinant by Gaussian elimination."""
    m = [[Fraction(x) if not p else x % p for x in row] for row in a]
    n = len(m)
    result = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        inv = inverse(p, m[c][c])
        result = reduce(p, result * m[c][c])
        for r in range(c + 1, n):
            if m[r][c]:
                k = m[r][c] * inv
                m[r] = [reduce(p, x - k * y) for x, y in zip(m[r], m[c])]
    return reduce(p, result)

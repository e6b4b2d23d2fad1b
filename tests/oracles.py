"""Independent brute-force reimplementations used as test oracles.

Everything here is written from the combinatorial definitions, on
purpose sharing no code with the package: matching sums for the
Pfaffian, the pair-contraction expansion for the deformation operator
on words (on raw values, signs by counting inversions), letter-by-letter
loops for the tensor contraction and left multiplication, permutation
sums for quantization and determinants, and bubble-sorting words with
the defining relations for Clifford products; and textbook
Gauss-Jordan elimination and matrix products on plain Fractions or
residues.  Slow is fine.
"""

import functools
from fractions import Fraction
from itertools import permutations

from cliffbundle import CliffElt


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq, by counting bubble-sort swaps."""
    seq = list(seq)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
                changed = True
    return -1 if swaps % 2 else 1


def all_pairings(items):
    """All ways to split items into unordered pairs (items has even length)."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for tail in all_pairings(rest):
            yield [(first, items[k])] + tail


def pfaffian_matchings(a):
    """Pfaffian as the signed sum over perfect matchings of {1..2n}.

    Each matching {(i1,j1),...,(in,jn)} with i < j in every pair
    contributes sign(i1 j1 i2 j2 ... in jn) * prod a(i,j).
    """
    n = a.ctx.dim
    field = a.ctx.field
    if n % 2:
        raise ValueError("odd size")
    total = field.zero
    for pairing in all_pairings(range(1, n + 1)):
        flat = []
        coeff = field.one
        for i, j in pairing:
            i, j = min(i, j), max(i, j)
            flat.extend((i, j))
            coeff = coeff * a.at(i, j)
        total = total + perm_sign(flat) * coeff
    return total


def inversions(seq) -> int:
    """Number of pairs out of order in seq."""
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])


@functools.lru_cache(maxsize=None)
def pair_shapes(left, length):
    """Every set of disjoint position pairs (i, j), i < j < length, whose
    left position i is below left, as (pairs, remaining positions,
    sign); the sign is that of the arrangement
    (i1, j1, ..., ik, jk, remaining ascending), by counting inversions."""
    out = []

    def grow(start, pairs, used):
        rest = [pos for pos in range(length) if pos not in used]
        arrangement = [pos for pair in pairs for pos in pair] + rest
        out.append((tuple(pairs), tuple(rest), -1 if inversions(arrangement) % 2 else 1))
        for i in range(start, left):
            if i in used:
                continue
            for j in range(i + 1, length):
                if j not in used:
                    grow(i + 1, pairs + [(i, j)], used | {i, j})

    grow(0, [], frozenset())
    return tuple(out)


def pair_sum(F, p, u, v, k=None):
    """The deformation operator of F at u applied to v, on raw values:
    F is a matrix of Fractions (p = 0) or of residues mod p, row i - 1
    holding F(e_i, .), and u, v map words (tuples over 1..n) to such
    values.  For each word x of u and y of v it sums over the sets of
    disjoint position pairs (i, j), i < j, of the word xy whose left
    position lies in x: the paired letters are removed and the
    coefficient is multiplied by F(letter i, letter j) per pair and by
    the sign of pair_shapes.  With k given, only sets of exactly k pairs
    count: the divided power.  Returns {word: value}, zeros dropped."""
    out = {}
    for x, a in u.items():
        for y, b in v.items():
            word = x + y
            for pairs, rest, sign in pair_shapes(len(x), len(word)):
                if k is not None and len(pairs) != k:
                    continue
                coeff = sign * a * b
                for i, j in pairs:
                    coeff *= F[word[i] - 1][word[j] - 1]
                key = tuple(word[pos] for pos in rest)
                out[key] = out.get(key, 0) + coeff
    return _nonzero(out, p)


def to_exterior(words, p):
    """Words pushed to the exterior algebra: each sorted with the sign
    of the sorting permutation, those with a repeated letter dropped."""
    out = {}
    for w, c in words.items():
        if len(set(w)) == len(w):
            key = tuple(sorted(w))
            out[key] = out.get(key, 0) + perm_sign(w) * c
    return {k: c % p if p else c for k, c in out.items() if (c % p if p else c)}


def _nonzero(out, p):
    """out reduced mod p when p > 0, zeros dropped."""
    if p:
        return {w: c % p for w, c in out.items() if c % p}
    return {w: c for w, c in out.items() if c}


def contract_loop(f, u, p):
    """The contraction of the words of u by the linear form with values
    f (f[i - 1] at e_i), on raw values: the letter at position t is
    removed, weighted by f of it and the sign (-1)^t."""
    out = {}
    for word, c in u.items():
        for t, letter in enumerate(word):
            rest = word[:t] + word[t + 1:]
            out[rest] = out.get(rest, 0) + (-1) ** t * f[letter - 1] * c
    return _nonzero(out, p)


def left_mul_loop(x, u, p):
    """x (x) u on raw values: the letter i prepended to every word of u,
    weighted by x[i - 1]."""
    out = {}
    for i, a in enumerate(x, start=1):
        for word, c in u.items():
            out[(i,) + word] = out.get((i,) + word, 0) + a * c
    return _nonzero(out, p)


def raw_terms(elt):
    """The raw values of an element's terms."""
    return {key: c.value for key, c in elt.terms.items()}


def deform_word_pairs(F, word):
    """Deformation of a basis word by summing over sets of disjoint
    position pairs, on the raw values of the form F: {word: value}."""
    values = [[c.value for c in row] for row in F.rows]
    return pair_sum(values, F.ctx.field.char, {tuple(word): 1}, {(): 1})


def quantize_perm_sum(cctx, vectors):
    """Quantization of y1 ^ ... ^ yk as the normalized permutation sum
    (1/k!) sum_sigma sign(sigma) y_sigma(1) ... y_sigma(k); needs k!
    invertible."""
    k = len(vectors)
    field = cctx.field
    total = CliffElt.zero(cctx)
    for perm in permutations(range(k)):
        prod = CliffElt.unit(cctx)
        for idx in perm:
            prod = prod * CliffElt.from_vector(cctx, vectors[idx])
        total = total + perm_sign(perm) * prod
    fact = field.one
    for i in range(2, k + 1):
        fact = fact * i
    return (field.one / fact) * total


def det_perm_sum(rows):
    """Determinant by the Leibniz permutation sum."""
    n = len(rows)
    field = rows[0][0].field
    total = field.zero
    for perm in permutations(range(n)):
        coeff = field.one
        for i in range(n):
            coeff = coeff * rows[i][perm[i]]
        total = total + perm_sign(perm) * coeff
    return total


def rref_oracle(rows, p):
    """Reduced row echelon form of a matrix of plain numbers, by
    Gauss-Jordan elimination: over Q (p = 0) on Fractions, over GF(p)
    on residues with Fermat inverses x^(p-2).  Returns (rows, pivot
    columns)."""
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, len(m)) if m[i][c]]
        if not found:
            continue
        m[r], m[found[0]] = m[found[0]], m[r]
        inv = pow(m[r][c], p - 2, p) if p else 1 / m[r][c]
        m[r] = [x * inv % p if p else x * inv for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def matmul_oracle(a, b, p):
    """Product of matrices of plain numbers by the textbook triple sum."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            total = sum(Fraction(row[k]) * b[k][j] for k in range(len(b)))
            out[-1].append(total % p if p else total)
    return out


def normal_order(q, word, memo=None):
    """A word in the generators as {increasing blade: coeff}, by
    bubble-sorting it with the defining relations
        e_j e_i -> polar(i, j) - e_i e_j  (j > i),   e_i e_i -> Q(e_i)."""
    if memo is None:
        memo = {}
    word = tuple(word)
    if word in memo:
        return memo[word]
    field = q.ctx.field
    out = {word: field.one}
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a < b:
            continue
        rest = word[:t] + word[t + 2:]
        if a == b:
            out = {w: c * q.value_at(a) for w, c in normal_order(q, rest, memo).items()}
        else:
            out = {w: c * q.polar(b, a) for w, c in normal_order(q, rest, memo).items()}
            swapped = word[:t] + (b, a) + word[t + 2:]
            for w, c in normal_order(q, swapped, memo).items():
                out[w] = out.get(w, field.zero) - c
        break
    memo[word] = out = {w: c for w, c in out.items() if c}
    return out


def word_sum(q, words):
    """Normal form of a sum of coeff * word, given as (word, coeff) pairs."""
    memo = {}
    total = {}
    for word, coeff in words:
        for w, c in normal_order(q, word, memo).items():
            total[w] = total.get(w, q.ctx.field.zero) + coeff * c
    return {w: c for w, c in total.items() if c}


def deform_sum(F, q, terms):
    """Deformation of a normal-form element {blade: coeff} into the
    algebra of q: each blade deformed as a word by pair contractions,
    then normal-ordered with the relations of q."""
    return word_sum(q, [(w, c * d) for blade, c in terms.items()
                        for w, d in deform_word_pairs(F, blade).items()])


def interior_sum(ustar_terms, w_terms, zero):
    """Interior action on normal forms: e*_{s1} ^ ... ^ e*_{sk} contracts
    e*_{sk} first; removing index j from position t of a blade carries
    (-1)^t, and a missing index gives zero."""
    total = {}
    for subset, a in ustar_terms.items():
        for blade, c in w_terms.items():
            rest, sign = list(blade), 1
            for j in reversed(subset):
                if j not in rest:
                    break
                t = rest.index(j)
                sign = -sign if t % 2 else sign
                del rest[t]
            else:
                key = tuple(rest)
                total[key] = total.get(key, zero) + (a * c if sign > 0 else -(a * c))
    return {b: x for b, x in total.items() if x}


def chevalley_rows(p, diag, upper, f=None):
    """The Chevalley form of the quadratic form with values diag at the
    e_i and polar values upper (ragged, row i holding the pairs (i, j)
    for j > i), plus the bilinear form f when given, as an n x n list of
    lists: Q(e_i) on the diagonal, the polar value of (e_j, e_i) in row
    i and column j < i, zero above.  Plain values in, Fractions out over
    Q (p = 0), residues mod p otherwise; entry by entry from the
    definition."""
    n = len(diag)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                x = Fraction(diag[i])
            elif j < i:
                x = Fraction(upper[j][i - j - 1])
            else:
                x = Fraction(0)
            if f is not None:
                x += Fraction(f[i][j])
            row.append(x % p if p else x)
        rows.append(row)
    return rows


def matrix_poly(coeffs, a, p):
    """sum coeffs[i] A^i for a square matrix of plain numbers, by the
    textbook products (matmul_oracle), entries reduced mod p over GF(p)."""
    n = len(a)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    total = [[0] * n for _ in range(n)]
    for c in coeffs:
        total = [[x + c * y for x, y in zip(tr, pr)] for tr, pr in zip(total, power)]
        power = matmul_oracle(power, a, p)
    return [[x % p if p else x for x in row] for row in total]


def powers_rank(a, k, p):
    """The rank of I, A, ..., A^(k-1), each flattened to a row (rref_oracle):
    k exactly when no monic polynomial of degree below k kills A."""
    n = len(a)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    flats = []
    for _ in range(k):
        flats.append([int(x) if p else x for row in power for x in row])
        power = matmul_oracle(power, a, p)
    return len(rref_oracle(flats, p)[1])


def trial_divisors(m):
    """Every positive divisor of |m|, by trial division up to its square root."""
    m, out, d = abs(m), set(), 1
    while d * d <= m:
        if m % d == 0:
            out |= {d, m // d}
        d += 1
    return sorted(out)


def rational_roots(coeffs, p):
    """The roots in the field of sum coeffs[i] x^i, each candidate
    evaluated by the plain sum on Fractions or residues.  Over GF(p) every
    residue for p <= 512 and none above.  Over Q 0 if c_0 is 0, and with
    the zero roots dropped and the rest scaled by the lcm of the
    denominators: +-a/b for every a dividing the constant and b dividing
    the leading coefficient when both are at most 10^12 in size, and
    a/b with |a| <= 8, 1 <= b <= 4 otherwise."""
    if p:
        return [r for r in range(p) if not sum(c * r ** i for i, c in enumerate(coeffs)) % p] \
            if p <= 512 else []
    coeffs = [Fraction(c) for c in coeffs]
    k = 0
    while not coeffs[k]:
        k += 1
    den = 1
    for c in coeffs[k:]:
        den = den * c.denominator // gcd_oracle(den, c.denominator)
    a0, lead = coeffs[k] * den, coeffs[-1] * den
    if abs(a0) > 10 ** 12 or abs(lead) > 10 ** 12:
        cands = {Fraction(a, b) for a in range(-8, 9) for b in range(1, 5)}
    else:
        tops, bottoms = trial_divisors(int(a0)), trial_divisors(int(lead))
        cands = {Fraction(s * a, b) for a in tops for b in bottoms for s in (1, -1)}
    roots = {x for x in cands if not sum(c * x ** i for i, c in enumerate(coeffs))}
    return sorted(roots | ({0} if k else set()), key=str)


def gcd_oracle(a, b):
    """Euclid's algorithm."""
    while b:
        a, b = b, a % b
    return abs(a)


def lin_comb(a, x, b, y, p):
    """a x + b y coordinate by coordinate, on raw values (Fractions, or
    residues mod p > 0)."""
    return [(a * s + b * t) % p if p else a * s + b * t for s, t in zip(x, y)]


def dot(f, x, p):
    """The sum of f_i x_i, on raw values."""
    total = sum(a * b for a, b in zip(f, x))
    return total % p if p else total


def bilinear_sum(f, x, y, p):
    """F(x, y), the sum over i, j of x_i F_ij y_j, on raw values; f is
    a list of rows, row i - 1 holding F(e_i, .)."""
    n = len(x)
    total = sum(x[i] * f[i][j] * y[j] for i in range(n) for j in range(n))
    return total % p if p else total


def quadratic_sum(diag, upper, x, p):
    """Q(x) for Q(e_i) = diag[i - 1] and the polar value at (e_i, e_j),
    i < j, upper[i - 1][j - i - 1]: the sum of Q(e_i) x_i^2 and of the
    polar values times x_i x_j."""
    n = len(x)
    total = sum(diag[i] * x[i] * x[i] for i in range(n))
    total += sum(upper[i][j - i - 1] * x[i] * x[j] for i in range(n) for j in range(i + 1, n))
    return total % p if p else total


def left_partial(f, x, p):
    """The values of F(x, .) on e_1 .. e_n: the sum over i of x_i F_ij."""
    return [dot(x, [row[j] for row in f], p) for j in range(len(x))]

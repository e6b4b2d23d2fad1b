"""Representation matrices on the exterior algebra, twist equivalence,
and a heuristic invariant-subspace probe.

The exterior algebra has the subset basis; a subset S of {1..n} gets the
column/row index sum of 2^(i-1) over i in S (bitmask order), so matrices
are reproducible bit for bit.

The matrices come straight from the Clifford kernel of clifford.py,
whose blades are those same bitmasks, and an EndoMatrix keeps them as
the kernel makes them: sparse integer columns over one denominator.
rho_matrix(F, u) is one walk of u's words over the identity matrix,
column S being u acting on e_S through the rows of F, and the
generator matrices are the rho_matrix of each e_i; twist_matrix(A) is
one run of deform's pair passes over the same identity, column S being
the product over i < j of (1 + A_ij i_j i_i) on e_S; and a product
combines columns.  The probe and the restriction run on the dense
integer rows of those columns through the raw core of linalg.
Scalars appear only in EndoMatrix.entries and rows() (built once per
matrix), in ProbeReport bases and in the matrices restrict_matrices
returns, and strings only in to_json.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from . import linalg
from .clifford import (CliffElt, CliffordContext, _data_of, _pair_passes, _pair_rows,
                       _word_sum)
from .errors import CapExceeded, FieldMismatch, FormError
from .forms import AlgebraContext, BilinearForm, _checked_den, quad_of_bilinear, same_context
from .records import record
from .scalars import Field, canonical_ints, excerpt, ints_of, scalars_over, scaled_ints

_REP_DIM_LIMIT = 12


def cliff_to_vec(w: CliffElt):
    """Coefficient column of an element in the subset basis."""
    vec = [w.cctx.field.zero] * (1 << w.cctx.dim)
    for m, c in zip(w.data, w.terms.values()):
        vec[m] = c
    return vec


def vec_to_cliff(cctx: CliffordContext, vec) -> CliffElt:
    """The element of a coefficient column of length 2^n: the inverse
    of cliff_to_vec."""
    if len(vec) != 1 << cctx.dim:
        raise FormError(f"a coefficient column at dim {cctx.dim} has length "
                        f"{1 << cctx.dim}, got {len(vec)}")
    return CliffElt._of(cctx, *_data_of(cctx.field, range(len(vec)), vec))


@record(frozen=True)
class EndoMatrix:
    """A 2^n x 2^n matrix acting on the exterior algebra in the subset
    basis (bitmask order), held as the kernel makes it: cols[c] lists
    the (row, x) pairs of the nonzero entries of column c by row, and
    every entry is x / den.  Over GF(p) x is a residue and den is 1;
    over Q den > 0 and the gcd of den and every x is 1, so equal
    matrices have equal fields.  The Scalars of entries are built on
    first use, once per matrix."""

    ctx: AlgebraContext
    cols: tuple
    den: int

    def __post_init__(self):
        """The public constructor's check, kept as _endo makes it: 2^n
        columns of (row, x) int pairs, rows distinct in 0 .. 2^n - 1."""
        _checked_den("EndoMatrix", self.ctx, self.den)
        n, cols = self.ctx.dim, self.cols
        try:
            pairs = [(r, x) for col in cols for r, x in col]
            terms = {(c << n) | r: x for c, col in enumerate(cols) for r, x in col}
        except (TypeError, ValueError):  # not columns of pairs
            pairs = terms = None
        if (terms is None or not isinstance(cols, (tuple, list)) or len(cols) != 1 << n
                or len(terms) != len(pairs)
                or any(type(r) is not int or type(x) is not int or not 0 <= r < 1 << n
                       for r, x in pairs)):
            raise FormError(f"EndoMatrix at dim {n} needs {1 << n} columns of (row, x) int "
                            f"pairs, rows distinct in 0..{(1 << n) - 1}, got {excerpt(cols)}")
        made = _endo(self.ctx, terms, self.den)
        object.__setattr__(self, "cols", made.cols)
        object.__setattr__(self, "den", made.den)

    @classmethod
    def from_rows(cls, ctx: AlgebraContext, rows) -> "EndoMatrix":
        n, size = ctx.dim, 1 << ctx.dim
        if len(rows) != size or any(len(row) != size for row in rows):
            raise FormError(f"endomorphism matrix must be {size}x{size}")
        nums, den = ints_of(ctx.field, ctx.coerce_all(v for row in rows for v in row))
        keys = ((c << n) | r for r in range(size) for c in range(size))
        return _endo(ctx, dict(zip(keys, nums)), den)

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> "EndoMatrix":
        return _endo(ctx, _unit_map(ctx.dim), 1)

    @property
    def size(self) -> int:
        return 1 << self.ctx.dim

    @cached_property
    def entries(self) -> tuple:
        """The rows as tuples of Scalars (scalars_over)."""
        zero, den = self.ctx.field.zero, self.den
        rows = [[zero] * self.size for _ in self.cols]
        for c, col in enumerate(self.cols):
            for (r, _), s in zip(col, scalars_over(zero.field, [x for _, x in col], den)):
                rows[r][c] = s
        return tuple(map(tuple, rows))

    def rows(self):
        return [list(r) for r in self.entries]

    def __mul__(self, other: "EndoMatrix") -> "EndoMatrix":
        """Column c is the sum over other's entries y at (r, c) of y times column r."""
        if not isinstance(other, EndoMatrix):
            return NotImplemented
        same_context(self.ctx, other.ctx)
        n, cols = self.ctx.dim, self.cols
        out = {}
        get = out.get
        for c, col in enumerate(other.cols):
            base = c << n
            for r, y in col:
                for k, x in cols[r]:
                    k |= base
                    out[k] = get(k, 0) + x * y
        return _endo(self.ctx, out, self.den * other.den)

    def to_json(self) -> dict:
        return {"matrix": [[str(v) for v in row] for row in self.entries]}


def _unit_map(n: int) -> dict:
    """The identity matrix as a map from (column << n) | row to 1."""
    return dict.fromkeys(((s << n) | s for s in range(1 << n)), 1)


def _endo(ctx: AlgebraContext, terms: dict, den: int) -> EndoMatrix:
    """The matrix whose entry at row r of column c is
    terms[(c << n) | r] / den, den a nonzero int (over GF(p) a unit), its
    entries made canonical by canonical_ints."""
    n = ctx.dim
    values, den = canonical_ints(ctx.field.char, terms.values(), den)
    cols = [[] for _ in range(1 << n)]
    low = (1 << n) - 1
    for k, x in zip(terms, values):
        if x:
            cols[k >> n].append((k & low, x))
    for col in cols:
        col.sort()
    return EndoMatrix._of(ctx, tuple(map(tuple, cols)), den)


def _rep_guard(n: int):
    if n > _REP_DIM_LIMIT:
        raise CapExceeded(f"representation dimension 2^{n} exceeds the guard")


def rho_matrix(F: BilinearForm, u: CliffElt) -> EndoMatrix:
    """Matrix of the operator deformation of u on the exterior algebra.

    u must live over the quadratic form of F itself (x -> F(x, x)); the
    map is an algebra homomorphism, and its first column (image of the
    unit) is the coefficient vector of deform(F, u).  Column S is
    deform_apply(F, u, e_S): u acting on e_S through the form F, the
    Chevalley form of the exterior algebra plus F.  Every column comes
    from one walk of u's words over the identity matrix, keyed
    (column << n) | row: the kernel reads only the low n bits of a key.
    """
    ctx = F.ctx
    same_context(ctx, u.cctx.ctx)
    if u.cctx.quadratic != quad_of_bilinear(F):
        raise FormError("element must live over the quadratic form of F")
    _rep_guard(ctx.dim)
    return _rho(F, u.data, u.den)


def _rho(F: BilinearForm, u: dict, den: int) -> EndoMatrix:
    """rho_matrix of u / den, u a mask -> int map, its checks passed:
    the kernel reads F's rows in place (see clifford._word_sum)."""
    ctx = F.ctx
    out, scale = _word_sum(ctx.field.char, ctx.dim, (F.nums, F.den), u, _unit_map(ctx.dim))
    return _endo(ctx, out, den * scale)


def generator_matrices(F: BilinearForm):
    """Representation matrices of the n generators e_1 .. e_n: the
    rho_matrix of each, which lives over the quadratic form of F."""
    _rep_guard(F.ctx.dim)
    return [_rho(F, {1 << i: 1}, 1) for i in range(F.ctx.dim)]


def twist_matrix(A: BilinearForm) -> EndoMatrix:
    """Matrix of the deformation by an alternating form on the exterior
    algebra (an automorphism of the underlying space: the quadratic part
    of an alternating form vanishes).  Column S is deform(A, e_S), the
    product over i < j of (1 + A_ij i_j i_i) on e_S: one run of the pair
    passes over the identity matrix keyed (column << n) | row, whose
    passes read only the low n bits of a key.  Over Q each pass is d
    times the true one, so the entry at (S, K), reached by
    (|S| - |K|) / 2 of them, is scaled by d^(n // 2 - (|S| - |K|) / 2)
    and put over d^(n // 2)."""
    if not A.is_alternating():
        raise FormError("twist matrix needs an alternating form")
    ctx = A.ctx
    n = ctx.dim
    _rep_guard(n)
    g, d = _pair_rows(ctx.field.char, n, (A.nums, A.den))
    out = _pair_passes(g, _unit_map(n))
    if d != 1:  # (|S| - |K|) / 2 = |S| - (|S| + |K|) / 2
        out = {k: x * d ** (n // 2 + k.bit_count() // 2 - (k >> n).bit_count())
               for k, x in out.items()}
    return _endo(ctx, out, d ** (n // 2))


@record()
class EquivalenceReport:
    identity: str
    samples: int
    failures: list
    seed: int

    @property
    def passed(self) -> int:
        return self.samples - len(self.failures)

    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "samples": self.samples,
            "failures": self.failures,
            "seed": self.seed,
        }


def check_equivalence(F: BilinearForm, A: BilinearForm, samples, seed: int = 0) -> EquivalenceReport:
    """Verify that twisting F by an alternating A conjugates the
    representation: rho[F+A](a) * twist(A) == twist(A) * rho[F](a).

    The two representations share one source algebra (an alternating
    form has zero quadratic part), so each sample element feeds both
    sides unchanged.  Failures record the first discrepant entry.
    """
    if not A.is_alternating():
        raise FormError("twist form must be alternating")
    same_context(F.ctx, A.ctx)
    M = twist_matrix(A)
    Fp = F + A
    failures = []
    total = 0
    for i, a in enumerate(samples):
        total += 1
        lhs = rho_matrix(Fp, a) * M
        rhs = M * rho_matrix(F, a)
        if lhs != rhs:
            left, right = lhs.entries, rhs.entries
            r, c = next((r, c) for r, (rl, rr) in enumerate(zip(left, right))
                        for c, (x, y) in enumerate(zip(rl, rr)) if x != y)
            failures.append({"sample": i, "entry": [r, c],
                             "lhs": str(left[r][c]), "rhs": str(right[r][c])})
    return EquivalenceReport(
        identity="rho[F+A](a) * twist(A) == twist(A) * rho[F](a)",
        samples=total, failures=failures, seed=seed)


@record()
class ProbeReport:
    """Result of the invariant-subspace probe.

    A nonempty result certifies reducibility by exhibiting subspaces; an
    empty result proves nothing (the search is heuristic).
    """

    seed: int
    dims: tuple
    bases: tuple

    certifies_irreducibility = False

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "subspaces": [
                {"dim": len(basis), "basis": [[str(v) for v in row] for row in basis]}
                for basis in self.bases
            ],
            "certifies_irreducibility": False,
        }


def _int_rows(m) -> tuple:
    """The field, dense integer rows and den of an EndoMatrix, or of a
    matrix of Scalars of one field (linalg.int_rows)."""
    if not isinstance(m, EndoMatrix):
        return linalg.int_rows(m)
    rows = [[0] * m.size for _ in m.cols]
    for c, col in enumerate(m.cols):
        for r, x in col:
            rows[r][c] = x
    return m.ctx.field, rows, m.den


def _common_field(fields) -> Field:
    """The one field of fields; FieldMismatch unless they are one."""
    for f in fields:
        if f != fields[0]:
            raise FieldMismatch(f"cannot combine {fields[0].spec} and {f.spec} matrices")
    return fields[0]


def restrict_matrices(mats, basis):
    """Restrict matrices to the span of the given vectors (a basis of an
    invariant subspace); raises if the span is not invariant.  Returns
    plain d x d matrices in the given basis."""
    if not basis:
        raise FormError("cannot restrict to an empty basis")
    fields, rows, dens = zip(*map(_int_rows, [*mats, basis]))
    *rows, brows = rows
    n = len(brows[0])
    if not n or any(len(v) != n for v in brows) or any(
            len(m) != n or any(len(r) != n for r in m) for m in rows):
        raise FormError("the matrices must be square of the basis vectors' length")
    field = _common_field(fields)
    p = field.char
    # one solve B X = [M_1 B | M_2 B | ...] for all; scaling B leaves X as it is
    bcols = linalg.transpose(brows)
    images = [linalg.mat_mul_raw(m, bcols, p) for m in rows]
    x = linalg.solve_matrix_raw(bcols, [sum(row, []) for row in zip(*images)], p)
    if x is None:
        raise FormError("span is not invariant under the given matrices")
    d = len(brows)
    return [[scalars_over(field, row[k * d:(k + 1) * d], x[1] * den) for row in x[0]]
            for k, den in enumerate(dens[:-1])]


def _lift(x, p: int):
    return x % p if p else x


def _min_poly(rows, den: int, p: int):
    """Ascending coefficients of the monic minimal polynomial of rows / den.
    The powers A^k of the integer rows go into one echelon, each with a
    tail e_k to carry its combination of powers; the first that reduces to
    zero gives the relation t, and m(x) = sum t_i x^i / (t_k den^(k - i))."""
    n = len(rows)
    size = n * n
    echelon, power = [], [[int(r == c) for c in range(n)] for r in range(n)]
    for k in range(n + 1):
        flat = [x for row in power for x in row] + [int(i == k) for i in range(n + 1)]
        t = linalg.echelon_raw(echelon, flat, p, size)[size:size + k + 1]
        if len(echelon) == k:  # A^k did not grow the echelon
            return [x * pow(t[k], -1, p) % p if p else Fraction(x, t[k] * den ** (k - i))
                    for i, x in enumerate(t)]
        power = linalg.mat_mul_raw(power, rows, p)


def _root_bound(ints) -> int:
    """An int above |z| for each root z of sum ints[i] x^i, degree d:
    Fujiwara's 2 max_k |c_(d-k) / c_d|^(1/k), c_0 halved, each root
    rounded up to a power of two."""
    d, lead = len(ints) - 1, abs(ints[-1])
    return 2 * max((1 << -(-(-(-abs(ints[d - k]) // (lead << (k == d)))).bit_length() // k)
                    for k in range(1, d + 1)), default=1)


def _int_divisors(m: int, bound: int):
    """The divisors of |m| up to bound: trial division to min(bound, sqrt |m|)."""
    m = abs(m)
    out = set()
    for d in range(1, min(bound, isqrt(m)) + 1):
        if m % d == 0:
            out.update((d, m // d))
    return sorted(x for x in out if x <= bound)


def _at(ints, a: int, b: int) -> int:
    """b^d P(a / b) for P = sum ints[i] x^i of degree d, by Horner on ints."""
    acc, bk = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _poly_roots(coeffs, p: int):
    """Roots in the field of a polynomial with ascending coefficients.
    Over the rationals, with the zero roots split off and the rest
    scaled to integers: every root, by the rational root theorem (a/b
    in lowest terms is a root when _at is 0, and |a/b| and |b/a| are
    below the root bounds of P and its reverse), while the constant and
    leading coefficients are at most 10^12 in size; above that only
    a/b with |a| <= 8 and 1 <= b <= 4 are tried, so roots can be
    missed.  Over GF(p): brute force for p <= 512, none above."""
    if p:
        return [r for r in range(p) if not _at(coeffs, r, 1) % p] if p <= 512 else []
    zeros = next(i for i, c in enumerate(coeffs) if c)
    roots = [0] if zeros else []
    ints, _ = scaled_ints(coeffs[zeros:])
    a0, lead = ints[0], ints[-1]
    if abs(a0) > 10 ** 12 or abs(lead) > 10 ** 12:
        pairs = [(a, b) for a in range(-8, 9) for b in range(1, 5)]
    else:
        bound, rbound = _root_bound(ints), _root_bound(ints[::-1])
        bs = _int_divisors(lead, rbound * abs(a0))
        pairs = [(s * a, b) for a in _int_divisors(a0, bound * bs[-1]) for b in bs
                 if a <= bound * b and b <= rbound * a for s in (1, -1)]
    roots += [Fraction(a, b) for a, b in pairs if gcd(a, b) == 1 and not _at(ints, a, b)]
    return sorted(set(roots), key=str)


def _intersect(ubasis, wbasis, p: int):
    """The canonical rows of the intersection of two row spans, of independent rows."""
    sols, _ = linalg.nullspace_raw(linalg.transpose(ubasis + [[-x for x in w] for w in wbasis]), p)
    return linalg.row_space_raw(linalg.mat_mul_raw([s[:len(ubasis)] for s in sols], ubasis, p), p)


def invariant_probe(mats, seed: int) -> ProbeReport:
    """Heuristic search for common invariant subspaces.

    Closes under the matrices their own kernels, kernels and images of
    random algebra elements and cyclic spans of random vectors, and
    splits along eigenspaces of commutant elements (kernels of Y - mu
    for Y commuting with every matrix are invariant outright).  The
    kernels of the matrices need no randomness, so a singular one is
    always tried.  Records every proper nonzero common invariant
    subspace found, plus pairwise sums and intersections.

    Works on integer rows (linalg's raw core), as (rows, den) where the
    scale matters; a subspace is kept in its canonical form (rref_raw),
    made Scalars only for the report.

    Semi-decision: finding subspaces certifies reducibility; finding
    none proves nothing.
    """
    if not mats:
        raise FormError("invariant probe needs at least one matrix")
    fields, rows, dens = zip(*map(_int_rows, mats))
    n = len(rows[0])
    if not n or any(len(m) != n or any(len(r) != n for r in m) for m in rows):
        raise FormError("all matrices must share one nonempty square dimension")
    field = _common_field(fields)
    p = field.char
    pairs = list(zip(rows, dens))
    # row v of [v] @ images is the images M_1 v, M_2 v, ... laid end to end
    images = [sum(cat, []) for cat in zip(*map(linalg.transpose, rows))]
    rng = random.Random(seed)
    found = {}

    def combine(acc, c, m):  # acc + c m
        (a, da), (b, db) = acc, m
        den = lcm(da, db)
        s, t = den // da, c * (den // db)
        return [[x * s + y * t for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], den

    def rand_vec():
        while True:
            v = [_lift(rng.randint(-3, 3), p) for _ in range(n)]
            if any(v):
                return v

    def close_under(vectors):
        """The canonical rows of the smallest invariant span of vectors, or
        [] if it is the whole space: a spin, each vector that grows the
        span sent through each matrix once, then one canonical_raw.
        Breadth first: a vector many products deep has long entries."""
        echelon, todo = [], list(vectors)
        for v in todo:
            if len(echelon) == n:
                break
            v = linalg.echelon_raw(echelon, v, p)
            if any(v):
                img = linalg.mat_mul_raw([v], images, p)[0]
                todo += [img[k:k + n] for k in range(0, len(img), n)]
        return linalg.canonical_raw(echelon, p)[0] if len(echelon) < n else []

    def keep(basis):
        if 0 < len(basis) < n:
            found.setdefault(tuple(map(tuple, basis)), basis)

    def rand_algebra_elt():
        acc = ([[0] * n for _ in range(n)], 1)
        for _ in range(rng.randint(1, 3)):
            prod = rng.choice(pairs)
            for _ in range(rng.randint(0, 2)):
                (a, da), (b, db) = prod, rng.choice(pairs)
                prod = linalg.mat_mul_raw(a, b, p), da * db
            acc = combine(acc, _lift(rng.choice((-2, -1, 1, 2)), p), prod)
        return acc[0]  # its kernel and image do not read the scale

    # cyclic closures of random vectors, and random spans (these catch
    # small algebras; for rich algebras the closures fill up and drop out)
    for _ in range(6):
        keep(close_under([rand_vec()]))
    for k in range(2, n):
        keep(close_under([rand_vec() for _ in range(k)]))

    # kernels of the given matrices, then kernels and images of random
    # algebra elements (random ones are usually invertible)
    for m in rows:
        keep(close_under(linalg.nullspace_raw(m, p)[0]))
    for _ in range(8):
        y = rand_algebra_elt()
        ker, _ = linalg.nullspace_raw(y, p)
        if ker:
            keep(close_under(ker))
            keep(close_under([ker[0]]))
        img = linalg.row_space_raw(linalg.transpose(y), p)
        if len(img) < n:
            keep(close_under(img))

    # commutant eigenspaces: solve Y M_i = M_i Y exactly, then split
    # along rational eigenvalues of random commutant elements (skipped
    # for large matrices: the solve is n^2 unknowns); Y is integer rows
    # over the nullspace's den, and ker(Y / den - a / b) = ker(b Y - a den)
    if n <= 12:
        eqs = []
        for m in rows:
            for r in range(n):
                for c in range(n):
                    row = [0] * (n * n)
                    for s in range(n):
                        row[r * n + s] += m[s][c]
                        row[s * n + c] -= m[r][s]
                    eqs.append(row)
        comm, den = linalg.nullspace_raw(eqs, p)
        if len(comm) > 1:
            basis_mats = [([sol[r * n:(r + 1) * n] for r in range(n)], den) for sol in comm]
            for _ in range(min(8, 2 * len(basis_mats))):
                y = ([[0] * n for _ in range(n)], den)
                for bm in basis_mats:
                    c = _lift(rng.randint(-2, 2), p)
                    if c:
                        y = combine(y, c, bm)
                y, dy = y
                for mu in _poly_roots(_min_poly(y, dy, p), p):
                    a, b = mu.numerator * dy, mu.denominator
                    shifted = [[b * x - a if r == c else b * x for c, x in enumerate(row)]
                               for r, row in enumerate(y)]
                    keep(close_under(linalg.nullspace_raw(shifted, p)[0]))

    # combine what was found: pairwise sums and intersections
    bases_now = list(found.values())
    for i in range(len(bases_now)):
        for j in range(i + 1, len(bases_now)):
            if len(found) > 80:
                break
            keep(linalg.row_space_raw(bases_now[i] + bases_now[j], p))
            keep(_intersect(bases_now[i], bases_now[j], p))

    # each row over its pivot, the first nonzero entry: the reduced echelon form
    bases = [tuple(tuple(scalars_over(field, row, next(filter(None, row)))) for row in basis)
             for basis in found.values()]
    bases.sort(key=lambda basis: (len(basis), [[str(v) for v in row] for row in basis]))
    return ProbeReport(seed=seed, dims=tuple(map(len, bases)), bases=tuple(bases))

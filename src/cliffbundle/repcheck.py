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
combines columns.  The probe and the restriction run on raw
values, residues mod p or rationals, through the raw core of linalg.
Scalars appear only in EndoMatrix.entries and rows() (built once per
matrix), in ProbeReport bases and in the matrices restrict_matrices
returns, and strings only in to_json.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property

from . import linalg
from .clifford import (CliffElt, CliffordContext, _act, _actions, _data_of, _pair_passes,
                       _pair_rows, _word_sum)
from .errors import CapExceeded, FieldMismatch, FormError
from .forms import AlgebraContext, BilinearForm, quad_of_bilinear, same_context
from .records import record
from .scalars import (Field, Scalar, canonical_ints, field_of, ints_of, raw_rows, scalars_over,
                      scaled_ints)

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

    def _raw_rows(self) -> list:
        """The dense rows of raw values: residues, or ints and Fractions."""
        den = self.den
        rows = [[0] * self.size for _ in self.cols]
        for c, col in enumerate(self.cols):
            for r, x in col:
                rows[r][c] = x if den == 1 else Fraction(x, den)
        return rows

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
    terms[(c << n) | r] / den, den > 0, its entries made canonical by
    canonical_ints (over GF(p) den is not read)."""
    n = ctx.dim
    values, den = canonical_ints(ctx.field.char, terms.values(), den)
    cols = [[] for _ in range(1 << n)]
    low = (1 << n) - 1
    for k, x in zip(terms, values):
        if x:
            cols[k >> n].append((k & low, x))
    for col in cols:
        col.sort()
    return EndoMatrix(ctx, tuple(map(tuple, cols)), den)


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
    return _rho(ctx, _actions(ctx.dim, (F.nums, F.den)), u.data, u.den)


def _rho(ctx: AlgebraContext, actions: tuple, u: dict, den: int) -> EndoMatrix:
    """rho_matrix of u / den, u a mask -> int map, under the generator
    actions of F (see clifford._actions), its checks passed."""
    out, scale = _word_sum(_act, actions, ctx.field.char, u, _unit_map(ctx.dim))
    return _endo(ctx, out, den * scale)


def generator_matrices(F: BilinearForm):
    """Representation matrices of the n generators e_1 .. e_n: the
    rho_matrix of each, which lives over the quadratic form of F, with
    one set-up of F's actions for all of them."""
    ctx = F.ctx
    _rep_guard(ctx.dim)
    actions = _actions(ctx.dim, (F.nums, F.den))
    return [_rho(ctx, actions, {1 << i: 1}, 1) for i in range(ctx.dim)]


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


def _raw_of(m) -> tuple:
    """The field and the dense raw rows of an EndoMatrix, or of a matrix
    of Scalars of one field (field_of, raw_rows)."""
    if isinstance(m, EndoMatrix):
        return m.ctx.field, m._raw_rows()
    field = field_of(m)
    return field, raw_rows(m, field)


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
    fields, raw = zip(*map(_raw_of, [*mats, basis]))
    *raw, braw = raw
    n = len(braw[0])
    if not n or any(len(v) != n for v in braw) or any(
            len(m) != n or any(len(r) != n for r in m) for m in raw):
        raise FormError("the matrices must be square of the basis vectors' length")
    field = _common_field(fields)
    p = field.char
    bcols = linalg.transpose(braw)
    out = []
    for m in raw:
        x = linalg.solve_matrix_raw(bcols, linalg.mat_mul_raw(m, bcols, p), p)
        if x is None:
            raise FormError("span is not invariant under the given matrices")
        out.append([[Scalar(field, v) for v in row] for row in x])
    return out


def _lift(x, p: int):
    """A raw value reduced mod p over GF(p), unchanged over Q."""
    return x % p if p else x


def _min_poly(rows, p: int):
    """Monic minimal polynomial of a square matrix, ascending coeffs."""
    n = len(rows)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    flats = []
    while True:
        flat = [v for row in power for v in row]
        if flats:
            a = linalg.solve_raw(linalg.transpose(flats), flat, p)
            if a is not None:
                return [_lift(-v, p) for v in a] + [1]
        flats.append(flat)
        power = linalg.mat_mul_raw(power, rows, p)


def _int_divisors(m: int):
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            out.append(m // d)
        d += 1
    return sorted(set(out))


def _poly_eval(coeffs, x, p: int):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return _lift(acc, p)


def _poly_roots(coeffs, p: int):
    """Roots in the field of a polynomial with ascending coefficients.
    Over the rationals, with the zero roots split off and the rest
    scaled to integers: every root, by the rational root theorem, while
    the constant and leading coefficients are at most 10^12 in size;
    above that only the candidates a/b with |a| <= 8 and 1 <= b <= 4 are
    tried, so roots can be missed.  Over GF(p): brute force for
    p <= 512, none above."""
    if p:
        if p > 512:
            return []
        return [r for r in range(p) if not _poly_eval(coeffs, r, p)]
    roots = []
    work = list(coeffs)
    while len(work) > 1 and not work[0]:
        roots.append(0)
        work = work[1:]
    if len(work) <= 1:
        return sorted(set(roots), key=str)
    ints, _ = scaled_ints(work)
    a0, lead = ints[0], ints[-1]
    if abs(a0) > 10 ** 12 or abs(lead) > 10 ** 12:
        candidates = [Fraction(a, b) for a in range(-8, 9) for b in range(1, 5)]
    else:
        candidates = []
        for a in _int_divisors(a0):
            for b in _int_divisors(lead):
                candidates.append(Fraction(a, b))
                candidates.append(Fraction(-a, b))
    seen = set()
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        if not _poly_eval(coeffs, cand, 0):
            roots.append(cand)
    return sorted(set(roots), key=str)


def _intersect(ubasis, wbasis, p: int):
    """Basis of the intersection of two row spans."""
    du = len(ubasis)
    ucols = linalg.transpose(ubasis)
    rows = linalg.transpose(ubasis + [[_lift(-x, p) for x in w] for w in wbasis])
    vecs = []
    for sol in linalg.nullspace_raw(rows, p):
        vec = linalg.mat_vec_raw(ucols, sol[:du], p)
        if any(vec):
            vecs.append(vec)
    return linalg.row_space_raw(vecs, p) if vecs else []


def invariant_probe(mats, seed: int) -> ProbeReport:
    """Heuristic search for common invariant subspaces.

    Closes under the matrices their own kernels, kernels and images of
    random algebra elements and cyclic spans of random vectors, and
    splits along eigenspaces of commutant elements (kernels of Y - mu
    for Y commuting with every matrix are invariant outright).  The
    kernels of the matrices need no randomness, so a singular one is
    always tried.  Records every proper nonzero common invariant
    subspace found, plus pairwise sums and intersections.

    Works on raw values (residues, or rationals) throughout; the
    reported bases are built as Scalars at the end.

    Semi-decision: finding subspaces certifies reducibility; finding
    none proves nothing.
    """
    if not mats:
        raise FormError("invariant probe needs at least one matrix")
    fields, raw = zip(*map(_raw_of, mats))
    n = len(raw[0])
    if not n or any(len(m) != n or any(len(r) != n for r in m) for m in raw):
        raise FormError("all matrices must share one nonempty square dimension")
    field = _common_field(fields)
    p = field.char
    raw_t = [linalg.transpose(m) for m in raw]
    rng = random.Random(seed)
    found = {}

    def combine(acc, c, m):
        return [[_lift(a + c * b, p) for a, b in zip(ra, rb)] for ra, rb in zip(acc, m)]

    def rand_vec():
        while True:
            v = [_lift(rng.randint(-3, 3), p) for _ in range(n)]
            if any(v):
                return v

    def close_under(vectors):
        basis = linalg.row_space_raw(vectors, p)
        while 0 < len(basis) < n:
            # row v of basis @ m^T is m v
            imgs = [img for mt in raw_t for img in linalg.mat_mul_raw(basis, mt, p)]
            bigger = linalg.row_space_raw(basis + imgs, p)
            if len(bigger) == len(basis):
                break
            basis = bigger
        return basis

    def keep(vectors, close=True):
        if not vectors:
            return
        basis = close_under(vectors) if close else linalg.row_space_raw(vectors, p)
        if 0 < len(basis) < n:
            key = tuple(tuple(map(str, row)) for row in basis)
            found.setdefault(key, basis)

    def rand_algebra_elt():
        acc = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            prod = rng.choice(raw)
            for _ in range(rng.randint(0, 2)):
                prod = linalg.mat_mul_raw(prod, rng.choice(raw), p)
            acc = combine(acc, _lift(rng.choice((-2, -1, 1, 2)), p), prod)
        return acc

    # cyclic closures of random vectors, and random spans (these catch
    # small algebras; for rich algebras the closures fill up and drop out)
    for _ in range(6):
        keep([rand_vec()])
    for k in range(2, n):
        keep([rand_vec() for _ in range(k)])

    # kernels of the given matrices, then kernels and images of random
    # algebra elements (random ones are usually invertible)
    for m in raw:
        keep(linalg.nullspace_raw(m, p))
    for _ in range(8):
        y = rand_algebra_elt()
        ker = linalg.nullspace_raw(y, p)
        if ker:
            keep(ker)
            keep([ker[0]])
        img = linalg.row_space_raw(linalg.transpose(y), p)
        if len(img) < n:
            keep(img)

    # commutant eigenspaces: solve Y M_i = M_i Y exactly, then split
    # along rational eigenvalues of random commutant elements (skipped
    # for large matrices: the solve is n^2 unknowns)
    if n <= 12:
        eqs = []
        for m in raw:
            for r in range(n):
                for c in range(n):
                    row = [0] * (n * n)
                    for s in range(n):
                        row[r * n + s] += m[s][c]
                        row[s * n + c] -= m[r][s]
                    eqs.append(row)
        comm = linalg.nullspace_raw(eqs, p)
        if len(comm) > 1:
            basis_mats = [[sol[r * n:(r + 1) * n] for r in range(n)] for sol in comm]
            for _ in range(min(8, 2 * len(basis_mats))):
                y = [[0] * n for _ in range(n)]
                for bm in basis_mats:
                    c = _lift(rng.randint(-2, 2), p)
                    if c:
                        y = combine(y, c, bm)
                for mu in _poly_roots(_min_poly(y, p), p):
                    shifted = [[_lift(y[r][c] - mu, p) if r == c else y[r][c] for c in range(n)]
                               for r in range(n)]
                    eig = linalg.nullspace_raw(shifted, p)
                    if eig:
                        keep(eig)

    # combine what was found: pairwise sums and intersections
    bases_now = list(found.values())
    for i in range(len(bases_now)):
        for j in range(i + 1, len(bases_now)):
            if len(found) > 80:
                break
            keep(bases_now[i] + bases_now[j], close=False)
            keep(_intersect(bases_now[i], bases_now[j], p), close=False)

    ordered = [found[key] for key in sorted(found, key=lambda key: (len(key), key))]
    return ProbeReport(
        seed=seed,
        dims=tuple(len(b) for b in ordered),
        bases=tuple(tuple(tuple(Scalar(field, v) for v in r) for r in b) for b in ordered))

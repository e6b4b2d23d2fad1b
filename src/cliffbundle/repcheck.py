"""Representation matrices on the exterior algebra, twist equivalence,
and a heuristic invariant-subspace probe.

The exterior algebra has the subset basis; a subset S of {1..n} gets the
column/row index sum of 2^(i-1) over i in S (bitmask order), so matrices
are reproducible bit for bit.

The matrices are built straight from the Clifford kernel of clifford.py,
whose blades are those same bitmasks: column S of rho_matrix(F, u) is
u acting on e_S through the rows of F, and column S of twist_matrix(A)
is the word e_S acting on the unit through A, one generator action on
the column of S without its lowest index.  The probe and the
restriction run on raw values, residues mod p or rationals, through
the raw core of linalg; Scalars appear only in EndoMatrix entries, in
ProbeReport bases and in the matrices restrict_matrices returns.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .clifford import CliffElt, CliffordContext, _act, _actions, _word_sum
from .errors import CapExceeded, FormError
from .forms import AlgebraContext, BilinearForm, quad_of_bilinear, same_context
from .records import record
from .scalars import Scalar, raw_rows, scaled_ints

_REP_DIM_LIMIT = 12


def subset_index(blade) -> int:
    """Bitmask index of a strictly increasing subset, S -> sum 2^(i-1)."""
    return sum(1 << (i - 1) for i in blade)


def index_subset(k: int) -> tuple:
    out = []
    i = 1
    while k:
        if k & 1:
            out.append(i)
        k >>= 1
        i += 1
    return tuple(out)


def cliff_to_vec(w: CliffElt):
    """Coefficient column of an element in the subset basis."""
    n = w.cctx.dim
    vec = [w.cctx.field.zero] * (1 << n)
    for blade, c in w.terms.items():
        vec[subset_index(blade)] = c
    return vec


def vec_to_cliff(cctx: CliffordContext, vec) -> CliffElt:
    terms = {}
    for k, c in enumerate(vec):
        if c:
            terms[index_subset(k)] = c
    return CliffElt(cctx, terms)


@record(frozen=True)
class EndoMatrix:
    """A 2^n x 2^n matrix acting on the exterior algebra in the subset
    basis (bitmask order)."""

    ctx: AlgebraContext
    entries: tuple

    def __post_init__(self):
        size = 1 << self.ctx.dim
        if len(self.entries) != size or any(len(r) != size for r in self.entries):
            raise FormError(f"endomorphism matrix must be {size}x{size}")

    @classmethod
    def from_rows(cls, ctx: AlgebraContext, rows) -> "EndoMatrix":
        return cls(ctx, tuple(tuple(ctx.coerce(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, ctx: AlgebraContext) -> "EndoMatrix":
        return cls.from_rows(ctx, linalg.identity(ctx.field, 1 << ctx.dim))

    @property
    def size(self) -> int:
        return 1 << self.ctx.dim

    def rows(self):
        return [list(r) for r in self.entries]

    def __mul__(self, other: "EndoMatrix") -> "EndoMatrix":
        if not isinstance(other, EndoMatrix):
            return NotImplemented
        same_context(self.ctx, other.ctx)
        return EndoMatrix(self.ctx, tuple(
            tuple(r) for r in linalg.mat_mul(self.rows(), other.rows())))

    def to_json(self) -> dict:
        return {"matrix": [[str(v) for v in row] for row in self.entries]}


def _endo(ctx: AlgebraContext, cols, dens) -> EndoMatrix:
    """The matrix whose column c is the mask -> int map cols[c] divided
    by dens[c]; over GF(p) the values are residues up to reduction and
    dens is not read."""
    field = ctx.field
    p = field.char
    zero = field.zero
    rows = [[zero] * len(cols) for _ in cols]
    for c, col in enumerate(cols):
        for r, x in col.items():
            if x % p if p else x:
                rows[r][c] = Scalar(field, x if p else Fraction(x, dens[c]))
    return EndoMatrix(ctx, tuple(map(tuple, rows)))


def _rep_guard(n: int):
    if n > _REP_DIM_LIMIT:
        raise CapExceeded(f"representation dimension 2^{n} exceeds the guard")


def rho_matrix(F: BilinearForm, u: CliffElt) -> EndoMatrix:
    """Matrix of the operator deformation of u on the exterior algebra.

    u must live over the quadratic form of F itself (x -> F(x, x)); the
    map is an algebra homomorphism, and its first column (image of the
    unit) is the coefficient vector of deform(F, u).  Column S is
    deform_apply(F, u, e_S): u acting on e_S through the form F, the
    Chevalley form of the exterior algebra plus F.
    """
    ctx = F.ctx
    same_context(ctx, u.cctx.ctx)
    if u.cctx.quadratic != quad_of_bilinear(F):
        raise FormError("element must live over the quadratic form of F")
    _rep_guard(ctx.dim)
    actions = _actions(raw_rows(F.rows))
    p = ctx.field.char
    cols, dens = zip(*(_word_sum(_act, actions, p, u.terms, {s: 1})
                       for s in range(1 << ctx.dim)))
    return _endo(ctx, cols, dens)


def generator_matrices(F: BilinearForm):
    """Representation matrices of the n generators e_1 .. e_n: one
    generator action per basis blade."""
    ctx = F.ctx
    size = 1 << ctx.dim
    _rep_guard(ctx.dim)
    acts, scale, d = _actions(raw_rows(F.rows))
    p = ctx.field.char
    return [_endo(ctx, [_act(bit, scale, row, p, {s: 1}) for s in range(size)], [d] * size)
            for bit, row in acts]


def twist_matrix(A: BilinearForm) -> EndoMatrix:
    """Matrix of the deformation by an alternating form on the exterior
    algebra (an automorphism of the underlying space: the quadratic part
    of an alternating form vanishes).  Column S is deform(A, e_S): the
    word e_S acting on the unit through A, built as
    e_min(S) . column(S without min(S)); over Q each generator action
    is d times the true one, so column S is divided by d^|S|."""
    if not A.is_alternating():
        raise FormError("twist matrix needs an alternating form")
    ctx = A.ctx
    n = ctx.dim
    _rep_guard(n)
    acts, scale, d = _actions(raw_rows(A.rows))
    p = ctx.field.char
    cols = [{0: 1}]
    for s in range(1, 1 << n):
        first = s & -s
        bit, row = acts[first.bit_length() - 1]
        cols.append(_act(bit, scale, row, p, cols[s ^ first]))
    return _endo(ctx, cols, [d ** s.bit_count() for s in range(1 << n)])


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
            size = lhs.size
            spot = None
            for r in range(size):
                for c in range(size):
                    if lhs.entries[r][c] != rhs.entries[r][c]:
                        spot = (r, c)
                        break
                if spot:
                    break
            failures.append({
                "sample": i,
                "entry": list(spot),
                "lhs": str(lhs.entries[spot[0]][spot[1]]),
                "rhs": str(rhs.entries[spot[0]][spot[1]]),
            })
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


def _rows_of(m):
    if isinstance(m, EndoMatrix):
        return m.rows()
    return [list(r) for r in m]


def restrict_matrices(mats, basis):
    """Restrict matrices to the span of the given vectors (a basis of an
    invariant subspace); raises if the span is not invariant.  Returns
    plain d x d matrices in the given basis."""
    if not basis:
        raise FormError("cannot restrict to an empty basis")
    field = basis[0][0].field
    p = field.char
    bcols = linalg.transpose(raw_rows(basis))
    out = []
    for m in mats:
        x = linalg.solve_matrix_raw(bcols, linalg.mat_mul_raw(raw_rows(_rows_of(m)), bcols, p), p)
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
    Over the rationals: complete via the rational root bound.  Over
    GF(p): brute force for small p."""
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
    rows_list = [_rows_of(m) for m in mats]
    n = len(rows_list[0])
    if any(len(m) != n or any(len(r) != n for r in m) for m in rows_list):
        raise FormError("all matrices must share one square dimension")
    field = rows_list[0][0][0].field
    p = field.char
    raw = [raw_rows(m) for m in rows_list]
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
        while basis:
            # row v of basis @ m^T is m v
            imgs = [img for mt in raw_t for img in linalg.mat_mul_raw(basis, mt, p)]
            bigger = linalg.row_space_raw(basis + imgs, p)
            if len(bigger) == len(basis):
                break
            basis = bigger
        return basis

    def record(vectors, close=True):
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
        record([rand_vec()])
    for k in range(2, n):
        record([rand_vec() for _ in range(k)])

    # kernels of the given matrices, then kernels and images of random
    # algebra elements (random ones are usually invertible)
    for m in raw:
        record(linalg.nullspace_raw(m, p))
    for _ in range(8):
        y = rand_algebra_elt()
        ker = linalg.nullspace_raw(y, p)
        if ker:
            record(ker)
            record([ker[0]])
        img = linalg.row_space_raw(linalg.transpose(y), p)
        if len(img) < n:
            record(img)

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
                        record(eig)

    # combine what was found: pairwise sums and intersections
    bases_now = list(found.values())
    for i in range(len(bases_now)):
        for j in range(i + 1, len(bases_now)):
            if len(found) > 80:
                break
            record(bases_now[i] + bases_now[j], close=False)
            record(_intersect(bases_now[i], bases_now[j], p), close=False)

    ordered = [found[key] for key in sorted(found, key=lambda key: (len(key), key))]
    return ProbeReport(
        seed=seed,
        dims=tuple(len(b) for b in ordered),
        bases=tuple(tuple(tuple(Scalar(field, v) for v in r) for r in b) for b in ordered))

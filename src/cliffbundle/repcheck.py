"""Representation matrices on the exterior algebra, twist equivalence,
and a heuristic invariant-subspace probe.

The exterior algebra has the subset basis; a subset S of {1..n} gets the
column/row index sum of 2^(i-1) over i in S (bitmask order), so matrices
are reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .clifford import CliffElt, CliffordContext, deform, deform_apply
from .errors import CapExceeded, FormError
from .forms import AlgebraContext, BilinearForm, quad_of_bilinear, same_context
from .scalars import Scalar

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


@dataclass(frozen=True)
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


def rho_matrix(F: BilinearForm, u: CliffElt) -> EndoMatrix:
    """Matrix of the operator deformation of u on the exterior algebra.

    u must live over the quadratic form of F itself (x -> F(x, x)); the
    map is an algebra homomorphism, and its first column (image of the
    unit) is the coefficient vector of deform(F, u).
    """
    ctx = F.ctx
    same_context(ctx, u.cctx.ctx)
    if u.cctx.quadratic != quad_of_bilinear(F):
        raise FormError("element must live over the quadratic form of F")
    n = ctx.dim
    if n > _REP_DIM_LIMIT:
        raise CapExceeded(f"representation dimension 2^{n} exceeds the guard")
    ext = CliffordContext.exterior(ctx)
    size = 1 << n
    cols = []
    for ci in range(size):
        w = CliffElt.blade(ext, index_subset(ci))
        cols.append(cliff_to_vec(deform_apply(F, u, w)))
    rows = tuple(tuple(cols[c][r] for c in range(size)) for r in range(size))
    return EndoMatrix(ctx, rows)


def generator_matrices(F: BilinearForm):
    """Representation matrices of the n generators e_1 .. e_n."""
    cctx = CliffordContext(quad_of_bilinear(F))
    return [rho_matrix(F, CliffElt.blade(cctx, (i,))) for i in range(1, F.ctx.dim + 1)]


def twist_matrix(A: BilinearForm) -> EndoMatrix:
    """Matrix of the deformation by an alternating form on the exterior
    algebra (an automorphism of the underlying space: the quadratic part
    of an alternating form vanishes)."""
    if not A.is_alternating():
        raise FormError("twist matrix needs an alternating form")
    ext = CliffordContext.exterior(A.ctx)
    size = 1 << A.ctx.dim
    cols = []
    for ci in range(size):
        w = CliffElt.blade(ext, index_subset(ci))
        cols.append(cliff_to_vec(deform(A, w, target=ext)))
    rows = tuple(tuple(cols[c][r] for c in range(size)) for r in range(size))
    return EndoMatrix(A.ctx, rows)


@dataclass
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


@dataclass
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
    rows_list = [_rows_of(m) for m in mats]
    n = len(basis[0])
    d = len(basis)
    bcols = [[basis[i][r] for i in range(d)] for r in range(n)]
    out = []
    for m in rows_list:
        mb = linalg.mat_mul(m, bcols)
        x = linalg.solve_matrix(bcols, mb)
        if x is None:
            raise FormError("span is not invariant under the given matrices")
        out.append(x)
    return out


def _min_poly(rows, field):
    """Monic minimal polynomial of a square matrix, ascending coeffs."""
    n = len(rows)
    power = linalg.identity(field, n)
    flats = []
    while True:
        flat = [v for row in power for v in row]
        k = len(flats)
        if flats:
            cols = [[flats[j][t] for j in range(k)] for t in range(len(flat))]
            a = linalg.solve(cols, flat)
            if a is not None:
                return [-v for v in a] + [field.one]
        flats.append(flat)
        power = linalg.mat_mul(power, rows)


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


def _poly_eval(coeffs, x: Scalar) -> Scalar:
    acc = x.field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_roots(coeffs, field):
    """Roots in the field of a polynomial with ascending coefficients.
    Over the rationals: complete via the rational root bound.  Over
    GF(p): brute force for small p."""
    if field.char:
        if field.char > 512:
            return []
        return [field(r) for r in range(field.char)
                if not _poly_eval(coeffs, field(r))]
    roots = []
    work = list(coeffs)
    while len(work) > 1 and not work[0]:
        roots.append(field.zero)
        work = work[1:]
    if len(work) <= 1:
        return sorted(set(roots), key=str)
    denom_lcm = 1
    for c in work:
        denom_lcm = denom_lcm * c.value.denominator // math.gcd(denom_lcm, c.value.denominator)
    ints = [int(c.value * denom_lcm) for c in work]
    a0, lead = ints[0], ints[-1]
    if abs(a0) > 10 ** 12 or abs(lead) > 10 ** 12:
        candidates = [Fraction(p, q) for p in range(-8, 9) for q in range(1, 5)]
    else:
        candidates = []
        for p in _int_divisors(a0):
            for q in _int_divisors(lead):
                candidates.append(Fraction(p, q))
                candidates.append(Fraction(-p, q))
    seen = set()
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        x = field(cand)
        if not _poly_eval(coeffs, x):
            roots.append(x)
    return sorted(set(roots), key=str)


def _intersect(ubasis, wbasis, field):
    """Basis of the intersection of two row spans."""
    n = len(ubasis[0])
    du, dw = len(ubasis), len(wbasis)
    rows = []
    for t in range(n):
        rows.append([ubasis[i][t] for i in range(du)] +
                    [-wbasis[j][t] for j in range(dw)])
    vecs = []
    for sol in linalg.nullspace(rows):
        vec = [field.zero] * n
        for i in range(du):
            if sol[i]:
                vec = [a + sol[i] * b for a, b in zip(vec, ubasis[i])]
        if any(vec):
            vecs.append(vec)
    return linalg.row_space_basis(vecs) if vecs else []


def invariant_probe(mats, seed: int) -> ProbeReport:
    """Heuristic search for common invariant subspaces.

    Closes under the matrices their own kernels, kernels and images of
    random algebra elements and cyclic spans of random vectors, and
    splits along eigenspaces of commutant elements (kernels of Y - mu
    for Y commuting with every matrix are invariant outright).  The
    kernels of the matrices need no randomness, so a singular one is
    always tried.  Records every proper nonzero common invariant
    subspace found, plus pairwise sums and intersections.

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
    rng = random.Random(seed)
    found = {}

    def rand_vec():
        while True:
            v = [field(rng.randint(-3, 3)) for _ in range(n)]
            if any(v):
                return v

    def close_under(vectors):
        basis = linalg.row_space_basis(vectors)
        while basis:
            imgs = []
            for m in rows_list:
                for v in basis:
                    imgs.append(linalg.mat_vec(m, v))
            bigger = linalg.row_space_basis(basis + imgs)
            if len(bigger) == len(basis):
                break
            basis = bigger
        return basis

    def record(vectors, close=True):
        if not vectors:
            return
        basis = close_under(vectors) if close else linalg.row_space_basis(vectors)
        if 0 < len(basis) < n:
            key = tuple(tuple(str(v) for v in row) for row in basis)
            found.setdefault(key, basis)

    def rand_algebra_elt():
        acc = linalg.zeros(field, n, n)
        for _ in range(rng.randint(1, 3)):
            prod = rng.choice(rows_list)
            for _ in range(rng.randint(0, 2)):
                prod = linalg.mat_mul(prod, rng.choice(rows_list))
            c = field(rng.choice((-2, -1, 1, 2)))
            acc = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, prod)]
        return acc

    # cyclic closures of random vectors, and random spans (these catch
    # small algebras; for rich algebras the closures fill up and drop out)
    for _ in range(6):
        record([rand_vec()])
    for k in range(2, n):
        record([rand_vec() for _ in range(k)])

    # kernels of the given matrices, then kernels and images of random
    # algebra elements (random ones are usually invertible)
    for m in rows_list:
        record(linalg.nullspace(m))
    for _ in range(8):
        y = rand_algebra_elt()
        ker = linalg.nullspace(y)
        if ker:
            record(ker)
            record([ker[0]])
        img = linalg.row_space_basis(linalg.transpose(y))
        if len(img) < n:
            record(img)

    # commutant eigenspaces: solve Y M_i = M_i Y exactly, then split
    # along rational eigenvalues of random commutant elements (skipped
    # for large matrices: the solve is n^2 unknowns)
    if n <= 12:
        eqs = []
        for m in rows_list:
            for r in range(n):
                for c in range(n):
                    row = [field.zero] * (n * n)
                    for s in range(n):
                        row[r * n + s] = row[r * n + s] + m[s][c]
                        row[s * n + c] = row[s * n + c] - m[r][s]
                    eqs.append(row)
        comm = linalg.nullspace(eqs)
        if len(comm) > 1:
            basis_mats = [[sol[r * n:(r + 1) * n] for r in range(n)] for sol in comm]
            for _ in range(min(8, 2 * len(basis_mats))):
                y = linalg.zeros(field, n, n)
                for bm in basis_mats:
                    c = field(rng.randint(-2, 2))
                    if c:
                        y = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(y, bm)]
                mp = _min_poly(y, field)
                for mu in _poly_roots(mp, field):
                    shifted = [[y[r][c] - (mu if r == c else field.zero)
                                for c in range(n)] for r in range(n)]
                    eig = linalg.nullspace(shifted)
                    if eig:
                        record(eig)

    # combine what was found: pairwise sums and intersections
    bases_now = list(found.values())
    for i in range(len(bases_now)):
        for j in range(i + 1, len(bases_now)):
            if len(found) > 80:
                break
            record(bases_now[i] + bases_now[j], close=False)
            record(_intersect(bases_now[i], bases_now[j], field), close=False)

    ordered = sorted(found.values(), key=lambda b: (len(b), [[str(v) for v in r] for r in b]))
    return ProbeReport(
        seed=seed,
        dims=tuple(len(b) for b in ordered),
        bases=tuple(tuple(tuple(r) for r in b) for b in ordered))

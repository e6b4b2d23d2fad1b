"""Release gate: eleven end-to-end criteria, one test per criterion.

Every check is exact (no tolerances anywhere in the package), and each
test prints a single ``criterion NN [...]: PASS`` or ``FAIL`` line so a
plain ``pytest -v`` run doubles as the acceptance report.  Criteria
with a wall-clock budget assert it at the end; the seeds are fixed so
reruns are bit-for-bit reproducible.
"""

import functools
import itertools
import math
import random
import time

from cliffbundle import (AlgebraContext, BilinearForm, CliffElt,
                         CliffordContext, Field, QuadraticForm, RATIONALS,
                         TensorElt, Vector, alt_of_dual, check_equivalence,
                         cliff_to_vec, clifford_contract_vec, contract, deform,
                         divided_power, exp_contract, generator_matrices,
                         index_subset, invariant_probe, left_mul, pfaffian,
                         quad_of_bilinear, quantize, quotient_map,
                         restrict_matrices, run_check, symbol, tensor_deform,
                         triangular_bilinear)
from cliffbundle.linalg import det, row_space_basis
from cliffbundle.sampling import (rand_alternating, rand_bilinear, rand_cliff,
                                  rand_dual_two_form, rand_linear_form,
                                  rand_quadratic, rand_scalar, rand_tensor,
                                  rand_vector)

from oracles import deform_word_pairs, quantize_perm_sum, raw_terms

FIELDS = (RATIONALS, Field(2), Field(7))


def criterion(num, label):
    """Emit one pass/fail line per criterion on top of the pytest verdict."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} [{label}]: FAIL")
                raise
            print(f"criterion {num:02d} [{label}]: PASS")

        return wrapper

    return deco


@criterion(1, "contraction antiderivation identities")
def test_c01_antiderivation_suite():
    """i_f i_f = 0, i_f i_g + i_g i_f = 0 and the anticommutator of a
    left multiplication with a contraction is the scalar f(x) -- 200
    random instances each per field, dimension up to 5, grade up to 6."""
    t0 = time.perf_counter()
    for field in FIELDS:
        rng = random.Random(101)
        for _ in range(200):
            ctx = AlgebraContext(rng.randint(1, 5), field)
            f = rand_linear_form(rng, ctx)
            g = rand_linear_form(rng, ctx)
            x = rand_vector(rng, ctx)
            u = rand_tensor(rng, ctx, max_grade=6)
            zero = TensorElt.zero(ctx)
            assert contract(f, contract(f, u)) == zero
            assert contract(f, contract(g, u)) + contract(g, contract(f, u)) == zero
            assert left_mul(x, contract(f, u)) + contract(f, left_mul(x, u)) == f(x) * u
    assert time.perf_counter() - t0 < 10.0


@criterion(2, "tensor deformation group law")
def test_c02_deformation_group_law():
    """Deforming by F then by G equals deforming by F + G, and F then -F
    is the identity -- 100 random (F, G, u) triples per field."""
    t0 = time.perf_counter()
    for field in FIELDS:
        rng = random.Random(202)
        ctx = AlgebraContext(4, field)
        for _ in range(100):
            F = rand_bilinear(rng, ctx)
            G = rand_bilinear(rng, ctx)
            u = rand_tensor(rng, ctx)
            assert tensor_deform(F, tensor_deform(G, u)) == tensor_deform(F + G, u)
            assert tensor_deform(F, tensor_deform(-F, u)) == u
    assert time.perf_counter() - t0 < 10.0


@criterion(3, "recursive deformation vs pairing-sum oracle")
def test_c03_deformation_pairing_oracle():
    """The recursive operator definition agrees term by term with the
    independent sum over disjoint position pairs, on every word of
    length <= 5 in dimension 3, for 50 random forms per field."""
    words = [w for length in range(6)
             for w in itertools.product((1, 2, 3), repeat=length)]
    for field in FIELDS:
        rng = random.Random(303)
        ctx = AlgebraContext(3, field)
        for _ in range(50):
            F = rand_bilinear(rng, ctx)
            for w in words:
                assert raw_terms(tensor_deform(F, TensorElt.from_word(ctx, w))) == \
                    deform_word_pairs(F, w)


def _grade8(rng, ctx):
    out = TensorElt.zero(ctx)
    for _ in range(2):
        word = tuple(rng.randint(1, ctx.dim) for _ in range(8))
        out = out + TensorElt.from_word(ctx, word, rand_scalar(rng, ctx.field))
    return out


@criterion(4, "divided powers of the contraction piece")
def test_c04_divided_powers():
    """Composing the k- and l-contraction pieces gives binomial(k+l, k)
    times the (k+l)-piece on grade-8 tensors; in characteristic 0 the
    exponential of the single-contraction piece is the whole map."""
    for field in FIELDS:
        rng = random.Random(404)
        ctx = AlgebraContext(4, field)
        for k in range(5):
            for l in range(5 - k):
                for _ in range(3):
                    F = rand_bilinear(rng, ctx)
                    u = _grade8(rng, ctx)
                    lhs = divided_power(F, k, divided_power(F, l, u))
                    rhs = field(math.comb(k + l, k)) * divided_power(F, k + l, u)
                    assert lhs == rhs
    rng = random.Random(405)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(10):
        F = rand_bilinear(rng, ctx)
        u = _grade8(rng, ctx)
        acc = u
        term = u
        for k in range(1, 5):  # grade 8 dies after four contractions
            term = divided_power(F, 1, term)
            acc = acc + (RATIONALS(1) / RATIONALS(math.factorial(k))) * term
        assert acc == tensor_deform(F, u)


@criterion(5, "pfaffian squares to the determinant")
def test_c05_pfaffian():
    """Pf(A)^2 = det(A) on 100 random alternating matrices per field
    (sizes cycling 2, 4, 6), and the grade-0 coefficient of the deformed
    full word e_1 ... e_2n is Pf(A)."""
    for field in (RATIONALS, Field(7)):
        rng = random.Random(505)
        sizes = itertools.cycle((2, 4, 6))
        for _ in range(100):
            A = rand_alternating(rng, AlgebraContext(next(sizes), field))
            assert pfaffian(A) * pfaffian(A) == det(A.matrix())
        for half in (1, 2, 3):
            ctx = AlgebraContext(2 * half, field)
            full_word = tuple(range(1, 2 * half + 1))
            for _ in range(5):
                A = rand_alternating(rng, ctx)
                deformed = tensor_deform(A, TensorElt.from_word(ctx, full_word))
                assert deformed.coeff(()) == pfaffian(A)


@criterion(6, "quotient map soundness")
def test_c06_quotient_soundness():
    """The quotient map is multiplicative, and deforming then reducing
    equals reducing then deforming across the shifted algebra -- 200
    random draws per field, dimension up to 4."""
    t0 = time.perf_counter()
    for field in FIELDS:
        rng = random.Random(606)
        for _ in range(200):
            ctx = AlgebraContext(rng.randint(1, 4), field)
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            u = rand_tensor(rng, ctx, max_grade=3)
            v = rand_tensor(rng, ctx, max_grade=3)
            assert quotient_map(cctx, u * v) == \
                quotient_map(cctx, u) * quotient_map(cctx, v)
            F = rand_bilinear(rng, ctx)
            w = rand_tensor(rng, ctx)
            lhs = quotient_map(cctx, tensor_deform(F, w))
            rhs = deform(F, quotient_map(cctx.shift(F), w), target=cctx)
            assert lhs == rhs
    assert time.perf_counter() - t0 < 30.0


# Deformation-identity suites that stay meaningful in characteristic 2
# (everything except the exponential and symbol/quantization layers).
_CHAR2_SUITE = (
    "tensor.contract-leftmul", "tensor.contract-nilpotent", "tensor.parity",
    "tensor.deform-contract-commute", "tensor.deform-expansion",
    "tensor.deform-graded-commute", "tensor.deform-grades",
    "tensor.deform-group-law", "tensor.divided-binomial",
    "tensor.divided-commute", "tensor.radical-composition",
    "clifford.contract-nilpotent", "clifford.contract-quotient",
    "clifford.quotient-hom", "clifford.quotient-squares",
    "involution.quotient", "interior.action",
    "bl.commutation-square", "bl.group-law",
    "bL.composition", "bL.homomorphism", "bL.square",
    "twist.associativity", "twist.transport", "twist.vector-case",
    "rho.homomorphism", "rho.square", "rho.unit-column",
    "rep.equivalence", "char2.bl-suite",
)


@criterion(7, "characteristic-2 coverage")
def test_c07_characteristic_two():
    """The triangular bilinear form reproduces its quadratic form on all
    2^n vectors for every form up to dimension 4 over GF(2), and the
    whole deformation-identity battery passes over GF(2)."""
    gf2 = Field(2)
    for n in range(1, 5):
        ctx = AlgebraContext(n, gf2)
        vectors = [Vector.make(ctx, bits)
                   for bits in itertools.product((0, 1), repeat=n)]
        for diag in itertools.product((0, 1), repeat=n):
            for flat in itertools.product((0, 1), repeat=n * (n - 1) // 2):
                it = iter(flat)
                upper = [[next(it) for _ in range(n - 1 - i)]
                         for i in range(n - 1)]
                q = QuadraticForm.make(ctx, diag, upper)
                F = triangular_bilinear(q)
                for x in vectors:
                    assert q(x) == F(x, x)
    for check_id in _CHAR2_SUITE:
        result = run_check(check_id, seed=707, samples=10, field="Fp:2")
        assert result.failed == 0 and result.passed == 10, check_id


@criterion(8, "gauge transformation by an alternating form")
def test_c08_gauge():
    """exp of the dual-two-form contraction equals the deformation by
    the matching alternating form (100 random draws, dimension 4 over
    the rationals), and it conjugates left multiplication by a vector
    into left multiplication plus contraction."""
    ctx = AlgebraContext(4, RATIONALS)
    rng = random.Random(808)
    for _ in range(100):
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        astar = rand_dual_two_form(rng, ctx)
        A = alt_of_dual(astar)
        w = rand_cliff(rng, cctx)
        assert exp_contract(astar, w) == deform(A, w, target=cctx)
        x = rand_vector(rng, ctx)
        xe = CliffElt.from_vector(cctx, x)
        lhs = exp_contract(astar, xe * exp_contract(-astar, w))
        rhs = xe * w + clifford_contract_vec(A, x, w)
        assert lhs == rhs


@criterion(9, "twisted representations are equivalent")
def test_c09_representation_equivalence():
    """For 50 random (F, A, a) with A alternating, the 16 x 16 matrix of
    a in the twisted representation equals the conjugate of its matrix
    in the untwisted one."""
    t0 = time.perf_counter()
    rng = random.Random(909)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(50):
        F = rand_bilinear(rng, ctx)
        A = rand_alternating(rng, ctx)
        a = rand_cliff(rng, CliffordContext(quad_of_bilinear(F)))
        report = check_equivalence(F, A, [a], seed=909)
        assert report.all_passed() and report.samples == 1
    assert time.perf_counter() - t0 < 60.0


@criterion(10, "symbol and quantization invert each other")
def test_c10_symbol_quantization():
    """Round trips on random elements, plus quantization of a wedge of
    up to four vectors against the explicit normalized permutation sum
    over the rationals."""
    for field in (RATIONALS, Field(7)):
        rng = random.Random(1010)
        ctx = AlgebraContext(4, field)
        for _ in range(50):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            w = rand_cliff(rng, cctx)
            assert quantize(cctx, symbol(w)) == w
    rng = random.Random(1011)
    ctx = AlgebraContext(4, RATIONALS)
    ext = CliffordContext.exterior(ctx)
    for k in range(1, 5):
        for _ in range(10):
            cctx = CliffordContext(rand_quadratic(rng, ctx))
            ys = [rand_vector(rng, ctx) for _ in range(k)]
            wedge = CliffElt.unit(ext)
            for y in ys:
                wedge = wedge * CliffElt.from_vector(ext, y)
            assert quantize(cctx, wedge) == quantize_perm_sum(cctx, ys)


@criterion(11, "reducibility witness on a twisted left ideal")
def test_c11_reducibility_witness():
    """A signature-(2,2) algebra twisted by a nonzero alternating form,
    acting on the transported 8-dimensional left ideal generated by the
    idempotent (1 + e1 e3)/2: the probe must exhibit a proper nonzero
    invariant subspace and report its basis along with the seed."""
    ctx = AlgebraContext(4, RATIONALS)
    g = BilinearForm.make(ctx, [[1, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, -1, 0], [0, 0, 0, -1]])
    A = BilinearForm.make(ctx, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                [0, 0, 0, 0], [0, 0, 0, 0]])
    assert A.is_alternating() and A != BilinearForm.zero(ctx)
    Fp = g + A
    cctx = CliffordContext(quad_of_bilinear(g))
    assert quad_of_bilinear(Fp) == cctx.quadratic  # the twist is vertical

    half = RATIONALS(1) / RATIONALS(2)
    f = half * (CliffElt.unit(cctx) + CliffElt.blade(cctx, (1, 3)))
    assert f * f == f

    # Transport the left ideal Cl.f into the exterior fiber.
    images = [cliff_to_vec(deform(Fp, CliffElt.blade(cctx, index_subset(k)) * f))
              for k in range(16)]
    basis = row_space_basis(images)
    assert len(basis) == 8

    mats = restrict_matrices(generator_matrices(Fp), basis)
    report = invariant_probe(mats, seed=1111)
    assert report.dims and all(0 < d < 8 for d in report.dims)
    assert not report.certifies_irreducibility
    for sub in report.bases:
        restrict_matrices(mats, sub)  # raises if not actually invariant

    data = report.to_json()
    assert data["seed"] == 1111
    assert data["subspaces"] and data["subspaces"][0]["basis"]

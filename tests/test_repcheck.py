"""Representation matrices, twist equivalence, restriction, and the
invariant-subspace probe."""

import gc
import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CapExceeded, CliffElt,
                         CliffordContext, EndoMatrix, Field, FieldMismatch, FormError,
                         RATIONALS, check_equivalence, cliff_to_vec, deform,
                         deform_apply, generator_matrices, index_subset, invariant_probe,
                         quad_of_bilinear, restrict_matrices, rho_matrix,
                         subset_index, twist_matrix, vec_to_cliff)
from cliffbundle import clifford, linalg
from cliffbundle.sampling import rand_alternating, rand_bilinear, rand_cliff, rand_quadratic

from oracles import (deform_sum, matmul_oracle, matrix_poly, pair_sum, powers_rank,
                     rational_roots, to_exterior, trial_divisors, word_sum)


def _mat(m):
    return [[str(v) for v in row] for row in m.entries]


def test_subset_indexing():
    assert subset_index(()) == 0
    assert subset_index((1,)) == 1
    assert subset_index((2,)) == 2
    assert subset_index((1, 2)) == 3
    assert subset_index((1, 3)) == 5
    # any iterable of indices is summed bit by bit
    assert subset_index((3, 1, 3)) == 5
    assert subset_index([2, 3]) == 6
    assert subset_index(iter((1, 4))) == 9
    assert subset_index(tuple(range(1, 15))) == (1 << 14) - 1
    for n in range(11):
        for k in range(1 << n):
            blade = index_subset(k)
            assert list(blade) == sorted(set(blade)) and subset_index(blade) == k
    # masks past 2^12, the most the memo keeps
    assert index_subset((1 << 40) | (1 << 12) | 5) == (1, 3, 13, 41)
    assert subset_index((1, 3, 13, 41)) == (1 << 40) | (1 << 12) | 5
    for m in (-1, -6):
        with pytest.raises(ValueError):
            index_subset(m)
    with pytest.raises(TypeError):
        subset_index((1.0, 2.0))


def test_rho_one_dimensional():
    # n = 1, Q(e1) = 1: the generator swaps the unit and e1 coordinates
    ctx = AlgebraContext(1, RATIONALS)
    F = BilinearForm.make(ctx, [[1]])
    cctx = CliffordContext(quad_of_bilinear(F))
    m = rho_matrix(F, CliffElt.blade(cctx, (1,)))
    assert _mat(m) == [["0", "1"], ["1", "0"]]


def test_rho_is_homomorphism():
    rng = random.Random(2)
    for field in (RATIONALS, Field(5)):
        ctx = AlgebraContext(3, field)
        for _ in range(10):
            F = rand_bilinear(rng, ctx)
            cctx = CliffordContext(quad_of_bilinear(F))
            u = rand_cliff(rng, cctx, terms=2)
            v = rand_cliff(rng, cctx, terms=2)
            assert rho_matrix(F, u * v) == rho_matrix(F, u) * rho_matrix(F, v)
            assert rho_matrix(F, CliffElt.unit(cctx)) == EndoMatrix.identity(ctx)


def test_rho_unit_column_is_deformation():
    from cliffbundle import deform
    rng = random.Random(4)
    ctx = AlgebraContext(3, RATIONALS)
    for _ in range(10):
        F = rand_bilinear(rng, ctx)
        cctx = CliffordContext(quad_of_bilinear(F))
        u = rand_cliff(rng, cctx)
        m = rho_matrix(F, u)
        assert [row[0] for row in m.entries] == cliff_to_vec(deform(F, u))


def test_rho_faithful_on_nonzero():
    rng = random.Random(6)
    ctx = AlgebraContext(3, RATIONALS)
    F = rand_bilinear(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    u = rand_cliff(rng, cctx)
    while not u:
        u = rand_cliff(rng, cctx)
    assert any(any(row) for row in rho_matrix(F, u).entries)


def test_rho_dimension_guard():
    n = 13
    ctx = AlgebraContext(n, RATIONALS)
    F = BilinearForm.zero(ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    with pytest.raises(CapExceeded):
        rho_matrix(F, CliffElt.unit(cctx))
    with pytest.raises(CapExceeded):
        generator_matrices(F)


def test_twist_dimension_guard():
    ctx = AlgebraContext(13, RATIONALS)
    with pytest.raises(CapExceeded):
        twist_matrix(rand_alternating(random.Random(13), ctx))


def test_rho_rejects_wrong_form():
    ctx = AlgebraContext(2, RATIONALS)
    F = BilinearForm.identity(ctx)
    from cliffbundle import QuadraticForm
    wrong = CliffordContext(QuadraticForm.zero(ctx))
    with pytest.raises(FormError):
        rho_matrix(F, CliffElt.unit(wrong))


@pytest.mark.parametrize("field", [RATIONALS, Field(7)], ids=lambda f: f.spec)
def test_rho_takes_its_source_rule_from_deform_apply(field):
    """rho_matrix(F, u) is deform_apply(F, u, .) on the exterior algebra,
    so it refuses u with deform_apply's FormError exactly when u does
    not live over 0 + Q_F: random forms, and the quadratic form of F
    shifted by one unit at a random entry."""
    rng = random.Random(f"rho/source/{field.spec}")
    ctx = AlgebraContext(3, field)
    ext = CliffordContext.exterior(ctx)
    for _ in range(6):
        F = rand_bilinear(rng, ctx)
        q = quad_of_bilinear(F)
        nums = list(q.nums)
        k = rng.choice([i * 3 + j for i in range(3) for j in range(i + 1)])
        nums[k] += q.den
        for source in (type(q).make(ctx, q.diag, q.upper), rand_quadratic(rng, ctx),
                       type(q)._made(ctx, nums, q.den)):
            u = rand_cliff(rng, CliffordContext(source))
            if source == q:
                column = [row[0] for row in rho_matrix(F, u).entries]
                assert column == cliff_to_vec(deform_apply(F, u, CliffElt.unit(ext)))
            else:
                with pytest.raises(FormError, match="^quadratic forms do not match"):
                    rho_matrix(F, u)


def test_twist_matrix_is_unipotent():
    # deformation by an alternating form is grade-filtration unipotent
    rng = random.Random(8)
    ctx = AlgebraContext(4, RATIONALS)
    for _ in range(5):
        A = rand_alternating(rng, ctx)
        M = twist_matrix(A)
        assert linalg.det(M.rows()) == RATIONALS.one
        d = M.size
        for c in range(d):
            col_subset = index_subset(c)
            for r in range(d):
                if M.entries[r][c]:
                    assert len(index_subset(r)) <= len(col_subset)
        assert M.entries[0][0] == RATIONALS.one


def test_check_equivalence_passes():
    rng = random.Random(10)
    ctx = AlgebraContext(3, RATIONALS)
    F = rand_bilinear(rng, ctx)
    A = rand_alternating(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    elts = [rand_cliff(rng, cctx, terms=2) for _ in range(5)]
    report = check_equivalence(F, A, elts, seed=99)
    assert report.all_passed()
    assert report.samples == 5
    assert report.passed == 5
    data = report.to_json()
    assert set(data) == {"identity", "samples", "failures", "seed"}
    assert data["seed"] == 99


def test_check_equivalence_zero_twist():
    # A = 0 gives the identity intertwiner
    rng = random.Random(11)
    ctx = AlgebraContext(3, RATIONALS)
    F = rand_bilinear(rng, ctx)
    A = BilinearForm.zero(ctx)
    assert twist_matrix(A) == EndoMatrix.identity(ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    report = check_equivalence(F, A, [rand_cliff(rng, cctx) for _ in range(3)])
    assert report.all_passed()


def test_check_equivalence_small_instance():
    ctx = AlgebraContext(2, RATIONALS)
    F = BilinearForm.identity(ctx)
    A = BilinearForm.make(ctx, [[0, 1], [-1, 0]])
    cctx = CliffordContext(quad_of_bilinear(F))
    a = CliffElt.blade(cctx, (1, 2))
    report = check_equivalence(F, A, [a])
    assert report.all_passed()


def test_check_equivalence_reports_first_differing_entry(monkeypatch):
    """With a twist matrix that does not intertwine, a failed sample
    names the first differing entry in row-major order."""
    from cliffbundle import repcheck
    ctx = AlgebraContext(2, RATIONALS)
    F = BilinearForm.identity(ctx)
    A = BilinearForm.make(ctx, [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
    cctx = CliffordContext(quad_of_bilinear(F))
    a = CliffElt.blade(cctx, (1,))
    wrong = rho_matrix(F, CliffElt.blade(cctx, (2,)))
    monkeypatch.setattr(repcheck, "twist_matrix", lambda A: wrong)
    report = check_equivalence(F, A, [CliffElt.unit(cctx), a])
    lhs, rhs = (rho_matrix(F + A, a) * wrong).entries, (wrong * rho_matrix(F, a)).entries
    r, c = next((r, c) for r in range(4) for c in range(4) if lhs[r][c] != rhs[r][c])
    assert report.failures == [{"sample": 1, "entry": [r, c],
                                "lhs": str(lhs[r][c]), "rhs": str(rhs[r][c])}]
    assert report.samples == 2 and report.passed == 1


def test_check_equivalence_needs_alternating():
    """A twist form that is not alternating is refused by twist_matrix's
    FormError, before the contexts are compared."""
    ctx = AlgebraContext(2, RATIONALS)
    for F in (BilinearForm.identity(ctx), BilinearForm.identity(AlgebraContext(3, RATIONALS))):
        with pytest.raises(FormError, match="^twist matrix needs an alternating form$"):
            check_equivalence(F, BilinearForm.identity(ctx), [])


def test_vec_cliff_round_trip():
    rng = random.Random(12)
    ctx = AlgebraContext(3, RATIONALS)
    from cliffbundle.sampling import rand_quadratic
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    for _ in range(10):
        w = rand_cliff(rng, cctx)
        assert vec_to_cliff(cctx, cliff_to_vec(w)) == w


def test_cliff_to_vec_never_raises_key_error():
    """cliff_to_vec reads the masks of an element's keys unchecked: a
    key that is not a blade is refused when the element is built, and
    one equal to a blade is stored as it."""
    cctx = CliffordContext.exterior(AlgebraContext(3, RATIONALS))
    c = cctx.coerce(2)
    for key in [(2, 1), (3, 3), (4,), (0,), (1.5,), "ab"]:
        with pytest.raises(FormError, match="must be a blade on e_1..e_3"):
            cliff_to_vec(CliffElt(cctx, {key: c}))
    assert cliff_to_vec(CliffElt(cctx, {(True, 3): c})) == [c if m == 5 else cctx.coerce(0)
                                                          for m in range(8)]


def test_restrict_matrices():
    # block matrix with invariant span of the first two coordinates
    F = RATIONALS
    m = [[F(1), F(2), F(0)], [F(3), F(4), F(0)], [F(0), F(0), F(5)]]
    basis = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    (restricted,) = restrict_matrices([m], basis)
    assert restricted == [[F(1), F(2)], [F(3), F(4)]]
    bad_basis = [[F(1), F(0), F(1)]]
    with pytest.raises(FormError):
        restrict_matrices([m], bad_basis)


def test_probe_finds_jordan_kernel():
    F = RATIONALS
    jordan = [[F(0), F(1)], [F(0), F(0)]]
    report = invariant_probe([jordan], seed=5)
    assert report.dims
    assert all(0 < d < 2 for d in report.dims)
    # the unique invariant line is spanned by e1
    line = report.bases[0]
    assert len(line) == 1
    assert line[0][1] == F.zero


def test_probe_on_scalar_matrices():
    # every subspace is invariant; the probe reports proper ones of
    # several dimensions
    ctx = AlgebraContext(2, RATIONALS)
    report = invariant_probe([EndoMatrix.identity(ctx)], seed=3)
    assert report.dims
    assert all(0 < d < 4 for d in report.dims)
    assert {1, 2, 3} <= set(report.dims)
    assert report.certifies_irreducibility is False


def test_probe_finds_nothing_for_full_algebra():
    # the elementary matrices generate everything: no proper nonzero
    # common invariant subspace exists, so the probe must return none
    F = RATIONALS
    mats = []
    for i in range(3):
        for j in range(3):
            m = [[F.zero] * 3 for _ in range(3)]
            m[i][j] = F.one
            mats.append(m)
    report = invariant_probe(mats, seed=2)
    assert report.dims == ()
    assert report.bases == ()


def test_probe_respects_invariance():
    # whatever the probe returns must actually be invariant
    rng = random.Random(14)
    ctx = AlgebraContext(3, RATIONALS)
    F = rand_bilinear(rng, ctx)
    mats = generator_matrices(F)
    report = invariant_probe(mats, seed=7)
    rows = [m.rows() for m in mats]
    for basis in report.bases:
        basis = [list(v) for v in basis]
        rank0 = len(linalg.row_space_basis(basis))
        images = [linalg.mat_vec(m, v) for m in rows for v in basis]
        assert len(linalg.row_space_basis(basis + images)) == rank0
    data = report.to_json()
    assert data["seed"] == 7
    for sub, basis in zip(data["subspaces"], report.bases):
        assert sub["dim"] == len(basis)
        assert sub["basis"]


def test_restrict_refuses_mixed_fields():
    """Matrices and a basis over different fields are refused before
    any work, not mixed inside the linear algebra."""
    F = generator_matrices(BilinearForm.make(AlgebraContext(2, RATIONALS), [[1, 2], [0, 1]]))
    gf7 = Field(7)
    basis = [[gf7(1), gf7(0), gf7(0), gf7(0)]]
    with pytest.raises(FieldMismatch, match="Q and Fp:7"):
        restrict_matrices(F, basis)
    Q = RATIONALS
    with pytest.raises(FieldMismatch, match="Q and Fp:7"):
        restrict_matrices([[[Q(1), Q(0)], [Q(0), Q(1)]], [[gf7(1), gf7(0)], [gf7(0), gf7(1)]]],
                          [[Q(1), Q(0)]])


def test_probe_refuses_mixed_fields():
    """A probe over matrices of two fields is refused, not computed mod p."""
    Q, gf7 = RATIONALS, Field(7)
    mats = [[[Q(0), Q(1)], [Q(0), Q(0)]], [[gf7(1), gf7(0)], [gf7(0), gf7(2)]]]
    with pytest.raises(FieldMismatch, match="Q and Fp:7"):
        invariant_probe(mats, seed=1)
    endo = EndoMatrix.identity(AlgebraContext(1, gf7))
    with pytest.raises(FieldMismatch, match="Fp:7 and Q"):
        invariant_probe([endo, mats[0]], seed=1)


def test_restrict_and_probe_refuse_a_mixed_matrix():
    """A matrix of Scalars whose entries mix fields, or hold a value that
    is not a Scalar, is refused by restrict_matrices and invariant_probe,
    wherever the odd entry sits, not computed in its first entry's field."""
    F7, F5 = Field(7), Field(5)
    mixed = [[F7(1), F5(3)], [F7(0), F7(1)]]
    plain = [[F7(1), 3], [F7(0), F7(1)]]
    basis = [[F7(1), F7(0)]]
    with pytest.raises(FieldMismatch, match=r"^scalar over Fp:5 used in a Fp:7 context$"):
        restrict_matrices([mixed], basis)
    with pytest.raises(FieldMismatch, match=r"^scalar over Fp:5 used in a Fp:7 context$"):
        restrict_matrices([[[F7(1), F7(0)], [F7(0), F7(1)]]], [[F7(1), F5(0)]])
    with pytest.raises(FieldMismatch, match=r"^scalar over Fp:5 used in a Fp:7 context$"):
        invariant_probe([mixed], seed=0)
    with pytest.raises(FormError, match="must be a Scalar, got 3"):
        restrict_matrices([plain], basis)
    with pytest.raises(FormError, match="must be a Scalar, got 3"):
        invariant_probe([plain], seed=0)
    with pytest.raises(FormError, match="must be a Scalar, got 3"):
        invariant_probe([[[3, F7(1)], [F7(0), F7(1)]]], seed=0)


def test_probe_needs_matrices():
    with pytest.raises(FormError):
        invariant_probe([], seed=0)


@pytest.mark.parametrize("mats", [[[]], [[[]]]], ids=["no-rows", "no-columns"])
def test_probe_refuses_empty_matrix(mats):
    with pytest.raises(FormError):
        invariant_probe(mats, seed=0)


def test_endo_matrix_json():
    ctx = AlgebraContext(1, Field(3))
    m = EndoMatrix.identity(ctx)
    assert m.to_json() == {"matrix": [["1", "0"], ["0", "1"]]}


def test_restrict_rejects_empty_basis():
    F = RATIONALS
    with pytest.raises(FormError, match="empty basis"):
        restrict_matrices([[[F(1), F(0)], [F(0), F(1)]]], [])


def test_restrict_rejects_vectors_of_another_length():
    """A basis vector shorter than the matrices' size is refused, not
    cut down to it: [1, 0] would pass as the invariant span of
    [1, 0, 0, 0], which is not invariant here."""
    F = RATIONALS
    m = EndoMatrix.from_rows(AlgebraContext(2, F),
                             [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(FormError, match="not invariant"):
        restrict_matrices([m], [[F(1), F(0), F(0), F(0)]])
    for basis in ([[F(1), F(0)]], [[F(1), F(0), F(0), F(0), F(0)]],
                  [[F(1), F(0), F(0), F(0)], [F(0), F(1)]]):
        with pytest.raises(FormError, match="square of the basis vectors' length"):
            restrict_matrices([m], basis)
    with pytest.raises(FormError, match="square"):
        restrict_matrices([[[F(1), F(0)]]], [[F(1), F(0)]])


def test_vec_to_cliff_rejects_other_lengths():
    """A coefficient column has exactly 2^n entries: a fifth entry at
    dim 2 would be the blade {3}, outside the space."""
    F = RATIONALS
    cctx = CliffordContext.exterior(AlgebraContext(2, F))
    for vec in ([F(1)] * 5, [F(1)] * 3, []):
        with pytest.raises(FormError, match="has length 4"):
            vec_to_cliff(cctx, vec)
    assert vec_to_cliff(cctx, [F(0), F(0), F(0), F(2)]) == CliffElt.blade(cctx, (1, 2), 2)


# ------------------------------------------------ matrix builders, pinned

PIN_FIELDS = [RATIONALS, Field(2), Field(3), Field(7)]
PIN_VALUES = [Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13), 2, -1, 0]


def _pin_inputs(field, n, seed):
    """A form F, an element u over Q_F, and an alternating form A, with
    entries drawn from PIN_VALUES (rationals) or all residues."""
    rng = random.Random(f"pin/{field.spec}/{n}/{seed}")
    ctx = AlgebraContext(n, field)

    def value():
        return rng.choice(PIN_VALUES) if field.char == 0 else rng.randrange(field.char)

    F = BilinearForm.make(ctx, [[value() for _ in range(n)] for _ in range(n)])
    upper = [[value() for _ in range(n)] for _ in range(n)]
    A = BilinearForm.make(ctx, [[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                 for j in range(n)] for i in range(n)])
    blades = {index_subset(rng.randrange(1 << n)) for _ in range(4)}
    u = CliffElt(CliffordContext(quad_of_bilinear(F)),
                 {b: field(value() or 1) for b in sorted(blades)})
    return ctx, F, u, A


def _column(m, c):
    return [row[c] for row in m.entries]


@pytest.mark.parametrize("field", PIN_FIELDS, ids=lambda f: f.spec)
def test_builders_match_column_definitions(field):
    for n in range(1, 6):
        ctx, F, u, A = _pin_inputs(field, n, 0)
        ext = CliffordContext.exterior(ctx)
        rho, twist = rho_matrix(F, u), twist_matrix(A)
        for c in range(1 << n):
            e_s = CliffElt.blade(ext, index_subset(c))
            assert _column(rho, c) == cliff_to_vec(deform_apply(F, u, e_s))
            assert _column(twist, c) == cliff_to_vec(deform(A, e_s, target=ext))
        qf = CliffordContext(quad_of_bilinear(F))
        assert generator_matrices(F) == [rho_matrix(F, CliffElt.blade(qf, (i,)))
                                         for i in range(1, n + 1)]


@pytest.mark.parametrize("field", PIN_FIELDS, ids=lambda f: f.spec)
def test_builders_match_oracles(field):
    # the independent oracles: deformation by pair contractions, and
    # the operator form as deform(F, u * deform(-F, e_S))
    for n in range(1, 4):
        ctx, F, u, A = _pin_inputs(field, n, 1)
        ext = CliffordContext.exterior(ctx)
        zero_q = ext.quadratic
        qf = quad_of_bilinear(F)
        rho, twist = rho_matrix(F, u), twist_matrix(A)
        for c in range(1 << n):
            blade = index_subset(c)
            col = deform_sum(A, zero_q, {blade: field.one})
            assert _column(twist, c) == cliff_to_vec(CliffElt(ext, col))
            back = deform_sum(-F, qf, {blade: field.one})
            prod = word_sum(qf, [(a + b, x * y) for a, x in u.terms.items()
                                 for b, y in back.items()])
            col = deform_sum(F, zero_q, prod)
            assert _column(rho, c) == cliff_to_vec(CliffElt(ext, col))


@pytest.mark.parametrize("field", PIN_FIELDS, ids=lambda f: f.spec)
def test_twist_group_law(field):
    """twist(-A) is the inverse of twist(A): deformations compose by
    adding their forms."""
    rng = random.Random(f"group/{field.spec}")
    values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    for n in range(1, 7):
        ctx = AlgebraContext(n, field)
        upper = [[rng.choice(values) if field.char == 0 else rng.randrange(field.char)
                  for _ in range(n)] for _ in range(n)]
        A = BilinearForm.make(ctx, [[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                     for j in range(n)] for i in range(n)])
        assert twist_matrix(A) * twist_matrix(-A) == EndoMatrix.identity(ctx)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# SHA-256 of the builders' JSON for _pin_inputs(field, n, 2), n = 1..5,
# recorded from the per-column construction (one deform_apply or deform
# call per column, Scalar elimination in the probe)
BUILDER_DIGESTS = {
    "Q": "6e7dec83f7945bc365a946d49c9da4579e07622c0b39c1539a95aff8d6f96c66",
    "Fp:2": "8c8a0f57667a16479ad0a3904890eac49a79ae2b18fa3292283aa37ea13d79fb",
    "Fp:3": "5dfe3f489cd77d7e66b0566a19ee2050385b5a8abc01d3e179b535db91286cb8",
    "Fp:7": "194b4a2f23015fbd9f27ba766e04a3653f70dfec7520e56b3491b5b72d1ebcbc",
}


def _builder_json(field):
    out = []
    for n in range(1, 6):
        _, F, u, A = _pin_inputs(field, n, 2)
        out.append([rho_matrix(F, u).to_json(), twist_matrix(A).to_json(),
                    [m.to_json() for m in generator_matrices(F)]])
    return out


@pytest.mark.parametrize("field", PIN_FIELDS, ids=lambda f: f.spec)
def test_builder_digests(field):
    assert _digest(_builder_json(field)) == BUILDER_DIGESTS[field.spec]


def _probe_json(case):
    spec, seed, *dim = case.split("/")
    field, n = Field.from_spec(spec), int(dim[0]) if dim else 3
    _, F, _, _ = _pin_inputs(field, n, int(seed))
    rows = [list(r) for r in F.rows]
    for j in range(n):
        rows[0][j] = rows[j][0] = field.zero
    mats = generator_matrices(BilinearForm.make(F.ctx, rows))
    report = invariant_probe(mats, int(seed))
    restricted = [[[[str(v) for v in row] for row in m]
                   for m in restrict_matrices(mats, [list(v) for v in basis])]
                  for basis in report.bases]
    return [report.to_json(), restricted]


# SHA-256 of invariant_probe(generator_matrices(F), seed).to_json(), with
# e_1 pushed into the radical of F as in rep.invariant-lattice, and of
# the restrictions to what it reports; recorded as above.  A case is
# "field/seed" at dim 3 or "field/seed/dim"; the cases over GF(2),
# GF(3), GF(2^61 - 1) and at dim 4 were recorded from the probe on
# Fraction rows (rational candidates evaluated by Horner, one solve
# per power in the minimal polynomial)
PROBE_DIGESTS = {
    "Q/0": "d1e05747967f47049d1c69e9d53ea67eb67e45c97cf825957f09442292a8b4a3",
    "Q/1": "767deefb8977c0d1c8240acb20330b6fecd7e337e2799807cd28b02b378a96d1",
    "Q/3": "aeff0b8aad00b4783fbb7f132a29eb495e847ebf4d19525ba30f87ef248ec313",
    "Fp:7/0": "f2c468a8192dec57e00b8ba261b273a6a876f99dd633aa3213607a9894f36f32",
    "Fp:7/1": "ce74c3878cbcfb065054190afc951a549d072b6ccf444aabbbef05aa9ad5c2d6",
    "Fp:7/3": "548e7013030cc3a92efeae1f53376cd2e2c0b6164a115492e82068902c33bbc5",
    "Fp:2/0": "c7e8176cdc7ba7635b4dfa74185211b621cc4dfc59a72542fcd7cfa1ff103078",
    "Fp:2/1": "a511148750201b76914e124277805e79574758b28a387011fb731ba82e38a570",
    "Fp:3/0": "e86e4077cab02418a00cd8219141e7aaeefd2753d2d9e53eb040c364732511d7",
    "Fp:3/1": "14e0fbd0825019faba5513717af40dde38f585f632da22837496def103793b82",
    "Fp:2305843009213693951/0":
        "192e7c41dae138dc7630ab003dc241b74757e2852e381802ddfeb7026877db81",
    "Fp:2305843009213693951/1":
        "44bfed0ef9cbb20109bb1af4629cc41ca584b32fd5fcd86664e2816f77bcdde7",
    "Q/0/4": "763f348120b954e03f803f18faedab1b805911882d69b8a78e93f039805adb16",
    "Q/1/4": "464bcf222aca36f161155e209da9c2ecfce726b257f385498aa8c33592bd8a0b",
    "Fp:7/0/4": "7c170554ab23bf1c3ea23aaa5efe90c6a7afdb38e06aace8b5120419378cbd0c",
    "Fp:7/1/4": "16dd1920afb3a2214674f33a8d8bc3ffd7d6cb3f98cb94201c7966e0a1b18528",
}


@pytest.mark.parametrize("case", sorted(PROBE_DIGESTS))
def test_probe_digests(case):
    assert _digest(_probe_json(case)) == PROBE_DIGESTS[case]


# ------------------------------------------------ the probe's polynomials, oracles

POLY_PRIMES = [0, 2, 7, (1 << 61) - 1]


def _blocks(*blocks):
    """The block-diagonal matrix of the given square blocks."""
    n = sum(map(len, blocks))
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for r, row in enumerate(b):
            out[at + r][at:at + len(row)] = row
        at += len(b)
    return out


def _jordan(lam, k):
    return [[lam if r == c else int(c == r + 1) for c in range(k)] for r in range(k)]


def _poly_matrices(p):
    """(integer rows, den) pairs: scalar, nilpotent, derogatory
    block-diagonal and random matrices, over Q with denominators."""
    rng = random.Random(f"minpoly/{p}")
    cases = [([[3, 0, 0], [0, 3, 0], [0, 0, 3]], 1), ([[0]], 1), (_jordan(0, 4), 1),
             (_blocks(_jordan(2, 2), [[2]], _jordan(5, 2), [[5]]), 1),
             (_blocks(_jordan(1, 3), _jordan(1, 1), [[0]]), 1),
             ([[1, 2], [3, 4]], 7 if not p else 1)]
    for n in (2, 3, 5, 8):
        for _ in range(3):
            rows = [[rng.randint(-4, 4) if p == 0 else rng.randrange(p) for _ in range(n)]
                    for _ in range(n)]
            if n > 2 and rng.random() < 0.5:  # a repeated block: derogatory
                block = [r[:2] for r in rows[:2]]
                rows = _blocks(block, block, [[rng.randint(0, 1)]])
            cases.append((rows, rng.choice((1, 2, 6)) if p == 0 else 1))
    return cases


@pytest.mark.parametrize("p", POLY_PRIMES, ids=lambda p: Field(p).spec)
def test_min_poly_matches_oracle(p):
    """_min_poly(rows, den, p) is monic, kills rows / den, and no monic
    polynomial of lower degree does (the lower powers are independent)."""
    from cliffbundle.repcheck import _min_poly
    for rows, den in _poly_matrices(p):
        a = [[Fraction(x, den) if den != 1 else x % p if p else x for x in row] for row in rows]
        coeffs = _min_poly(rows, den, p)
        d = len(coeffs) - 1
        assert coeffs[-1] == 1
        assert all(x == 0 for row in matrix_poly(coeffs, a, p) for x in row)
        assert powers_rank(a, d, p) == d
    # known answers: (x - 3), x, x^4, (x - 2)^2 (x - 5)^2, (x - 1)^3 x
    known = [[-3, 1], [0, 1], [0, 0, 0, 0, 1], [100, -140, 69, -14, 1], [0, -1, 3, -3, 1]]
    for (rows, den), want in zip(_poly_matrices(p), known):
        assert _min_poly(rows, den, p) == [x % p if p else x for x in want]


def _times_linear(coeffs, r):
    """coeffs times (x - r), ascending."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= r * c
        out[i + 1] += c
    return out


def _poly_cases():
    """Polynomials with known rational roots and irreducible factors, with
    the scaled constant and leading coefficients on both sides of 10^12."""
    rng = random.Random("roots")
    big = 10 ** 12
    out = []
    for extra in ([1], [1, 0, 1], [-2, 0, 1], [big - 1, 0, 1], [big + 1, 1, 0, 1],
                  [999985999949, 1, 0, 0, 1], [1, 1, 1]):
        for scale in (1, Fraction(1, 3), Fraction(-7, 2), big, Fraction(1, big + 7)):
            coeffs = [Fraction(scale) * c for c in extra]
            for _ in range(rng.randint(0, 3)):
                coeffs = _times_linear(coeffs, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            if rng.random() < 0.3:
                coeffs = _times_linear(coeffs, 0)
            out.append(coeffs)
    # a root that only a divisor near 10^6 of a semiprime constant gives
    out.append(_times_linear([1000003, 1, 1], 999983))
    out.append(_times_linear([1000003, 0, 0, 1], -999983))
    return out


@pytest.mark.parametrize("p", [0, 2, 7, 509, 521], ids=lambda p: Field(p).spec)
def test_poly_roots_match_oracle(p):
    """_poly_roots against Fraction (or residue) evaluation of every
    candidate the docstring names, on both sides of the 10^12 cutoff."""
    from cliffbundle.repcheck import _poly_roots
    for coeffs in _poly_cases():
        if p:
            if any(Fraction(c).denominator % p == 0 for c in coeffs):
                continue
            coeffs = [c.numerator * pow(c.denominator, -1, p) % p for c in map(Fraction, coeffs)]
        got = _poly_roots(coeffs, p)
        assert got == rational_roots(coeffs, p)
        assert all(type(r) in (int, Fraction) for r in got)
    assert _poly_roots(_times_linear([1000003, 1, 1], 999983), 0) == [999983]


def test_int_divisors_are_the_bounded_enumeration():
    """_int_divisors(m, bound), which trial-divides only up to
    min(bound, sqrt m), is the unbounded enumeration cut at bound,
    for a semiprime near 10^12 too."""
    from cliffbundle.repcheck import _int_divisors
    semi = 999983 * 1000003
    assert all(999983 % d and 1000003 % d for d in range(2, 1001))  # both prime
    rng = random.Random("divisors")
    ms = [1, 2, 12, 360, 997, 2 ** 20, 6 ** 9, semi] + [rng.randint(1, 10 ** 7) for _ in range(20)]
    for m in ms:
        full = trial_divisors(m)
        for bound in (1, 2, 10, 999, 999983, 1000003, 10 ** 13):
            assert _int_divisors(m, bound) == [d for d in full if d <= bound]
            assert _int_divisors(-m, bound) == _int_divisors(m, bound)
    assert _int_divisors(semi, 10 ** 5) == [1]


def test_root_bound_bounds_every_root():
    """_root_bound is above every root's size: the rational roots of
    products of linear factors, and sqrt(c) for x^2 + c."""
    from cliffbundle.repcheck import _root_bound
    rng = random.Random("bound")
    for _ in range(200):
        roots = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 5))]
        coeffs = [rng.randint(1, 9)]
        for r in roots:
            coeffs = _times_linear(coeffs, r)
        if not coeffs[0]:
            continue
        bound = _root_bound(coeffs)
        assert all(abs(r) < bound for r in roots)
        # the reverse polynomial's roots are the 1/r
        assert _root_bound(coeffs[::-1]) * min(abs(r) for r in roots) > 1
    for c in (1, 2, 10 ** 12, 999985999949):
        assert _root_bound([c, 0, 1]) ** 2 > c


# ------------------------------------------------ sparse columns, oracles

ORACLE_FIELDS = [RATIONALS, Field(2), Field(7)]


def _raw_form(F):
    return [[x.value for x in row] for row in F.rows]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec)
def test_rho_columns_match_pair_sum(field):
    """Column S of rho_matrix(F, u) is the tensor deformation operator
    of F at u applied to the word S, pushed to the exterior algebra."""
    p = field.char
    for n in range(1, 5):
        ctx, F, u, _ = _pin_inputs(field, n, 3)
        raw_u = {b: c.value for b, c in u.terms.items()}
        m = rho_matrix(F, u)
        for c in range(1 << n):
            col = to_exterior(pair_sum(_raw_form(F), p, raw_u, {index_subset(c): 1}), p)
            assert {index_subset(r): x.value for r, x in enumerate(_column(m, c)) if x} == col


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec)
def test_endo_products_match_matmul_oracle(field):
    p = field.char
    for n in range(1, 5):
        _, F, u, A = _pin_inputs(field, n, 4)
        mats = [rho_matrix(F, u), twist_matrix(A), *generator_matrices(F),
                rho_matrix(F, CliffElt.zero(u.cctx))]
        for a in mats:
            for b in mats[:3]:
                raw = [[[x.value for x in row] for row in m.entries] for m in (a, b)]
                want = matmul_oracle(*raw, p)
                assert [[x.value for x in row] for row in (a * b).entries] == want


@pytest.mark.parametrize("field", PIN_FIELDS, ids=lambda f: f.spec)
def test_endo_matrix_views_agree_with_from_rows(field):
    """entries, rows(), ==, hash, to_json and the fields of a built
    matrix agree with the same matrix read back from its rows, and one
    changed entry makes it unequal; rows of plain numbers are stored
    over their common denominator, or as residues."""
    for n in range(1, 4):
        ctx, F, u, A = _pin_inputs(field, n, 5)
        for m in (rho_matrix(F, u), twist_matrix(A), rho_matrix(F, CliffElt.zero(u.cctx)),
                  EndoMatrix.identity(ctx)):
            back = EndoMatrix.from_rows(ctx, m.rows())
            assert back == m and hash(back) == hash(m)
            assert back.entries == m.entries and back.rows() == m.rows()
            assert back.to_json() == m.to_json()
            assert (back.cols, back.den) == (m.cols, m.den)
            rows = m.rows()
            rows[0][-1] = rows[0][-1] + field.one
            assert EndoMatrix.from_rows(ctx, rows) != m
        plain = [[Fraction(r - c, 3) if field.char == 0 else (r * c) % field.char
                  for c in range(1 << n)] for r in range(1 << n)]
        m = EndoMatrix.from_rows(ctx, plain)
        assert m.rows() == [[field(x) for x in row] for row in plain]
        assert m.den == (3 if field.char == 0 else 1)
        if field.char:
            assert all(0 < x < field.char for col in m.cols for _, x in col)
    with pytest.raises(FormError):
        EndoMatrix.from_rows(AlgebraContext(1, RATIONALS), [[1, 0], [0]])


def test_dense_product_memory():
    """A dense n = 8 product over GF(7) keeps the chain of its walk over
    the high parts of u's blades and 2^k accumulators, k = 4 (see
    clifford._packed_sum): its traced peak stays under 1 MiB, and with
    gc off what is still allocated after the call is within twice the
    result's own size, so no reference cycle outlives it.  A first call keeps its carrier's
    constants (clifford._kept), which the measured call then reuses."""
    rng = random.Random(8)
    ctx = AlgebraContext(8, Field(7))
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u, v = ((CliffElt(cctx, {index_subset(m): ctx.field(rng.randrange(1, 7))
                             for m in range(1 << 8)})) for _ in range(2))
    u * v
    gc.disable()
    try:
        tracemalloc.start()
        w = u * v
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        gc.enable()
    own = sys.getsizeof(w.terms) + sum(map(sys.getsizeof, w.terms.values()))
    assert peak < 1 << 20
    assert after <= 2 * own


def test_dense_product_memory_at_n10():
    """A dense n = 10 product over GF(7) runs on packed slots: at most
    the chain of n - k + 1 packed maps, 2^k accumulators (k = 5) and the
    call's parity masks are alive at once, so its traced peak stays
    under 2 MiB."""
    rng = random.Random(10)
    ctx = AlgebraContext(10, Field(7))
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u, v = ((CliffElt(cctx, {index_subset(m): ctx.field(rng.randrange(1, 7))
                             for m in range(1 << 10)})) for _ in range(2))
    tracemalloc.start()
    try:
        u * v
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_dense_product_memory_at_n12():
    """A dense n = 12 product over GF(7) holds at most the chain of
    n - k + 1 = 7 packed maps and 2^k = 64 accumulators at once (see
    clifford._packed_sum), 71 maps of 4,096 slots: its traced peak
    stays under 6 MiB (5.2 MiB measured; 2.6 MiB for the unsplit walk's
    one chain, 25.7 MiB with k = 9)."""
    rng = random.Random(12)
    ctx = AlgebraContext(12, Field(7))
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u, v = ((CliffElt._of(cctx, {m: rng.randrange(1, 7) for m in range(1 << 12)}))
            for _ in range(2))
    u * v
    tracemalloc.start()
    try:
        u * v
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_dense_deform_memory_at_n10():
    """A dense n = 10 deform over GF(7) runs its pair passes on packed
    slots: the running pair, one lowered pair and the call's parity
    masks are alive at once, so its traced peak stays under 1 MiB."""
    rng = random.Random(10)
    ctx = AlgebraContext(10, Field(7))
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    w = CliffElt(cctx, {index_subset(m): ctx.field(rng.randrange(1, 7)) for m in range(1 << 10)})
    tracemalloc.start()
    try:
        deform(F, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_deform_memory_at_n14(monkeypatch):
    """A dense n = 14 deform over GF(7) sizes its carrier from max|w|:
    W = 40 bits (56 from sum |w|), a traced peak under 5.2 MiB (4.22
    MiB measured, 5.15 at W = 56).  When the pair passes end, only the
    2n parity masks, H, the running map and the lowered one are alive,
    at most 2n + 3 carriers of 2^n W bits (29.9 measured; the test
    allows one more), so it keeps no list of the n images of H (43.8
    carriers with one)."""
    rng = random.Random(14)
    n = 14
    ctx = AlgebraContext(n, Field(7))
    w = CliffElt._of(CliffordContext.exterior(ctx),
                     {m: rng.randrange(1, 7) for m in range(1 << n)})
    A = BilinearForm.make(ctx, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
    unpack, seen = clifford._unpack, []

    def unpack_seen(X, n, width, H):
        seen.append((tracemalloc.get_traced_memory()[0], width))
        return unpack(X, n, width, H)

    monkeypatch.setattr(clifford, "_unpack", unpack_seen)
    tracemalloc.start()
    try:
        deform(A, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (alive, width), = seen
    assert width == 5
    assert peak < 5.2 * (1 << 20)
    assert alive < (2 * n + 4) * width << n

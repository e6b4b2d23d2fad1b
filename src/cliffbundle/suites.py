"""The named identity suites, registered with checks.py by id.

checks.py loads this module the first time the registry is read, so a
process that runs no suite never compiles it.  Each suite draws seeded
random instances, verifies exact identities, and tallies one attempt
per sample; a failed sample records which sub-identity broke.
"""

from __future__ import annotations

import math
from itertools import permutations

from . import linalg
from .checks import check
from .clifford import (CliffElt, CliffordContext, DualElt, contract as cl_contract,
                       contract_vec as cl_contract_vec, deform, deform_apply,
                       exp_contract, interior, quantize, quotient_map, symbol,
                       twisted_mul)
from .errors import CharacteristicError
from .forms import (AlgebraContext, BilinearForm, QuadraticForm, Vector,
                    alt_of_dual, dual_two_form, pfaffian, polar_form,
                    quad_of_bilinear, right_radical, split_sym_alt,
                    triangular_bilinear)
from .repcheck import (EndoMatrix, check_equivalence, cliff_to_vec, generator_matrices,
                       invariant_probe, rho_matrix, twist_matrix)
from .sampling import (rand_alternating, rand_bilinear, rand_blade, rand_cliff,
                       rand_dual_two_form, rand_linear_form, rand_quadratic,
                       rand_scalar, rand_symmetric, rand_tensor, rand_vector)
from .scalars import Field
from .tensor import (TensorElt, contract, deform as t_deform,
                     deform_apply as t_deform_apply, divided_power, left_mul)


def _collect():
    bad = []

    def need(ok: bool, msg: str) -> bool:
        if not ok:
            bad.append(msg)
        return ok

    return bad, need


# ---------------------------------------------------------------- scalars


@check("scalars.field-axioms")
def _scalars_axioms(rng, samples, field, dim, t):
    for _ in range(samples):
        bad, need = _collect()
        a = rand_scalar(rng, field)
        b = rand_scalar(rng, field)
        c = rand_scalar(rng, field)
        need((a + b) + c == a + (b + c), f"add assoc {a},{b},{c}")
        need(a * b == b * a, f"mul comm {a},{b}")
        need(a * (b + c) == a * b + a * c, f"distrib {a},{b},{c}")
        need(a - a == field.zero, f"sub self {a}")
        nz = rand_scalar(rng, field, nonzero=True)
        need(nz * nz.inverse() == field.one, f"inverse {nz}")
        t.sample(bad)


@check("scalars.parse-print")
def _scalars_parse(rng, samples, field, dim, t):
    for _ in range(samples):
        bad, need = _collect()
        a = rand_scalar(rng, field, span=40)
        need(field.parse(str(a)) == a, f"round trip {a}")
        t.sample(bad)


@check("scalars.fermat", field="Fp:7")
def _scalars_fermat(rng, samples, field, dim, t):
    p = field.char if field.char else 7
    fld = Field(p)
    for _ in range(samples):
        bad, need = _collect()
        a = rand_scalar(rng, fld)
        need(a ** p == a, f"a^p != a for {a} mod {p}")
        t.sample(bad)


# ------------------------------------------------------------------ forms


@check("forms.polar-quadratic")
def _forms_polar(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        q = rand_quadratic(rng, ctx)
        x = rand_vector(rng, ctx)
        y = rand_vector(rng, ctx)
        need(polar_form(q)(x, y) == q(x + y) - q(x) - q(y), "polar value mismatch")
        t.sample(bad)


@check("forms.bilinear-quadratic")
def _forms_bq(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        f = rand_bilinear(rng, ctx)
        q = quad_of_bilinear(f)
        x = rand_vector(rng, ctx)
        need(q(x) == f(x, x), "Q_F(x) != F(x,x)")
        t.sample(bad)


@check("forms.char2-form", field="Fp:2")
def _forms_char2(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        q = rand_quadratic(rng, ctx)
        f = triangular_bilinear(q)
        need(quad_of_bilinear(f) == q, "triangular form does not rebuild Q")
        if field.char == 2 and dim <= 4:
            for bits in range(1 << dim):
                x = Vector.make(ctx, [(bits >> i) & 1 for i in range(dim)])
                need(q(x) == f(x, x), f"mismatch at vector bits {bits}")
        t.sample(bad)


@check("forms.pfaffian-det")
def _forms_pf(rng, samples, field, dim, t):
    for i in range(samples):
        bad, need = _collect()
        n = (2, 4, 6)[i % 3]
        ctx = AlgebraContext(n, field)
        a = rand_alternating(rng, ctx)
        need(pfaffian(a) * pfaffian(a) == linalg.det(a.matrix()),
             f"Pf^2 != det at size {n}")
        t.sample(bad)


@check("forms.split-unique")
def _forms_split(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        f = rand_bilinear(rng, ctx)
        g, a = split_sym_alt(f)
        need(g.is_symmetric(), "g not symmetric")
        need(a.is_alternating(), "A not alternating")
        need(g + a == f, "g + A != F")
        g2, a2 = split_sym_alt(g)
        need(g2 == g and not any(any(r) for r in a2.rows), "resplit not (g, 0)")
        t.sample(bad)


@check("forms.dual-roundtrip")
def _forms_dual(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        a = rand_alternating(rng, ctx)
        need(alt_of_dual(dual_two_form(a)) == a, "dual round trip failed")
        t.sample(bad)


# ----------------------------------------------------------------- tensor


@check("tensor.contract-nilpotent")
def _tensor_nilp(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        f = rand_linear_form(rng, ctx)
        g = rand_linear_form(rng, ctx)
        u = rand_tensor(rng, ctx)
        need(not contract(f, contract(f, u)), "i_f i_f != 0")
        need(contract(f, contract(g, u)) + contract(g, contract(f, u))
             == TensorElt.zero(ctx), "i_f i_g + i_g i_f != 0")
        t.sample(bad)


@check("tensor.contract-leftmul")
def _tensor_leftmul(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        f = rand_linear_form(rng, ctx)
        x = rand_vector(rng, ctx)
        u = rand_tensor(rng, ctx)
        lhs = left_mul(x, contract(f, u)) + contract(f, left_mul(x, u))
        need(lhs == f(x) * u, "e_x i_f + i_f e_x != f(x) Id")
        t.sample(bad)


@check("tensor.deform-graded-commute")
def _tensor_graded(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        f = rand_linear_form(rng, ctx)
        p = rng.randint(0, 3)
        word = tuple(rng.randint(1, dim) for _ in range(p))
        u = TensorElt.from_word(ctx, word, rand_scalar(rng, field))
        v = rand_tensor(rng, ctx)
        lhs = contract(f, t_deform_apply(F, u, v))
        rhs = t_deform_apply(F, contract(f, u), v)
        tail = t_deform_apply(F, u, contract(f, v))
        rhs = rhs + tail if p % 2 == 0 else rhs - tail
        need(lhs == rhs, "graded commutation with contraction failed")
        t.sample(bad)


@check("tensor.deform-group-law")
def _tensor_group(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        G = rand_bilinear(rng, ctx)
        u = rand_tensor(rng, ctx)
        need(t_deform(F, t_deform(G, u)) == t_deform(F + G, u),
             "composition of deformations != deformation of the sum")
        need(t_deform(F, t_deform(-F, u)) == u, "deform(-F) does not invert")
        t.sample(bad)


@check("tensor.deform-contract-commute")
def _tensor_dcc(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        f = rand_linear_form(rng, ctx)
        u = rand_tensor(rng, ctx)
        need(contract(f, t_deform(F, u)) == t_deform(F, contract(f, u)),
             "deformation does not commute with contraction")
        t.sample(bad)


def _zero_columns(rng, G, dim, field):
    """Zero out some columns so the right radical is nontrivial."""
    cols = rng.sample(range(dim), rng.randint(1, max(1, dim // 2)))
    rows = [list(r) for r in G.rows]
    for j in cols:
        for i in range(dim):
            rows[i][j] = field.zero
    return BilinearForm.make(G.ctx, rows)


def _radical_word(rng, ctx, rad, max_factors=2):
    w = TensorElt.unit(ctx)
    for _ in range(rng.randint(0, max_factors)):
        vec = Vector.zero(ctx)
        for r in rad:
            vec = vec + rand_scalar(rng, ctx.field) * r
        w = w * TensorElt.from_vector(vec)
    return w


@check("tensor.radical-composition")
def _tensor_radical(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        G = _zero_columns(rng, rand_bilinear(rng, ctx), dim, field)
        rad = right_radical(G)
        if not need(bool(rad), "radical unexpectedly empty"):
            t.sample(bad)
            continue
        F = rand_bilinear(rng, ctx)
        u = rand_tensor(rng, ctx, max_grade=3, terms=2)
        v = rand_tensor(rng, ctx, max_grade=3, terms=2)
        w = _radical_word(rng, ctx, rad)
        lhs = t_deform_apply(F, t_deform_apply(G, u, v), w)
        rhs = t_deform_apply(F + G, u, t_deform_apply(F, v, w))
        need(lhs == rhs, "radical composition law failed")
        t.sample(bad)


@check("tensor.deform-expansion")
def _tensor_expansion(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        u = rand_tensor(rng, ctx, max_grade=5, terms=2)
        total = TensorElt.zero(ctx)
        for k in range(u.max_grade() // 2 + 1):
            total = total + divided_power(F, k, u)
        need(t_deform(F, u) == total,
             "recursion and contraction-count expansion disagree")
        t.sample(bad)


@check("tensor.divided-binomial")
def _tensor_binom(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        u = rand_tensor(rng, ctx, max_grade=6, terms=2)
        lhs = divided_power(F, k, divided_power(F, l, u))
        rhs = field(math.comb(k + l, k)) * divided_power(F, k + l, u)
        need(lhs == rhs, f"binomial relation failed for k={k}, l={l}")
        t.sample(bad)


@check("tensor.divided-commute")
def _tensor_dp_comm(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        G = rand_bilinear(rng, ctx)
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        u = rand_tensor(rng, ctx, max_grade=6, terms=2)
        need(divided_power(F, k, divided_power(G, l, u))
             == divided_power(G, l, divided_power(F, k, u)),
             "divided powers of different forms do not commute")
        t.sample(bad)


@check("tensor.deform-exp")
def _tensor_exp(rng, samples, field, dim, t):
    if field.char:
        raise CharacteristicError("the exponential series needs characteristic 0")
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        u = rand_tensor(rng, ctx, max_grade=5, terms=2)
        total = u
        term = u
        k = 1
        fact = field.one
        while True:
            term = divided_power(F, 1, term)
            if not term:
                break
            fact = fact * k
            total = total + (field.one / fact) * term
            k += 1
        need(t_deform(F, u) == total, "exp of the single contraction differs")
        t.sample(bad)


@check("tensor.parity")
def _tensor_parity(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        u = rand_tensor(rng, ctx)
        need(t_deform(F, u).grade_involution() == t_deform(F, u.grade_involution()),
             "deformation does not respect the grade involution")
        need(u.reverse().reverse() == u, "reversal not involutive")
        need(u.grade_involution().grade_involution() == u, "involution not involutive")
        t.sample(bad)


@check("tensor.deform-grades")
def _tensor_grades(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        p = rng.randint(0, 5)
        word = tuple(rng.randint(1, dim) for _ in range(p))
        lam = t_deform(F, TensorElt.from_word(ctx, word))
        need(all(len(w) <= p and (p - len(w)) % 2 == 0 for w in lam.terms),
             f"deformation of a grade-{p} word left the expected grades")
        t.sample(bad)


# --------------------------------------------------------------- clifford


@check("clifford.quotient-hom")
def _cl_hom(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        u = rand_tensor(rng, ctx, max_grade=3, terms=2)
        v = rand_tensor(rng, ctx, max_grade=3, terms=2)
        need(quotient_map(cctx, u * v)
             == quotient_map(cctx, u) * quotient_map(cctx, v),
             "quotient map is not multiplicative")
        need(quotient_map(cctx, TensorElt.unit(ctx)) == CliffElt.unit(cctx),
             "unit collapsed in the quotient")
        t.sample(bad)


@check("clifford.quotient-squares")
def _cl_squares(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        x = rand_vector(rng, ctx)
        gen = TensorElt.from_vector(x) * TensorElt.from_vector(x) \
            - cctx.quadratic(x) * TensorElt.unit(ctx)
        need(not quotient_map(cctx, gen), "defining relation not killed")
        xe = CliffElt.from_vector(cctx, x)
        need(xe * xe == cctx.quadratic(x) * CliffElt.unit(cctx),
             "square of a vector is not Q(x)")
        t.sample(bad)


@check("clifford.contract-nilpotent")
def _cl_contract(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        f = rand_linear_form(rng, ctx)
        g = rand_linear_form(rng, ctx)
        x = rand_vector(rng, ctx)
        w = rand_cliff(rng, cctx)
        need(not cl_contract(f, cl_contract(f, w)), "descended i_f i_f != 0")
        need(cl_contract(f, cl_contract(g, w)) + cl_contract(g, cl_contract(f, w))
             == CliffElt.zero(cctx), "descended anticommutation failed")
        xe = CliffElt.from_vector(cctx, x)
        need(cl_contract(f, xe * w) + xe * cl_contract(f, w) == f(x) * w,
             "descended contraction against left multiplication failed")
        t.sample(bad)


@check("clifford.contract-quotient")
def _cl_cq(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        f = rand_linear_form(rng, ctx)
        u = rand_tensor(rng, ctx)
        need(quotient_map(cctx, contract(f, u)) == cl_contract(f, quotient_map(cctx, u)),
             "contraction does not descend through the quotient")
        t.sample(bad)


@check("involution.quotient")
def _cl_invol(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        u = rand_tensor(rng, ctx)
        need(quotient_map(cctx, u.grade_involution())
             == quotient_map(cctx, u).grade_involution(),
             "grade involution does not descend")
        need(quotient_map(cctx, u.reverse()) == quotient_map(cctx, u).reverse(),
             "reversal does not descend")
        t.sample(bad)


@check("bl.commutation-square")
def _bl_square(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        target = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        source = target.shift(F)
        u = rand_tensor(rng, ctx, max_grade=4, terms=3)
        need(deform(F, quotient_map(source, u), target=target)
             == quotient_map(target, t_deform(F, u)),
             "deformation does not commute with the quotient maps")
        t.sample(bad)


@check("bl.group-law")
def _bl_group(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        base = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        G = rand_bilinear(rng, ctx)
        mid = base.shift(F)
        top = mid.shift(G)
        w = rand_cliff(rng, top)
        need(deform(F, deform(G, w, target=mid), target=base)
             == deform(F + G, w, target=base),
             "deformations do not compose additively")
        need(deform(-F, deform(F, w, target=None), target=top) == w,
             "deformation by -F does not invert")
        t.sample(bad)


@check("bL.homomorphism")
def _bL_hom(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        base = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        src = base.shift(F)
        u = rand_cliff(rng, src, terms=2)
        v = rand_cliff(rng, src, terms=2)
        w = rand_cliff(rng, base, terms=2)
        need(deform_apply(F, u * v, w) == deform_apply(F, u, deform_apply(F, v, w)),
             "operator deformation is not multiplicative")
        need(deform_apply(F, u, CliffElt.unit(base)) == deform(F, u, target=base),
             "operator at the unit differs from the deformation")
        t.sample(bad)


@check("bL.square")
def _bL_sq(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        base = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        src = base.shift(F)
        x = rand_vector(rng, ctx)
        w = rand_cliff(rng, base)
        xe = CliffElt.from_vector(src, x)
        twice = deform_apply(F, xe, deform_apply(F, xe, w))
        need(twice == src.quadratic(x) * w,
             "square of the vector operator is not Q'(x)")
        t.sample(bad)


@check("bL.composition")
def _bL_comp(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        base = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        G = _zero_columns(rng, rand_bilinear(rng, ctx), dim, field)
        rad = right_radical(G)
        mid = base.shift(F)
        top = mid.shift(G)
        u = rand_cliff(rng, top, terms=2)
        v = rand_cliff(rng, mid, terms=2)
        w = CliffElt.unit(base)
        for _ in range(rng.randint(0, 2)):
            vec = Vector.zero(ctx)
            for r in rad:
                vec = vec + rand_scalar(rng, field) * r
            w = w * CliffElt.from_vector(base, vec)
        lhs = deform_apply(F, deform_apply(G, u, v), w)
        rhs = deform_apply(F + G, u, deform_apply(F, v, w))
        need(lhs == rhs, "operator composition law failed on radical arguments")
        t.sample(bad)


@check("twist.associativity")
def _twist_assoc(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        u = rand_cliff(rng, cctx, terms=2)
        v = rand_cliff(rng, cctx, terms=2)
        w = rand_cliff(rng, cctx, terms=2)
        need(twisted_mul(F, twisted_mul(F, u, v), w)
             == twisted_mul(F, u, twisted_mul(F, v, w)),
             "twisted product is not associative")
        t.sample(bad)


@check("twist.transport")
def _twist_transport(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        shifted = cctx.shift(F)
        u = rand_cliff(rng, cctx, terms=2)
        v = rand_cliff(rng, cctx, terms=2)
        lhs = deform(-F, twisted_mul(F, u, v), target=shifted)
        rhs = deform(-F, u, target=shifted) * deform(-F, v, target=shifted)
        need(lhs == rhs, "twisted product is not the shifted product in disguise")
        t.sample(bad)


@check("twist.vector-case")
def _twist_vec(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        F = rand_bilinear(rng, ctx)
        x = rand_vector(rng, ctx)
        v = rand_cliff(rng, cctx)
        xe = CliffElt.from_vector(cctx, x)
        need(twisted_mul(F, xe, v) == xe * v + cl_contract_vec(F, x, v),
             "vector twisted product != x v + contraction")
        t.sample(bad)


@check("interior.action")
def _interior_action(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        w = rand_cliff(rng, cctx)
        f = rand_linear_form(rng, ctx)
        g = rand_linear_form(rng, ctx)
        fe = DualElt.from_linear(f)
        ge = DualElt.from_linear(g)
        need(interior(fe * ge, w) == interior(fe, interior(ge, w)),
             "wedge does not act as composed contractions")
        astar = rand_dual_two_form(rng, ctx)
        a = alt_of_dual(astar)
        x = rand_vector(rng, ctx)
        xe = CliffElt.from_vector(cctx, x)
        lhs = interior(DualElt.from_two_form(astar), xe * w)
        rhs = xe * interior(DualElt.from_two_form(astar), w) + cl_contract_vec(a, x, w)
        need(lhs == rhs, "two-form interior does not satisfy the product rule")
        t.sample(bad)


@check("gauge.exp-identity")
def _gauge_exp(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        astar = rand_dual_two_form(rng, ctx)
        a = alt_of_dual(astar)
        w = rand_cliff(rng, cctx)
        need(exp_contract(astar, w) == deform(a, w, target=cctx),
             "exponential of the contraction differs from the deformation")
        t.sample(bad)


@check("gauge.conjugation")
def _gauge_conj(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        astar = rand_dual_two_form(rng, ctx)
        a = alt_of_dual(astar)
        x = rand_vector(rng, ctx)
        w = rand_cliff(rng, cctx)
        xe = CliffElt.from_vector(cctx, x)
        lhs = exp_contract(astar, xe * exp_contract(-astar, w))
        rhs = xe * w + cl_contract_vec(a, x, w)
        need(lhs == rhs, "conjugated left multiplication != e_x + i_x")
        t.sample(bad)


@check("symbol.roundtrip")
def _symbol_rt(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        w = rand_cliff(rng, cctx)
        need(quantize(cctx, symbol(w)) == w, "quantize(symbol) != id")
        e = rand_cliff(rng, CliffordContext.exterior(ctx))
        need(symbol(quantize(cctx, e)) == e, "symbol(quantize) != id")
        t.sample(bad)


@check("symbol.orthogonal")
def _symbol_orth(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        q = QuadraticForm.make(ctx, [rand_scalar(rng, field) for _ in range(dim)])
        cctx = CliffordContext(q)
        blade = rand_blade(rng, ctx)
        w = CliffElt.blade(cctx, blade)
        need(symbol(w) == CliffElt.blade(CliffordContext.exterior(ctx), blade),
             "symbol moved an orthogonal blade")
        t.sample(bad)


@check("symbol.antisymmetrization")
def _symbol_antisym(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    ext = CliffordContext.exterior(ctx)
    for _ in range(samples):
        bad, need = _collect()
        cctx = CliffordContext(rand_quadratic(rng, ctx))
        k = rng.randint(1, min(4, dim))
        ys = [rand_vector(rng, ctx) for _ in range(k)]
        wedge = CliffElt.unit(ext)
        for y in ys:
            wedge = wedge * CliffElt.from_vector(ext, y)
        lhs = field(math.factorial(k)) * quantize(cctx, wedge)
        rhs = CliffElt.zero(cctx)
        for perm in permutations(range(k)):
            inv = sum(1 for a in range(k) for b in range(a + 1, k)
                      if perm[a] > perm[b])
            prod = CliffElt.unit(cctx)
            for idx in perm:
                prod = prod * CliffElt.from_vector(cctx, ys[idx])
            rhs = rhs + (prod if inv % 2 == 0 else -prod)
        need(lhs == rhs, f"antisymmetrization failed for k={k}")
        t.sample(bad)


@check("char2.bl-suite", field="Fp:2")
def _char2_suite(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        base = CliffordContext(rand_quadratic(rng, ctx))
        P = rand_quadratic(rng, ctx)
        F = triangular_bilinear(P)
        src = base.shift(F)
        u = rand_tensor(rng, ctx, max_grade=3, terms=2)
        need(deform(F, quotient_map(src, u), target=base)
             == quotient_map(base, t_deform(F, u)),
             "char-2 commutation square failed")
        wc = rand_cliff(rng, src, terms=2)
        need(deform(-F, deform(F, wc, target=base), target=src) == wc,
             "char-2 inverse deformation failed")
        a = rand_cliff(rng, src, terms=2)
        b = rand_cliff(rng, src, terms=2)
        w = rand_cliff(rng, base, terms=2)
        need(deform_apply(F, a * b, w) == deform_apply(F, a, deform_apply(F, b, w)),
             "char-2 operator homomorphism failed")
        x = rand_vector(rng, ctx)
        xe = CliffElt.from_vector(src, x)
        need(deform_apply(F, xe, deform_apply(F, xe, w)) == src.quadratic(x) * w,
             "char-2 operator square failed")
        uu = rand_cliff(rng, base, terms=2)
        vv = rand_cliff(rng, base, terms=2)
        need(deform(-F, twisted_mul(F, uu, vv), target=src)
             == deform(-F, uu, target=src) * deform(-F, vv, target=src),
             "char-2 twisted transport failed")
        t.sample(bad)


# ---------------------------------------------------------------- repcheck


@check("rho.homomorphism", samples=10)
def _rho_hom(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        cctx = CliffordContext(quad_of_bilinear(F))
        u = rand_cliff(rng, cctx, terms=2)
        v = rand_cliff(rng, cctx, terms=2)
        need(rho_matrix(F, u * v) == rho_matrix(F, u) * rho_matrix(F, v),
             "representation is not multiplicative")
        t.sample(bad)


@check("rho.unit-column", samples=10)
def _rho_unit(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        cctx = CliffordContext(quad_of_bilinear(F))
        u = rand_cliff(rng, cctx)
        col = [row[0] for row in rho_matrix(F, u).entries]
        need(col == cliff_to_vec(deform(F, u)),
             "unit column is not the deformation coefficient vector")
        t.sample(bad)


@check("rho.square", samples=10)
def _rho_square(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        cctx = CliffordContext(quad_of_bilinear(F))
        x = rand_vector(rng, ctx)
        m = rho_matrix(F, CliffElt.from_vector(cctx, x))
        qx = cctx.quadratic(x)
        size = m.size
        ident = EndoMatrix.identity(ctx)
        expected = EndoMatrix(ctx, tuple(
            tuple(qx * ident.entries[r][c] for c in range(size)) for r in range(size)))
        need(m * m == expected, "square of a vector matrix is not Q_F(x) I")
        t.sample(bad)


@check("rep.equivalence", samples=10)
def _rep_equiv(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_bilinear(rng, ctx)
        A = rand_alternating(rng, ctx)
        cctx = CliffordContext(quad_of_bilinear(F))
        a = rand_cliff(rng, cctx, terms=2)
        rep = check_equivalence(F, A, [a])
        need(rep.all_passed(), f"equivalence failed: {rep.failures[:1]}")
        t.sample(bad)


def _span_contains(basis, vecs):
    before = len(linalg.row_space_basis(basis))
    after = len(linalg.row_space_basis(basis + vecs))
    return before == after


@check("rep.invariant-lattice", dim=3, samples=3)
def _rep_lattice(rng, samples, field, dim, t):
    ctx = AlgebraContext(dim, field)
    for _ in range(samples):
        bad, need = _collect()
        F = rand_symmetric(rng, ctx)
        # push e_1 into the radical of F so the untwisted generator
        # matrices are visibly reducible (kernel of a nilpotent)
        rows = [list(r) for r in F.rows]
        for j in range(dim):
            rows[0][j] = rows[j][0] = field.zero
        F = BilinearForm.make(ctx, rows)
        A = rand_alternating(rng, ctx)
        mats_u = generator_matrices(F)
        mats_t = generator_matrices(F + A)
        M = twist_matrix(A).rows()
        Minv = linalg.solve_matrix(M, linalg.identity(field, len(M)))
        if not need(Minv is not None, "twist matrix is singular"):
            t.sample(bad)
            continue
        sub_seed = rng.randrange(1 << 30)
        rep_u = invariant_probe(mats_u, sub_seed)
        rep_t = invariant_probe(mats_t, sub_seed + 1)
        need(bool(rep_u.bases), "probe found nothing for the untwisted matrices")
        mats_t_rows = [m.rows() for m in mats_t]
        mats_u_rows = [m.rows() for m in mats_u]
        for basis in rep_u.bases:
            mapped = [linalg.mat_vec(M, list(v)) for v in basis]
            images = [linalg.mat_vec(m, v) for m in mats_t_rows for v in mapped]
            need(_span_contains(mapped, images),
                 "mapped subspace not invariant for the twisted matrices")
        for basis in rep_t.bases:
            mapped = [linalg.mat_vec(Minv, list(v)) for v in basis]
            images = [linalg.mat_vec(m, v) for m in mats_u_rows for v in mapped]
            need(_span_contains(mapped, images),
                 "pulled-back subspace not invariant for the untwisted matrices")
        t.sample(bad)

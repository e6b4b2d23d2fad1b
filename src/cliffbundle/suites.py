"""The named identity suites, registered with checks.py by id.

checks.py loads this module the first time the registry is read, so a
process that runs no suite never compiles it.  Each suite is the body
of one sample, body(rng, ctx, need, i): it draws a random instance
from rng over ctx (the run's AlgebraContext), checks exact identities
with need(ok, message), and may return early once a need has failed.
i is the sample index.  checks.run_check runs the sample loop and
tallies the results.
"""

from __future__ import annotations

import math
from itertools import permutations

from . import linalg
from .checks import check
from .clifford import (CliffElt, CliffordContext, contract as cl_contract,
                       contract_vec as cl_contract_vec, deform, deform_apply,
                       exp_contract, interior, quantize, quotient_map, symbol,
                       twisted_mul)
from .errors import CharacteristicError, FormError
from .forms import (AlgebraContext, BilinearForm, QuadraticForm, Vector, _canonical,
                    alt_of_dual, dual_two_form, pfaffian, polar_form,
                    quad_of_bilinear, right_radical, split_sym_alt,
                    triangular_bilinear)
from .repcheck import (check_equivalence, cliff_to_vec, generator_matrices,
                       invariant_probe, restrict_matrices, rho_matrix, twist_matrix)
from .sampling import (rand_alternating, rand_bilinear, rand_blade, rand_cliff,
                       rand_dual_two_form, rand_linear_form, rand_quadratic,
                       rand_scalar, rand_symmetric, rand_tensor, rand_vector)
from .scalars import Field
from .tensor import (TensorElt, contract, deform as t_deform,
                     deform_apply as t_deform_apply, divided_power, left_mul)


# ---------------------------------------------------------------- scalars


@check("scalars.field-axioms", max_dim=None)
def _scalars_axioms(rng, ctx, need, i):
    a = rand_scalar(rng, ctx.field)
    b = rand_scalar(rng, ctx.field)
    c = rand_scalar(rng, ctx.field)
    need((a + b) + c == a + (b + c), f"add assoc {a},{b},{c}")
    need(a * b == b * a, f"mul comm {a},{b}")
    need(a * (b + c) == a * b + a * c, f"distrib {a},{b},{c}")
    need(a - a == ctx.field.zero, f"sub self {a}")
    nz = rand_scalar(rng, ctx.field, nonzero=True)
    need(nz * nz.inverse() == ctx.field.one, f"inverse {nz}")


@check("scalars.parse-print", max_dim=None)
def _scalars_parse(rng, ctx, need, i):
    a = rand_scalar(rng, ctx.field, span=40)
    need(ctx.field.parse(str(a)) == a, f"round trip {a}")


@check("scalars.fermat", field="Fp:7", max_dim=None)
def _scalars_fermat(rng, ctx, need, i):
    fld = ctx.field if ctx.field.char else Field(7)
    a = rand_scalar(rng, fld)
    need(a ** fld.char == a, f"a^p != a for {a} mod {fld.char}")


# ------------------------------------------------------------------ forms


@check("forms.polar-quadratic")
def _forms_polar(rng, ctx, need, i):
    q = rand_quadratic(rng, ctx)
    x = rand_vector(rng, ctx)
    y = rand_vector(rng, ctx)
    need(polar_form(q)(x, y) == q(x + y) - q(x) - q(y), "polar value mismatch")


@check("forms.bilinear-quadratic")
def _forms_bq(rng, ctx, need, i):
    f = rand_bilinear(rng, ctx)
    q = quad_of_bilinear(f)
    x = rand_vector(rng, ctx)
    need(q(x) == f(x, x), "Q_F(x) != F(x,x)")


@check("forms.char2-form", field="Fp:2")
def _forms_char2(rng, ctx, need, i):
    q = rand_quadratic(rng, ctx)
    f = triangular_bilinear(q)
    need(quad_of_bilinear(f) == q, "triangular form does not rebuild Q")
    if ctx.field.char == 2 and ctx.dim <= 4:
        for bits in range(1 << ctx.dim):
            x = Vector.make(ctx, [(bits >> i) & 1 for i in range(ctx.dim)])
            need(q(x) == f(x, x), f"mismatch at vector bits {bits}")


@check("forms.pfaffian-det", max_dim=None)
def _forms_pf(rng, ctx, need, i):
    n = (2, 4, 6)[i % 3]
    a = rand_alternating(rng, AlgebraContext(n, ctx.field))
    need(pfaffian(a) * pfaffian(a) == linalg.det(a.matrix()),
         f"Pf^2 != det at size {n}")


@check("forms.split-unique")
def _forms_split(rng, ctx, need, i):
    f = rand_bilinear(rng, ctx)
    g, a = split_sym_alt(f)
    need(g.is_symmetric(), "g not symmetric")
    need(a.is_alternating(), "A not alternating")
    need(g + a == f, "g + A != F")
    g2, a2 = split_sym_alt(g)
    need(g2 == g and not any(any(r) for r in a2.rows), "resplit not (g, 0)")


@check("forms.dual-roundtrip")
def _forms_dual(rng, ctx, need, i):
    a = rand_alternating(rng, ctx)
    need(alt_of_dual(dual_two_form(a)) == a, "dual round trip failed")


# ----------------------------------------------------------------- tensor


@check("tensor.contract-nilpotent")
def _tensor_nilp(rng, ctx, need, i):
    f = rand_linear_form(rng, ctx)
    g = rand_linear_form(rng, ctx)
    u = rand_tensor(rng, ctx)
    need(not contract(f, contract(f, u)), "i_f i_f != 0")
    need(contract(f, contract(g, u)) + contract(g, contract(f, u))
         == TensorElt.zero(ctx), "i_f i_g + i_g i_f != 0")


@check("tensor.contract-leftmul")
def _tensor_leftmul(rng, ctx, need, i):
    f = rand_linear_form(rng, ctx)
    x = rand_vector(rng, ctx)
    u = rand_tensor(rng, ctx)
    lhs = left_mul(x, contract(f, u)) + contract(f, left_mul(x, u))
    need(lhs == f(x) * u, "e_x i_f + i_f e_x != f(x) Id")


@check("tensor.deform-graded-commute")
def _tensor_graded(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    f = rand_linear_form(rng, ctx)
    p = rng.randint(0, 3)
    word = tuple(rng.randint(1, ctx.dim) for _ in range(p))
    u = TensorElt.from_word(ctx, word, rand_scalar(rng, ctx.field))
    v = rand_tensor(rng, ctx)
    lhs = contract(f, t_deform_apply(F, u, v))
    rhs = t_deform_apply(F, contract(f, u), v)
    tail = t_deform_apply(F, u, contract(f, v))
    rhs = rhs + tail if p % 2 == 0 else rhs - tail
    need(lhs == rhs, "graded commutation with contraction failed")


@check("tensor.deform-group-law")
def _tensor_group(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    G = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx)
    need(t_deform(F, t_deform(G, u)) == t_deform(F + G, u),
         "composition of deformations != deformation of the sum")
    need(t_deform(F, t_deform(-F, u)) == u, "deform(-F) does not invert")


@check("tensor.deform-contract-commute")
def _tensor_dcc(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    f = rand_linear_form(rng, ctx)
    u = rand_tensor(rng, ctx)
    need(contract(f, t_deform(F, u)) == t_deform(F, contract(f, u)),
         "deformation does not commute with contraction")


def _zero_columns(rng, G):
    """Zero out some columns so the right radical is nontrivial."""
    dim = G.ctx.dim
    cols = rng.sample(range(dim), rng.randint(1, max(1, dim // 2)))
    nums = list(G.nums)
    for j in cols:
        nums[j::dim] = [0] * dim
    return BilinearForm(G.ctx, *_canonical(G.ctx.field, nums, G.den))


def _radical_vector(rng, ctx, rad):
    """A random combination of the radical basis rad."""
    return sum((rand_scalar(rng, ctx.field) * r for r in rad), Vector.zero(ctx))


def _radical_word(rng, ctx, rad, max_factors=2):
    w = TensorElt.unit(ctx)
    for _ in range(rng.randint(0, max_factors)):
        w = w * TensorElt.from_vector(_radical_vector(rng, ctx, rad))
    return w


@check("tensor.radical-composition")
def _tensor_radical(rng, ctx, need, i):
    G = _zero_columns(rng, rand_bilinear(rng, ctx))
    rad = right_radical(G)
    if not need(bool(rad), "radical unexpectedly empty"):
        return
    F = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx, max_grade=3, terms=2)
    v = rand_tensor(rng, ctx, max_grade=3, terms=2)
    w = _radical_word(rng, ctx, rad)
    lhs = t_deform_apply(F, t_deform_apply(G, u, v), w)
    rhs = t_deform_apply(F + G, u, t_deform_apply(F, v, w))
    need(lhs == rhs, "radical composition law failed")


@check("tensor.deform-expansion")
def _tensor_expansion(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx, max_grade=5, terms=2)
    total = TensorElt.zero(ctx)
    for k in range(u.max_grade() // 2 + 1):
        total = total + divided_power(F, k, u)
    need(t_deform(F, u) == total,
         "recursion and contraction-count expansion disagree")


@check("tensor.divided-binomial")
def _tensor_binom(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    k = rng.randint(0, 2)
    l = rng.randint(0, 2)
    u = rand_tensor(rng, ctx, max_grade=6, terms=2)
    lhs = divided_power(F, k, divided_power(F, l, u))
    rhs = ctx.field(math.comb(k + l, k)) * divided_power(F, k + l, u)
    need(lhs == rhs, f"binomial relation failed for k={k}, l={l}")


@check("tensor.divided-commute")
def _tensor_dp_comm(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    G = rand_bilinear(rng, ctx)
    k = rng.randint(0, 2)
    l = rng.randint(0, 2)
    u = rand_tensor(rng, ctx, max_grade=6, terms=2)
    need(divided_power(F, k, divided_power(G, l, u))
         == divided_power(G, l, divided_power(F, k, u)),
         "divided powers of different forms do not commute")


def _series_field(field, top: int):
    """Refuse a field in which an exponential series that stops at
    k <= top, so needs 1/k! up to there, is undefined: GF(p), p <= top."""
    if 0 < field.char <= top:
        raise CharacteristicError(f"the exponential series to k = {top} needs 1/{top}!, "
                                  f"undefined in characteristic {field.char}")


@check("tensor.deform-exp")
def _tensor_exp(rng, ctx, need, i):
    # each term lowers the grade by 2, so the series stops at k <= 5 // 2
    _series_field(ctx.field, 5 // 2)
    F = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx, max_grade=5, terms=2)
    total = u
    term = u
    k = 1
    fact = ctx.field.one
    while True:
        term = divided_power(F, 1, term)
        if not term:
            break
        fact = fact * k
        total = total + (ctx.field.one / fact) * term
        k += 1
    need(t_deform(F, u) == total, "exp of the single contraction differs")


@check("tensor.parity")
def _tensor_parity(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    u = rand_tensor(rng, ctx)
    need(t_deform(F, u).grade_involution() == t_deform(F, u.grade_involution()),
         "deformation does not respect the grade involution")
    need(u.reverse().reverse() == u, "reversal not involutive")
    need(u.grade_involution().grade_involution() == u, "involution not involutive")


@check("tensor.deform-grades")
def _tensor_grades(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    p = rng.randint(0, 5)
    word = tuple(rng.randint(1, ctx.dim) for _ in range(p))
    lam = t_deform(F, TensorElt.from_word(ctx, word))
    need(all(len(w) <= p and (p - len(w)) % 2 == 0 for w in lam.terms),
         f"deformation of a grade-{p} word left the expected grades")


# --------------------------------------------------------------- clifford


@check("clifford.quotient-hom")
def _cl_hom(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u = rand_tensor(rng, ctx, max_grade=3, terms=2)
    v = rand_tensor(rng, ctx, max_grade=3, terms=2)
    need(quotient_map(cctx, u * v)
         == quotient_map(cctx, u) * quotient_map(cctx, v),
         "quotient map is not multiplicative")
    need(quotient_map(cctx, TensorElt.unit(ctx)) == CliffElt.unit(cctx),
         "unit collapsed in the quotient")


@check("clifford.quotient-squares")
def _cl_squares(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    x = rand_vector(rng, ctx)
    gen = TensorElt.from_vector(x) * TensorElt.from_vector(x) \
        - cctx.quadratic(x) * TensorElt.unit(ctx)
    need(not quotient_map(cctx, gen), "defining relation not killed")
    xe = CliffElt.from_vector(cctx, x)
    need(xe * xe == cctx.quadratic(x) * CliffElt.unit(cctx),
         "square of a vector is not Q(x)")


@check("clifford.contract-nilpotent")
def _cl_contract(rng, ctx, need, i):
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


@check("clifford.contract-quotient")
def _cl_cq(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    f = rand_linear_form(rng, ctx)
    u = rand_tensor(rng, ctx)
    need(quotient_map(cctx, contract(f, u)) == cl_contract(f, quotient_map(cctx, u)),
         "contraction does not descend through the quotient")


@check("involution.quotient")
def _cl_invol(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u = rand_tensor(rng, ctx)
    need(quotient_map(cctx, u.grade_involution())
         == quotient_map(cctx, u).grade_involution(),
         "grade involution does not descend")
    need(quotient_map(cctx, u.reverse()) == quotient_map(cctx, u).reverse(),
         "reversal does not descend")


@check("bl.commutation-square")
def _bl_square(rng, ctx, need, i):
    target = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    source = target.shift(F)
    u = rand_tensor(rng, ctx, max_grade=4, terms=3)
    need(deform(F, quotient_map(source, u), target=target)
         == quotient_map(target, t_deform(F, u)),
         "deformation does not commute with the quotient maps")


@check("bl.group-law")
def _bl_group(rng, ctx, need, i):
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


@check("bL.homomorphism")
def _bL_hom(rng, ctx, need, i):
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


@check("bL.square")
def _bL_sq(rng, ctx, need, i):
    base = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    src = base.shift(F)
    x = rand_vector(rng, ctx)
    w = rand_cliff(rng, base)
    xe = CliffElt.from_vector(src, x)
    twice = deform_apply(F, xe, deform_apply(F, xe, w))
    need(twice == src.quadratic(x) * w,
         "square of the vector operator is not Q'(x)")


@check("bL.composition")
def _bL_comp(rng, ctx, need, i):
    base = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    G = _zero_columns(rng, rand_bilinear(rng, ctx))
    rad = right_radical(G)
    mid = base.shift(F)
    top = mid.shift(G)
    u = rand_cliff(rng, top, terms=2)
    v = rand_cliff(rng, mid, terms=2)
    w = CliffElt.unit(base)
    for _ in range(rng.randint(0, 2)):
        w = w * CliffElt.from_vector(base, _radical_vector(rng, ctx, rad))
    lhs = deform_apply(F, deform_apply(G, u, v), w)
    rhs = deform_apply(F + G, u, deform_apply(F, v, w))
    need(lhs == rhs, "operator composition law failed on radical arguments")


@check("twist.associativity", max_dim=11)
def _twist_assoc(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    u = rand_cliff(rng, cctx, terms=2)
    v = rand_cliff(rng, cctx, terms=2)
    w = rand_cliff(rng, cctx, terms=2)
    need(twisted_mul(F, twisted_mul(F, u, v), w)
         == twisted_mul(F, u, twisted_mul(F, v, w)),
         "twisted product is not associative")


@check("twist.transport")
def _twist_transport(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    shifted = cctx.shift(F)
    u = rand_cliff(rng, cctx, terms=2)
    v = rand_cliff(rng, cctx, terms=2)
    lhs = deform(-F, twisted_mul(F, u, v), target=shifted)
    rhs = deform(-F, u, target=shifted) * deform(-F, v, target=shifted)
    need(lhs == rhs, "twisted product is not the shifted product in disguise")


@check("twist.vector-case")
def _twist_vec(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    F = rand_bilinear(rng, ctx)
    x = rand_vector(rng, ctx)
    v = rand_cliff(rng, cctx)
    xe = CliffElt.from_vector(cctx, x)
    need(twisted_mul(F, xe, v) == xe * v + cl_contract_vec(F, x, v),
         "vector twisted product != x v + contraction")


def _exterior_two_form(astar):
    """astar as an element of the exterior algebra of its space."""
    n = astar.ctx.dim
    return CliffElt(CliffordContext.exterior(astar.ctx), {
        (i, j): astar.at(i, j) for i in range(1, n) for j in range(i + 1, n + 1)})


@check("interior.action")
def _interior_action(rng, ctx, need, i):
    ext = CliffordContext.exterior(ctx)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    w = rand_cliff(rng, cctx)
    f = rand_linear_form(rng, ctx)
    g = rand_linear_form(rng, ctx)
    fe = CliffElt.from_vector(ext, Vector(ctx, f.nums, f.den))
    ge = CliffElt.from_vector(ext, Vector(ctx, g.nums, g.den))
    need(interior(fe * ge, w) == interior(fe, interior(ge, w)),
         "wedge does not act as composed contractions")
    astar = rand_dual_two_form(rng, ctx)
    a = alt_of_dual(astar)
    x = rand_vector(rng, ctx)
    xe = CliffElt.from_vector(cctx, x)
    two = _exterior_two_form(astar)
    lhs = interior(two, xe * w)
    rhs = xe * interior(two, w) + cl_contract_vec(a, x, w)
    need(lhs == rhs, "two-form interior does not satisfy the product rule")


@check("gauge.exp-identity")
def _gauge_exp(rng, ctx, need, i):
    # each term lowers the grade by 2, so the series stops at k <= dim // 2
    _series_field(ctx.field, ctx.dim // 2)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    astar = rand_dual_two_form(rng, ctx)
    a = alt_of_dual(astar)
    w = rand_cliff(rng, cctx)
    two = _exterior_two_form(astar)
    total = term = w
    k = 1
    while lowered := interior(two, term):
        term = (ctx.field.one / ctx.field(k)) * lowered
        total = total + term
        k += 1
    need(exp_contract(astar, w) == total,
         "exponential of the contraction differs from its series")
    need(total == deform(a, w, target=cctx),
         "exponential series differs from the deformation")


@check("gauge.conjugation")
def _gauge_conj(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    astar = rand_dual_two_form(rng, ctx)
    a = alt_of_dual(astar)
    x = rand_vector(rng, ctx)
    w = rand_cliff(rng, cctx)
    xe = CliffElt.from_vector(cctx, x)
    lhs = exp_contract(astar, xe * exp_contract(-astar, w))
    rhs = xe * w + cl_contract_vec(a, x, w)
    need(lhs == rhs, "conjugated left multiplication != e_x + i_x")


@check("symbol.roundtrip")
def _symbol_rt(rng, ctx, need, i):
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    w = rand_cliff(rng, cctx)
    need(quantize(cctx, symbol(w)) == w, "quantize(symbol) != id")
    e = rand_cliff(rng, CliffordContext.exterior(ctx))
    need(symbol(quantize(cctx, e)) == e, "symbol(quantize) != id")


@check("symbol.orthogonal")
def _symbol_orth(rng, ctx, need, i):
    q = QuadraticForm.make(ctx, [rand_scalar(rng, ctx.field) for _ in range(ctx.dim)])
    cctx = CliffordContext(q)
    blade = rand_blade(rng, ctx)
    w = CliffElt.blade(cctx, blade)
    need(symbol(w) == CliffElt.blade(CliffordContext.exterior(ctx), blade),
         "symbol moved an orthogonal blade")


@check("symbol.antisymmetrization")
def _symbol_antisym(rng, ctx, need, i):
    ext = CliffordContext.exterior(ctx)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    k = rng.randint(1, min(4, ctx.dim))
    ys = [rand_vector(rng, ctx) for _ in range(k)]
    wedge = CliffElt.unit(ext)
    for y in ys:
        wedge = wedge * CliffElt.from_vector(ext, y)
    lhs = ctx.field(math.factorial(k)) * quantize(cctx, wedge)
    rhs = CliffElt.zero(cctx)
    for perm in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k)
                  if perm[a] > perm[b])
        prod = CliffElt.unit(cctx)
        for idx in perm:
            prod = prod * CliffElt.from_vector(cctx, ys[idx])
        rhs = rhs + (prod if inv % 2 == 0 else -prod)
    need(lhs == rhs, f"antisymmetrization failed for k={k}")


@check("char2.bl-suite", field="Fp:2")
def _char2_suite(rng, ctx, need, i):
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


# ---------------------------------------------------------------- repcheck


@check("rho.homomorphism", samples=10, max_dim=8)
def _rho_hom(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    u = rand_cliff(rng, cctx, terms=2)
    v = rand_cliff(rng, cctx, terms=2)
    need(rho_matrix(F, u * v) == rho_matrix(F, u) * rho_matrix(F, v),
         "representation is not multiplicative")


@check("rho.unit-column", samples=10, max_dim=8)
def _rho_unit(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    u = rand_cliff(rng, cctx)
    col = [row[0] for row in rho_matrix(F, u).entries]
    need(col == cliff_to_vec(deform(F, u)),
         "unit column is not the deformation coefficient vector")


@check("rho.square", samples=10, max_dim=8)
def _rho_square(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    x = rand_vector(rng, ctx)
    m = rho_matrix(F, CliffElt.from_vector(cctx, x))
    expected = rho_matrix(F, CliffElt.unit(cctx) * cctx.quadratic(x))
    need(m * m == expected, "square of a vector matrix is not Q_F(x) I")


@check("rep.equivalence", samples=10, max_dim=8)
def _rep_equiv(rng, ctx, need, i):
    F = rand_bilinear(rng, ctx)
    A = rand_alternating(rng, ctx)
    cctx = CliffordContext(quad_of_bilinear(F))
    a = rand_cliff(rng, cctx, terms=2)
    rep = check_equivalence(F, A, [a])
    need(rep.all_passed(), f"equivalence failed: {rep.failures[:1]}")


@check("rep.invariant-lattice", dim=3, samples=3, max_dim=5)
def _rep_lattice(rng, ctx, need, i):
    F = rand_symmetric(rng, ctx)
    # push e_1 into the radical of F so the untwisted generator
    # matrices are visibly reducible (kernel of a nilpotent)
    n, nums = ctx.dim, list(F.nums)
    nums[:n] = nums[::n] = [0] * n
    F = BilinearForm(ctx, *_canonical(ctx.field, nums, F.den))
    A = rand_alternating(rng, ctx)
    mats_u = generator_matrices(F)
    mats_t = generator_matrices(F + A)
    M = twist_matrix(A).rows()
    Minv = twist_matrix(-A).rows()
    sub_seed = rng.randrange(1 << 30)
    rep_u = invariant_probe(mats_u, sub_seed)
    rep_t = invariant_probe(mats_t, sub_seed + 1)
    need(bool(rep_u.bases), "probe found nothing for the untwisted matrices")
    for bases, T, mats, msg in (
            (rep_u.bases, M, mats_t, "mapped subspace not invariant for the twisted matrices"),
            (rep_t.bases, Minv, mats_u,
             "pulled-back subspace not invariant for the untwisted matrices")):
        for basis in bases:
            try:
                restrict_matrices(mats, [linalg.mat_vec(T, list(v)) for v in basis])
            except FormError:
                need(False, msg)

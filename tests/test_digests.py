"""Byte-identity gate: digests of suite results and CLI replies.

The default and GF(7) suite digests and the CLI digests were computed
before integral rationals were stored as ints (when every Q value was
a Fraction); the GF(2), GF(3) and dim=2 passes and the draw digests
before the sample loop moved out of the suites into run_check; the
representation-matrix and dense-kernel digests while EndoMatrix held
a dense tuple of Scalar rows and rho_matrix walked one column at a
time.  The GF(p) suite, draw and CLI digests were recomputed when
exp_contract became the pair product in every characteristic: there
exp-contract and gauge.conjugation answer instead of refusing, and
gauge.exp-identity refuses before its first draw.  The wide dense
digests (60-digit rationals, residues mod 2^61 - 1) were computed on
the dictionary generator action, one dict update per term per row
entry, and the pair-contraction digests (dense deform, symbol,
quantize and exp_contract) on the dictionary pair passes, one pass
over the running terms per pair.  The split digests (dense products,
deform_apply and twisted_mul at n = 9 and 10) were computed on the
packed sum's unsplit walk, one generator action per blade of u.  The
GF(p) suite and draw digests and the GF(2) and GF(7) CLI digests were
recomputed when gauge.exp-identity and tensor.deform-exp came to run
over GF(p) with p above the last k of their series (before, both
refused every p): over GF(3) and GF(7) they answer, over GF(2) they
refuse with a message that names the k, and every other suite and
request answers byte for byte as before.  A
change to the scalar layer, the kernels, the suites or the CLI must
leave every output byte for byte as it was.  A change that means to
alter an output updates the digest and says why.
"""

import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CliffElt, CliffordContext,
                         DualTwoForm, EndoMatrix, Field, QuadraticForm, TensorElt,
                         check_equivalence, checks, deform, deform_apply, exp_contract,
                         generator_matrices, index_subset, interior, list_checks,
                         quad_of_bilinear, quantize, restrict_matrices, rho_matrix,
                         run_check, symbol, tensor_deform_apply, twist_matrix, twisted_mul)
from cliffbundle.cli import main


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# run_check keyword arguments of each pass over every suite, at seed 3
SUITE_PASSES = {
    "default": {},
    "Fp:7": {"field": "Fp:7"},
    "Fp:2": {"field": "Fp:2"},
    "Fp:3": {"field": "Fp:3"},
    "dim=2": {"dim": 2, "samples": 5},
}

SUITE_DIGESTS = {
    "default": "8da9a724e00dad0b09829bee613b01ec7c4a56fd14e61dc51e345a7e0d6c7847",
    "Fp:7": "8da9a724e00dad0b09829bee613b01ec7c4a56fd14e61dc51e345a7e0d6c7847",
    "Fp:2": "f49e56846ddc776887998333c3f35f21706857d5dc0b5173ff65c9c0784b55fe",
    "Fp:3": "8da9a724e00dad0b09829bee613b01ec7c4a56fd14e61dc51e345a7e0d6c7847",
    "dim=2": "5b16e34a119449a27f81b0357db2af585a2d878ebb4e5eb63d4295b9fb8733e1",
}

# A result of passing samples says only how many there were (Q, GF(3)
# and GF(7) give the same digest), so each run's next draw of its seeded
# generator is digested too: drawing the samples in another order or
# number changes it even when every sample passes.
DRAW_DIGESTS = {
    "default": "1abdfa4f793b63c7b0138007abebef4f971da89d3199ecdcfb8df1a5a64adbab",
    "Fp:7": "45efb7ff135405364ecb6f5280e353bb0a59f46cb8f89d442f90962e4d4b6fee",
    "Fp:2": "01aa342128bf5776605c7177a86f355a0046a11a278d0d7927977cf6cd22ec94",
    "Fp:3": "dd49bbf9df88913ef3c0ba7b44ca06953c719aa1a82d6548207d751a62f011bf",
    "dim=2": "a950822e893a761563d39a2ea8d763b7cba2d4c0af966c777bd30cfae34d089f",
}


@pytest.fixture
def made(monkeypatch):
    """The random.Random objects run_check makes, in turn, from now on."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(checks, "random", SimpleNamespace(Random=Recorded))
    return made


@pytest.mark.parametrize("name", list(SUITE_PASSES))
def test_suite_digests(name, made):
    """run_check(id, seed=3) of every suite in each pass; a suite the
    pass's field or dim does not suit contributes its error."""
    out, draws = {}, {}
    for cid in list_checks():
        made.clear()
        try:
            out[cid] = run_check(cid, seed=3, **SUITE_PASSES[name]).to_json()
        except Exception as exc:  # noqa: BLE001  (the refusal is part of the output)
            out[cid] = f"{type(exc).__name__}: {exc}"
        draws[cid] = made[0].getrandbits(64) if made else None
    assert _digest(out) == SUITE_DIGESTS[name]
    assert _digest(draws) == DRAW_DIGESTS[name]


# The exponential-series suites over GF(p), p above the last k of the
# series (k = 2 for tensor.deform-exp, dim // 2 for gauge.exp-identity),
# at seed 3: the result and the run's next draw.
EXP_DIGESTS = {
    "gauge.exp-identity Fp:3 4": "ceb7e67dbd4a7d5de4d8e5fd60a908db01e892462ec6197b9e36d816ec19279b",
    "gauge.exp-identity Fp:7 4": "3234ab76128ce2866cb15eebe1002316ec6ef69d307c7a51752a97960ba7b176",
    "gauge.exp-identity Fp:7 6": "4d74f8c315337c961d11a042c9bd2ee975b71e6ae23cf98427ec094a406044f0",
    "tensor.deform-exp Fp:3 4": "fdaf3a4bd3ee0f2396527a0996566558c91d285e85ef0cbe8b2d3dcef93bb176",
    "tensor.deform-exp Fp:7 4": "19a023e019337a2fab6b38d8fcbf99deebd14d8c03501ad3a9688013fc2276c7",
    "tensor.deform-exp Fp:7 6": "b95f630dea48deadb3720d9fb56c8bcb0bde747299e90a072d71d69b78892c2c",
}


@pytest.mark.parametrize("case", list(EXP_DIGESTS))
def test_exp_suite_digests(case, made):
    cid, spec, dim = case.split()
    res = run_check(cid, seed=3, field=spec, dim=int(dim))
    assert res.passed == res.samples
    assert _digest([res.to_json(), made[0].getrandbits(64)]) == EXP_DIGESTS[case]


def _terms(*pairs):
    return {"terms": [{"blade": list(b), "coeff": c} for b, c in pairs]}


def _requests(spec):
    """(argv, request text) of every subcommand over one field; over
    GF(2) the symbol maps refuse, and so does the check
    gauge.exp-identity at dim 4, whose series needs 1/2!."""
    ctx = {"dim": 3, "field": spec,
           "quadratic": {"diag": ["1", "-2/3", "0"], "polar_upper": [["1/3", "2"], ["-1"]]}}
    u = _terms(((), "2"), ((1,), "-1/3"), ((2, 3), "4"), ((1, 2, 3), "5/3"))
    v = _terms(((1,), "1"), ((1, 3), "-2/5"), ((2,), "3"))
    halves = _terms(((), "1/2"), ((2,), "3/2"))
    form = {"dim": 3, "field": spec,
            "entries": [["1", "1/3", "0"], ["-2", "0", "4/5"], ["0", "-1", "2"]]}
    two_form = {"dim": 3, "field": spec, "coeffs": [["2/3", "-1"], ["5"]]}
    matrix = {"dim": 4, "field": spec, "entries": [
        ["0", "2", "1/3", "5"], ["-2", "0", "7", "-4/5"],
        ["-1/3", "-7", "0", "1"], ["-5", "4/5", "-1", "0"]]}
    payloads = [
        (["product"], {"context": ctx, "u": u, "v": v}),
        (["product"], {"context": ctx, "u": halves, "v": u}),
        (["product"], {"context": ctx, "u": _terms(((1,), "1/0")), "v": v}),
        (["deform"], {"context": ctx, "form": form, "element": u}),
        (["twist"], {"context": ctx, "form": form, "u": u, "v": v}),
        (["symbol"], {"context": ctx, "element": u}),
        (["quantize"], {"context": ctx, "element": v}),
        (["exp-contract"], {"context": ctx, "two_form": two_form, "element": u}),
        (["rho"], {"form": form, "element": u}),
        (["pfaffian"], {"matrix": matrix}),
    ]
    checks = [["check", cid, "--seed", "5", "--samples", "3", "--field", spec]
              for cid in ("bl.group-law", "twist.vector-case", "gauge.exp-identity",
                          "rho.homomorphism")]
    checks += [["check", "--list"], ["check", "rho.homomorphism", "--dim", "9"]]
    return [(argv, json.dumps(p)) for argv, p in payloads] + [(argv, "") for argv in checks]


CLI_DIGESTS = {
    "Q": "ee7673687f35304b6a3048856b4bde9a75f4f13f2fd71ab3506661158c497dbb",
    "Fp:2": "5d5c461038004b0e3036bf1cc6f291cf9c79f064912a0865a65ad7f239a27724",
    "Fp:7": "35796360c637826b1d48662f5a923a15428bddd9b80d7a8106b8cd167c5d2962",
}


@pytest.mark.parametrize("spec", list(CLI_DIGESTS))
def test_cli_reply_digests(spec, monkeypatch, capsys):
    """(exit code, stdout, stderr) of each request over one field; the
    requests cover every subcommand and every exit code but 141."""
    requests = _requests(spec)
    assert {argv[0] for argv, _ in requests} == {
        "product", "deform", "twist", "symbol", "quantize", "exp-contract", "rho",
        "pfaffian", "check"}
    replies = []
    for argv, text in requests:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        replies.append([code, *capsys.readouterr()])
    assert {code for code, _, _ in replies} == {0, 1, 2}
    assert _digest(replies) == CLI_DIGESTS[spec]


# ------------------------------------------------ representation matrices

VALUES = [Fraction(1, 7), Fraction(-5, 11), Fraction(3, 13), Fraction(9, 2), 2, -1, 0]


def _value(rng, field):
    return rng.choice(VALUES) if field.char == 0 else rng.randrange(field.char)


def _form(rng, ctx):
    n = ctx.dim
    return BilinearForm.make(ctx, [[_value(rng, ctx.field) for _ in range(n)] for _ in range(n)])


def _elt(rng, cctx, terms):
    """terms random blades with nonzero coefficients; over Q the first
    coefficient is a Fraction."""
    field = cctx.field
    blades = sorted({index_subset(rng.randrange(1 << cctx.dim)) for _ in range(terms)})
    coeffs = [_value(rng, field) or 1 for _ in blades]
    if field.char == 0:
        coeffs[0] = Fraction(-5, 11)
    return CliffElt(cctx, {b: field(c) for b, c in zip(blades, coeffs)})


def _strs(m):
    return [[str(v) for v in row] for row in m]


def _rep_json(spec):
    """Every matrix builder and product at n = 1..5: rho of u, v, the
    zero element and u's even part, the generator and twist matrices,
    products (one by the zero matrix), an equivalence report, and
    restrictions to the whole space in the basis of the twist matrix's
    columns and to the even subspace."""
    field = Field.from_spec(spec)
    out = []
    for n in range(1, 6):
        rng = random.Random(f"rep/{spec}/{n}")
        ctx = AlgebraContext(n, field)
        F = _form(rng, ctx)
        upper = _form(rng, ctx).rows
        A = BilinearForm.make(ctx, [[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                     for j in range(n)] for i in range(n)])
        cctx = CliffordContext(quad_of_bilinear(F))
        u, v, zero = _elt(rng, cctx, 4), _elt(rng, cctx, 2), CliffElt.zero(cctx)
        u_even = CliffElt.unit(cctx) + u.grade_part(0) + u.grade_part(2) + u.grade_part(4)
        rho_u, rho_v, rho_0 = rho_matrix(F, u), rho_matrix(F, v), rho_matrix(F, zero)
        twist, gens = twist_matrix(A), generator_matrices(F)
        full = [list(col) for col in zip(*twist.entries)]
        even = [[field.one if r == c else field.zero for r in range(1 << n)]
                for c in range(1 << n) if not c.bit_count() & 1]
        out.append({
            "rho": [m.to_json() for m in (rho_u, rho_v, rho_0, rho_matrix(F, u_even))],
            "generators": [m.to_json() for m in gens],
            "twist": twist.to_json(),
            "products": [(rho_u * rho_v).to_json(), (rho_v * rho_u).to_json(),
                         (rho_u * rho_0).to_json(), (twist * rho_u * twist).to_json()],
            "equivalence": check_equivalence(F, A, [u, v, zero], seed=n).to_json(),
            "restrict_full": [_strs(m) for m in restrict_matrices([rho_u, twist, *gens], full)],
            "restrict_even": [_strs(m) for m in restrict_matrices(
                [rho_matrix(F, u_even), EndoMatrix.identity(ctx)], even)],
        })
    return out



REP_DIGESTS = {
    "Q": "132a6723baf8977464eb1ae90dade09394eecfd1a5a36a59840796a4e38a17b4",
    "Fp:2": "81412201689280ad65a45afbd4b6c18d9a8471e88411fe77692ee226f7347679",
    "Fp:3": "9caec0345d3c0592e4a05b8d2e361673236249b07f07af698f050c99b3537de6",
    "Fp:7": "0d900001ceeceab54ff1faffa087ea03e57bda3811cd606e244f0fede83dd503",
}


@pytest.mark.parametrize("spec", list(REP_DIGESTS))
def test_rep_digests(spec):
    assert _digest(_rep_json(spec)) == REP_DIGESTS[spec]


# ------------------------------------------------ dense kernels

def _dense_json(spec):
    """Dense u * v and deform_apply (every blade drawn), and
    tensor.deform_apply on six-term elements of words up to length 5,
    at n = 6 and 8."""
    field = Field.from_spec(spec)
    out = []
    for n in (6, 8):
        rng = random.Random(f"dense/{spec}/{n}")
        ctx = AlgebraContext(n, field)
        q = QuadraticForm.make(ctx, [_value(rng, field) for _ in range(n)],
                               [[_value(rng, field) for _ in range(n - 1 - i)]
                                for i in range(n - 1)])
        F = _form(rng, ctx)
        cctx = CliffordContext(q)

        def dense(home):
            return CliffElt(home, {index_subset(m): field(_value(rng, field))
                                   for m in range(1 << n)})

        def words():
            return TensorElt(ctx, {tuple(rng.randint(1, n) for _ in range(rng.randint(0, 5))):
                                   field(_value(rng, field) or 1) for _ in range(6)})

        u, v = dense(cctx), dense(cctx)
        out.append([(u * v).to_json(), deform_apply(F, dense(cctx.shift(F)), v).to_json(),
                    tensor_deform_apply(F, words(), words()).to_json()])
    return out


DENSE_DIGESTS = {
    "Q": "914f558ac55b98e25d9def2aef72829daf0f9047f35a7aff7af2b26f632b61b2",
    "Fp:2": "4662eff03ed574faf018f05f2ca282da2c1a2b700e635389a19d03a63132e979",
    "Fp:7": "670b47a4898d7bf0fa12cb9bda3fcf2631b6de9f7a18de1c336d6f5bc1ad4dbd",
}


@pytest.mark.parametrize("spec", list(DENSE_DIGESTS))
def test_dense_digests(spec):
    assert _digest(_dense_json(spec)) == DENSE_DIGESTS[spec]


def _split_json(spec):
    """Dense u * v, deform_apply and twisted_mul (every blade drawn, no
    zero coefficient) at n = 9 and 10, where the packed sum splits each
    blade at letter 4 and 5."""
    field = Field.from_spec(spec)
    out = []
    for n in (9, 10):
        rng = random.Random(f"split/{spec}/{n}")
        ctx = AlgebraContext(n, field)
        q = QuadraticForm.make(ctx, [_value(rng, field) for _ in range(n)],
                               [[_value(rng, field) for _ in range(n - 1 - i)]
                                for i in range(n - 1)])
        F = _form(rng, ctx)
        cctx = CliffordContext(q)

        def dense(home):
            return CliffElt(home, {index_subset(m): field(_value(rng, field) or 1)
                                   for m in range(1 << n)})

        u, v = dense(cctx), dense(cctx)
        out.append([(u * v).to_json(), deform_apply(F, dense(cctx.shift(F)), v).to_json(),
                    twisted_mul(F, dense(cctx), v).to_json()])
    return out


SPLIT_DIGESTS = {
    "Q": "5d5ccd099410cc5fb0beceee0de072a0dce60d70807c2cc395ea9a2b242d287c",
    "Fp:2": "a7e9e56a38241f4270937567a2beb63b16b80eb90e1f56c57d3feb4516266209",
    "Fp:7": "28abb250cdf9b9e3848f116287a1920899d9138dc689816d90e9b7c1b9dd86e0",
}


@pytest.mark.parametrize("spec", list(SPLIT_DIGESTS))
def test_split_sum_digests(spec):
    assert _digest(_split_json(spec)) == SPLIT_DIGESTS[spec]


# ------------------------------------------------ dense kernels, wide values

# 2^61 - 1: residues far wider than a machine word
MERSENNE_61 = f"Fp:{(1 << 61) - 1}"


def _wide_value(rng, field, dens):
    """A nonzero value: over Q a 60-digit numerator over one of dens, so
    the kernel's common denominators and integers are wide."""
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.getrandbits(200) - (1 << 199) or 1, rng.choice(dens))


def _wide_json(spec):
    """Dense twisted_mul at n = 5 and 6, dense interior at n = 6 and a
    dense product at n = 7 (every blade drawn), with wide values: 60-digit
    rationals over Q, residues mod 2^61 - 1 over GF(2^61 - 1)."""
    field = Field.from_spec(spec)
    rng = random.Random(f"wide/{spec}")
    dens = [rng.getrandbits(200) | 1 for _ in range(3)]

    def value():
        return _wide_value(rng, field, dens)

    def algebra(n):
        ctx = AlgebraContext(n, field)
        q = QuadraticForm.make(ctx, [value() for _ in range(n)],
                               [[value() for _ in range(n - 1 - i)] for i in range(n - 1)])
        return ctx, CliffordContext(q)

    def dense(home, n):
        return CliffElt(home, {index_subset(m): field(value()) for m in range(1 << n)})

    out = []
    for n in (5, 6):
        ctx, cctx = algebra(n)
        F = BilinearForm.make(ctx, [[value() for _ in range(n)] for _ in range(n)])
        out.append(twisted_mul(F, dense(cctx, n), dense(cctx, n)).to_json())
    ctx, cctx = algebra(6)
    out.append(interior(dense(CliffordContext.exterior(ctx), 6), dense(cctx, 6)).to_json())
    ctx, cctx = algebra(7)
    out.append((dense(cctx, 7) * dense(cctx, 7)).to_json())
    return out


WIDE_DIGESTS = {
    "Q": "1324a7b45823fd9d5048a52e4e94c3737bf247d265f0a51ba10baaa18ea2f3ba",
    MERSENNE_61: "38772dd0c05278f7889a2a7127efd97309b5b3a3d6259ae16b5ff488c8dce59b",
    "Fp:2": "18e72112fb8698d1bc34926bb18fc7da19dd0e6207bdf1d2ff42c2c909ee7f1f",
}


@pytest.mark.parametrize("spec", list(WIDE_DIGESTS))
def test_wide_dense_digests(spec):
    assert _digest(_wide_json(spec)) == WIDE_DIGESTS[spec]


# ------------------------------------------------ pair contractions

def _pairs_json(spec):
    """Dense deform, symbol, quantize and exp_contract at n = 7 and 8
    (every blade drawn), and deform and exp_contract on exactly
    2^(n - 1) and on 2^(n - 1) - 1 blades, the two sides of the dense
    rule; over Q with 60-digit rationals."""
    field = Field.from_spec(spec)
    rng = random.Random(f"pairs/{spec}")
    dens = [rng.getrandbits(200) | 1 for _ in range(3)]

    def value():
        return _wide_value(rng, field, dens)

    def elt(home, masks):
        return CliffElt(home, {index_subset(m): field(value()) for m in masks})

    out = []
    for n in (7, 8):
        ctx = AlgebraContext(n, field)
        cctx = CliffordContext(QuadraticForm.make(
            ctx, [value() for _ in range(n)],
            [[value() for _ in range(n - 1 - i)] for i in range(n - 1)]))
        F = BilinearForm.make(ctx, [[value() for _ in range(n)] for _ in range(n)])
        astar = DualTwoForm.make(ctx, [[value() for _ in range(n - 1 - i)]
                                       for i in range(n - 1)])
        dense = elt(cctx, range(1 << n))
        out.append([deform(F, dense).to_json(), symbol(dense).to_json(),
                    quantize(cctx, elt(CliffordContext.exterior(ctx), range(1 << n))).to_json(),
                    exp_contract(astar, dense).to_json()])
        for size in (1 << (n - 1), (1 << (n - 1)) - 1):
            w = elt(cctx, sorted(rng.sample(range(1 << n), size)))
            out.append([deform(F, w).to_json(), exp_contract(astar, w).to_json()])
    return out


PAIR_DIGESTS = {
    "Q": "89533efbb57dc31d2bc17095289e42812aca4ae2d0ce0597b9d9cf5c70fd36c3",
    "Fp:3": "881955d3eb2cde38e7fba1a6bcc7eed9a621f19bd5612fcccffb2c324abea9a2",
    "Fp:7": "b62d4b4d790e44e4b1416093c171a2d9673222e736e38ae7a5c16192264d8313",
    MERSENNE_61: "591a1088425351ebefbfc05b987a51a9e63fdfa971ddd967af31a10e8c991050",
}


@pytest.mark.parametrize("spec", list(PAIR_DIGESTS))
def test_pair_contraction_digests(spec):
    assert _digest(_pairs_json(spec)) == PAIR_DIGESTS[spec]

"""Byte-identity gate: digests of suite results and CLI replies.

The default and GF(7) suite digests and the CLI digests were computed
before integral rationals were stored as ints (when every Q value was
a Fraction); the GF(2), GF(3) and dim=2 passes and the draw digests
before the sample loop moved out of the suites into run_check; the
representation-matrix and dense-kernel digests while EndoMatrix held
a dense tuple of Scalar rows and rho_matrix walked one column at a
time.  A
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
                         EndoMatrix, Field, QuadraticForm, TensorElt, check_equivalence, checks, deform_apply,
                         generator_matrices, index_subset, list_checks, quad_of_bilinear,
                         restrict_matrices, rho_matrix, run_check, tensor_deform_apply,
                         twist_matrix)
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
    "Fp:7": "b35d06b4a4367cca308b8760c2fa84059c3f5d970a48d05bfc388a1bd8974f3d",
    "Fp:2": "26752e0daf93d76fb1d34f843655e53873b48dee527d7eeb54757e2057198b30",
    "Fp:3": "b35d06b4a4367cca308b8760c2fa84059c3f5d970a48d05bfc388a1bd8974f3d",
    "dim=2": "5b16e34a119449a27f81b0357db2af585a2d878ebb4e5eb63d4295b9fb8733e1",
}

# A result of passing samples says only how many there were (GF(3) and
# GF(7) give the same digest), so each run's next draw of its seeded
# generator is digested too: drawing the samples in another order or
# number changes it even when every sample passes.
DRAW_DIGESTS = {
    "default": "1abdfa4f793b63c7b0138007abebef4f971da89d3199ecdcfb8df1a5a64adbab",
    "Fp:7": "7ad55727e18b95628d5ea0564a82fa3de0a2d3cd8dc84fcae2b2e700adab7906",
    "Fp:2": "fd939d393ddd1160ecbdae83fb21bc4fa7d0966b385f5e7d37f569a920312a0a",
    "Fp:3": "7a8009168edb0e998e83b918f54fecbfa223b2914fac3eb36ac5c5526555ad37",
    "dim=2": "a950822e893a761563d39a2ea8d763b7cba2d4c0af966c777bd30cfae34d089f",
}


@pytest.mark.parametrize("name", list(SUITE_PASSES))
def test_suite_digests(name, monkeypatch):
    """run_check(id, seed=3) of every suite in each pass; a suite the
    pass's field or dim does not suit contributes its error."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(checks, "random", SimpleNamespace(Random=Recorded))
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


def _terms(*pairs):
    return {"terms": [{"blade": list(b), "coeff": c} for b, c in pairs]}


def _requests(spec):
    """(argv, request text) of every subcommand over one field; over
    GF(2) the symbol maps refuse, and so does exp-contract outside Q."""
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
    "Fp:2": "6f82c721484e710b940d37dc3def3de1b8970a28fa86cdbd1348867ee65ab8cb",
    "Fp:7": "fa8fb4a752443ae53b88cb2d4e29555b1407a7cc070150b62e5ace86f83cf19f",
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

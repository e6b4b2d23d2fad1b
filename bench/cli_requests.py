"""The cli-requests workload: seeded JSON requests and their checks.

A round is a fixed list of 50 requests: 38 small ones, each with its own
random context (n = 2..5, 1..4 terms), a fixed minority of 8 heavy ones
(dense elements at n = 5..6, rho at n = 6), and the 4 malformed requests,
which do not depend on the seed.  Every request
comes with a check of the program's reply against reference.py.
"""

from __future__ import annotations

import json

import gen
import reference as ref

# (subcommand, field) -> small requests per round, over every field on
# which the subcommand is defined (symbol/quantize need char != 2,
# exp-contract needs char 0)
SMALL_MIX = {}
for _p in (0, 2, 7):
    SMALL_MIX.update({("product", _p): 3, ("deform", _p): 2, ("twist", _p): 2,
                      ("rho", _p): 1, ("pfaffian", _p): 1})
SMALL_MIX.update({("product", 0): 4, ("twist", 7): 3, ("symbol", 0): 1, ("symbol", 7): 1,
                  ("quantize", 0): 1, ("quantize", 7): 1, ("exp-contract", 0): 2})
# `check` requests: (suite, field, --field given, samples); the others
# run at their default field
CHECK_MIX = [("bl.group-law", 0, False, 5), ("twist.vector-case", 7, True, 5),
             ("char2.bl-suite", 2, False, 3)]
# (subcommand, field, n, terms or None for dense): the heavy minority
HEAVY_MIX = [("product", 0, 5, None), ("product", 7, 6, None), ("twist", 0, 5, None),
             ("twist", 7, 6, None), ("deform", 0, 6, None), ("symbol", 0, 6, None),
             ("rho", 0, 6, 4), ("rho", 7, 6, 4)]

HYPERBOLIC = {"dim": 2, "field": "Q",
              "quadratic": {"diag": ["0", "0"], "polar_upper": [["1"]]}}


def _product_with(term):
    return json.dumps({"context": HYPERBOLIC, "u": {"terms": [term]},
                       "v": {"terms": [{"blade": [2], "coeff": "1"}]}})


# Malformed requests, fixed text.  The documented outcome of each is exit
# 2 with a one-line message on stderr and nothing on stdout.
MALFORMED = [
    ("malformed.coeff-number", ["product"], _product_with({"blade": [1], "coeff": 1.5})),
    ("malformed.blade-bool", ["product"], _product_with({"blade": [True], "coeff": "1"})),
    ("malformed.coeff-decimal", ["product"], _product_with({"blade": [1], "coeff": "1.5"})),
    ("malformed.samples-negative", ["check", "scalars.field-axioms", "--samples", "-3"], ""),
]


class Request:
    """argv after `cliffbundle`, stdin text, field, and a check of
    (exit code, stdout, stderr) that returns an error message or None."""

    def __init__(self, name, argv, stdin, p, check, malformed=False):
        self.name, self.argv, self.stdin, self.p = name, argv, stdin, p
        self.check, self.malformed = check, malformed


def _reply(code, out, err):
    if code != 0:
        return None, f"exit {code}: {err.strip()[-200:]}"
    if err:
        return None, "unexpected stderr"
    try:
        body = json.loads(out)
    except ValueError:
        return None, "stdout is not JSON"
    if body.get("schema") != "cliff-bundle/1":
        return None, "missing schema"
    return body, None


def _expect_elt(key, p, want):
    def check(code, out, err):
        body, bad = _reply(code, out, err)
        if bad:
            return bad
        if gen.elt_from_json(p, body[key]) != want:
            return f"{key} differs from the reference"
        return None
    return check


def _request(rng, kind, p, n, terms):
    """One request; its elements have the given number of terms, or
    1..4 at random when terms == 0, or every blade when terms is None."""
    make = (lambda: gen.dense(rng, p, n)) if terms is None else (
        lambda: gen.sparse(rng, p, n, terms or rng.randint(1, 4)))
    diag, upper = gen.quadratic(rng, p, n)
    context = gen.context_json(p, n, diag, upper)
    name = f"{kind}.n{n}" + (".dense" if terms is None else "")
    if kind == "product":
        u, v = make(), make()
        return Request(name, [kind], json.dumps(
            {"context": context, "u": gen.elt_json(u), "v": gen.elt_json(v)}), p,
            _expect_elt("product", p, ref.product(p, n, diag, upper, u, v)))
    if kind == "deform":
        f, w = gen.bilinear(rng, p, n), make()
        return Request(name, [kind], json.dumps(
            {"context": context, "form": gen.form_json(p, f), "element": gen.elt_json(w)}), p,
            _expect_elt("element", p, ref.deform(p, n, diag, upper, f, w)))
    if kind == "twist":
        f, u, v = gen.bilinear(rng, p, n), make(), make()
        return Request(name, [kind], json.dumps(
            {"context": context, "form": gen.form_json(p, f),
             "u": gen.elt_json(u), "v": gen.elt_json(v)}), p,
            _expect_elt("product", p, ref.twisted(p, n, diag, upper, f, u, v)))
    if kind == "symbol":
        w = make()
        return Request(name, [kind], json.dumps({"context": context, "element": gen.elt_json(w)}),
                       p, _expect_elt("element", p, ref.symbol(p, n, diag, upper, w)))
    if kind == "quantize":
        e = make()
        return Request(name, [kind], json.dumps({"context": context, "element": gen.elt_json(e)}),
                       p, _expect_elt("element", p, ref.quantize(p, n, diag, upper, e)))
    if kind == "exp-contract":
        coeffs, w = gen.two_form(rng, p, n), make()
        return Request(name, [kind], json.dumps(
            {"context": context, "two_form": gen.two_form_json(p, n, coeffs),
             "element": gen.elt_json(w)}), p,
            _expect_elt("element", p, ref.exp_contract(p, n, diag, upper, coeffs, w)))
    if kind == "rho":
        f, u = gen.bilinear(rng, p, n), make()
        return Request(name, [kind], json.dumps(
            {"form": gen.form_json(p, f), "element": gen.elt_json(u)}), p,
            _rho_check(p, n, ref.act(p, f, u, ref.UNIT)))
    if kind == "pfaffian":
        a = gen.alternating(rng, p, n)
        return Request(name, [kind], json.dumps({"matrix": gen.form_json(p, a)}), p,
                       _pfaffian_check(p, ref.det(p, a)))
    raise ValueError(kind)


def _rho_check(p, n, first_column):
    """rho's first column is deform(F, u), here from the reference."""
    def check(code, out, err):
        body, bad = _reply(code, out, err)
        if bad:
            return bad
        m = body["matrix"]
        if len(m) != 1 << n or any(len(row) != 1 << n for row in m):
            return "rho matrix has the wrong size"
        col = {k: c for k, c in ((k, gen.parse_scalar(p, row[0])) for k, row in enumerate(m)) if c}
        return None if col == first_column else "rho's first column is not deform(F, u)"
    return check


def _pfaffian_check(p, det):
    def check(code, out, err):
        body, bad = _reply(code, out, err)
        if bad:
            return bad
        pf = gen.parse_scalar(p, body["pfaffian"])
        return None if ref.reduce(p, pf * pf) == det else "pfaffian squared is not the determinant"
    return check


def _suite_check(samples):
    def check(code, out, err):
        body, bad = _reply(code, out, err)
        if bad:
            return bad
        if body["samples"] != samples or body["failed"] != 0 or body["passed"] != samples:
            return f"suite reported {body['passed']}/{body['samples']} passed"
        return None
    return check


def malformed_check(code, out, err):
    """Exit 2, one line on stderr, no traceback, nothing on stdout."""
    if code != 2:
        return f"exit {code}, expected 2"
    if out:
        return "output on stdout"
    if "Traceback" in err or len(err.strip().splitlines()) != 1:
        return "stderr is not one line"
    return None


def judge(req, code, out, err):
    """(failed, error or None) for one reply.  Only a malformed request
    can fail: it fails unless refused as documented.  Any other request
    whose reply does not pass its check, a crash or any other non-zero
    exit included, is an error, which makes the run incorrect."""
    problem = req.check(code, out, err)
    if req.malformed:
        return problem is not None, None
    return False, problem


def round_requests(seed: int, rnd: int):
    """The requests of one round, in a fixed seeded order."""
    rng = gen.rng_for("cli-requests", seed, rnd)
    reqs = []
    for (kind, p), count in SMALL_MIX.items():
        for _ in range(count):
            n = rng.choice((2, 4)) if kind == "pfaffian" else rng.randint(2, 5)
            reqs.append(_request(rng, kind, p, n, terms=0))
    for suite, p, explicit, samples in CHECK_MIX:
        argv = ["check", suite, "--seed", str(rng.randrange(1 << 30)), "--samples", str(samples)]
        if explicit:
            argv += ["--field", gen.FIELD_NAMES[p]]
        reqs.append(Request(f"check.{suite}", argv, "", p, _suite_check(samples)))
    for kind, p, n, terms in HEAVY_MIX:
        reqs.append(_request(rng, kind, p, n, terms))
    rng.shuffle(reqs)
    for name, argv, text in MALFORMED:
        reqs.append(Request(name, argv, text, 0, malformed_check, malformed=True))
    return reqs

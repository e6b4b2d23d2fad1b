"""Test of the benchmark's checks: each accepts a correct result and
rejects a corrupted one (a coefficient changed, a blade dropped, an exit
code altered).  Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cliffbundle as cb  # noqa: E402
import cli_requests as cr  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
import inprocess  # noqa: E402

PROBLEMS = []


def expect(label, ok):
    if not ok:
        PROBLEMS.append(label)


def corruptions(p, elt: dict):
    """One coefficient changed, one blade dropped (a blade added to zero)."""
    if not elt:
        return [("blade added", {0: 1})]
    first = min(elt)
    changed = dict(elt)
    if p == 2:  # over GF(2) the only other value is 0: set an absent blade to 1
        changed[next(m for m in range(len(elt) + 1) if m not in elt)] = 1
    else:
        changed[first] = ref.reduce(p, changed[first] + 1)
    dropped = {m: c for m, c in elt.items() if m != first}
    return [("coefficient changed", ref.clean(p, changed)), ("blade dropped", dropped)]


def reply(key, elt):
    return json.dumps({key: gen.elt_json(elt), "schema": "cliff-bundle/1"})


def test_cli_checks():
    for p in (0, 2, 7):
        for seed in range(3):
            rng = gen.rng_for("selftest", p, seed)
            for kind in ("product", "deform", "twist", "symbol", "quantize", "exp-contract"):
                if (kind in ("symbol", "quantize") and p == 2) or (kind == "exp-contract" and p):
                    continue
                req = cr._request(rng, kind, p, 3, terms=None)
                key = "product" if kind in ("product", "twist") else "element"
                want = _run_library(kind, req)
                expect(f"{kind} p={p}: correct reply accepted", req.check(0, reply(key, want), "") is None)
                for what, bad in corruptions(p, want):
                    expect(f"{kind} p={p}: {what} rejected", req.check(0, reply(key, bad), "") is not None)
                expect(f"{kind} p={p}: exit 1 rejected", req.check(1, reply(key, want), "") is not None)


def _run_library(kind, req):
    """The program's answer to a request, computed in-process."""
    data = json.loads(req.stdin)
    cctx = cb.CliffordContext.from_json(data["context"])
    if kind == "product":
        return gen.from_program(cb.CliffElt.from_json(cctx, data["u"])
                                * cb.CliffElt.from_json(cctx, data["v"]))
    if kind == "deform":
        F = cb.BilinearForm.from_json(data["form"], cctx.ctx)
        w = cb.CliffElt.from_json(cctx.shift(F), data["element"])
        return gen.from_program(cb.deform(F, w, target=cctx))
    if kind == "twist":
        F = cb.BilinearForm.from_json(data["form"], cctx.ctx)
        return gen.from_program(cb.twisted_mul(F, cb.CliffElt.from_json(cctx, data["u"]),
                                               cb.CliffElt.from_json(cctx, data["v"])))
    if kind == "symbol":
        return gen.from_program(cb.symbol(cb.CliffElt.from_json(cctx, data["element"])))
    if kind == "quantize":
        ext = cb.CliffordContext.exterior(cctx.ctx)
        return gen.from_program(cb.quantize(cctx, cb.CliffElt.from_json(ext, data["element"])))
    astar = cb.DualTwoForm.from_json(data["two_form"], cctx.ctx)
    return gen.from_program(cb.exp_contract(astar, cb.CliffElt.from_json(cctx, data["element"])))


def test_rho_pfaffian_suite_malformed():
    rng = gen.rng_for("selftest", "rho")
    for p in (0, 7):
        req = cr._request(rng, "rho", p, 3, terms=0)
        data = json.loads(req.stdin)
        F = cb.BilinearForm.from_json(data["form"])
        u = cb.CliffElt.from_json(cb.CliffordContext(cb.quad_of_bilinear(F)), data["element"])
        m = cb.rho_matrix(F, u).to_json()["matrix"]
        body = lambda mat: json.dumps({"matrix": mat, "schema": "cliff-bundle/1"})  # noqa: E731
        expect(f"rho p={p}: correct accepted", req.check(0, body(m), "") is None)
        bad = [row[:] for row in m]
        bad[0][0] = str(gen.parse_scalar(p, bad[0][0]) + 1)
        expect(f"rho p={p}: first column changed rejected", req.check(0, body(bad), "") is not None)

        req = cr._request(rng, "pfaffian", p, 4, terms=0)
        pf = cb.pfaffian(cb.BilinearForm.from_json(json.loads(req.stdin)["matrix"]))
        good = json.dumps({"pfaffian": str(pf), "schema": "cliff-bundle/1"})
        off = json.dumps({"pfaffian": str(pf.value + 1), "schema": "cliff-bundle/1"})
        expect(f"pfaffian p={p}: correct accepted", req.check(0, good, "") is None)
        expect(f"pfaffian p={p}: changed rejected", req.check(0, off, "") is not None)

    check = cr._suite_check(5)
    ok = {"samples": 5, "passed": 5, "failed": 0, "schema": "cliff-bundle/1"}
    expect("suite: clean result accepted", check(0, json.dumps(ok), "") is None)
    expect("suite: a failed sample rejected",
           check(0, json.dumps(dict(ok, passed=4, failed=1)), "") is not None)
    expect("suite: fewer samples rejected",
           check(0, json.dumps(dict(ok, samples=4, passed=4)), "") is not None)

    good = (2, "", "cliffbundle: malformed input: bad scalar literal '1.5'\n")
    expect("malformed: documented outcome accepted", cr.malformed_check(*good) is None)
    expect("malformed: exit 0 rejected", cr.malformed_check(0, "", good[2]) is not None)
    expect("malformed: exit 1 rejected", cr.malformed_check(1, "", good[2]) is not None)
    expect("malformed: stdout rejected", cr.malformed_check(2, "{}", good[2]) is not None)
    expect("malformed: traceback rejected", cr.malformed_check(
        2, "", "Traceback (most recent call last):\n  x\nAttributeError: y\n") is not None)


def test_library_checks():
    """The dense-kernels checks, on the same operations at n = 3."""
    for p in (0, 7):
        rng = gen.rng_for("selftest", "dense", p)
        a = inprocess.algebra(cb, p, 3, *gen.quadratic(rng, p, 3), gen.bilinear(rng, p, 3))
        kinds = ["mul", "deform", "deform_apply", "twisted_mul", "symbol", "quantize"]
        kinds += ["exp_contract"] if p == 0 else []
        for kind in kinds:
            extra = (gen.vector(rng, p, 3) if kind == "deform" else
                     gen.two_form(rng, p, 3) if kind == "exp_contract" else None)
            name, _, thunk, check = inprocess._dense_op(
                cb, a, kind, gen.dense(rng, p, 3), gen.dense(rng, p, 3), extra)
            out = thunk()
            expect(f"{name} p={p}: correct accepted", check(out))
            for what, bad in corruptions(p, gen.from_program(out)):
                expect(f"{name} p={p}: {what} rejected", not check(a.elt(out.cctx, bad)))

    for p in (0, 7):
        rng = gen.rng_for("selftest", "probe", p)
        for _ in range(20):
            name, _, thunk, check = inprocess._probe_op(cb, p, *inprocess._probe_input(rng, p))
            mats, report, restricted = thunk()
            if report.bases:
                break
        expect(f"{name} p={p}: correct accepted", check((mats, report, restricted)))
        basis = [list(v) for v in report.bases[0]]
        basis[0] = [x + 1 for x in basis[0]]
        moved = type(report)(report.seed, report.dims, (tuple(basis),) + report.bases[1:])
        expect(f"{name} p={p}: a moved subspace rejected", not check((mats, moved, restricted)))

    class Result:
        samples, passed, failed, failures = 5, 5, 0, []
    expect("run_check: clean result accepted", inprocess._suite_ok(Result()))
    Result.passed, Result.failed, Result.failures = 4, 1, ["x"]
    expect("run_check: a failed sample rejected", not inprocess._suite_ok(Result()))


def test_crashes():
    """A crash is an error, not a failed operation; only a malformed
    request that is not refused as documented counts as failed."""
    req = cr._request(gen.rng_for("selftest", "crash"), "product", 0, 3, terms=0)
    trace = "Traceback (most recent call last):\n  x\nAttributeError: y\n"
    failed, problem = cr.judge(req, 1, "", trace)
    expect("request: a crash is an error", not failed and problem is not None)
    failed, problem = cr.judge(req, 2, "", "cliffbundle: malformed input\n")
    expect("request: a refusal is an error", not failed and problem is not None)
    name, argv, text = cr.MALFORMED[0]
    bad = cr.Request(name, argv, text, 0, cr.malformed_check, malformed=True)
    expect("malformed: a crash counts as failed", cr.judge(bad, 1, "", trace) == (True, None))
    expect("malformed: the documented refusal does not fail",
           cr.judge(bad, 2, "", "cliffbundle: malformed input\n") == (False, None))

    def boom():
        raise ZeroDivisionError("x")
    ops = [("ok", 0, lambda: 1, lambda out: out == 1), ("boom", 7, boom, lambda out: True),
           ("wrong", 0, lambda: 2, lambda out: out == 1)]
    records, errors = inprocess.run_ops(ops)
    expect("operation: one that raises is an error", any(e.startswith("boom: raised") for e in errors))
    expect("operation: a wrong result is an error", any(e.startswith("wrong:") for e in errors))
    expect("operation: only the bad ones are errors", len(errors) == 2)
    expect("operation: none counts as failed", not any(r[3] for r in records))


def main() -> int:
    test_cli_checks()
    test_rho_pfaffian_suite_malformed()
    test_library_checks()
    test_crashes()
    for label in PROBLEMS:
        print(f"FAIL {label}")
    print("selftest:", "ok" if not PROBLEMS else f"{len(PROBLEMS)} problems")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

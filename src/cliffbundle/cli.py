"""JSON-in / JSON-out command line interface.

Every subcommand reads one JSON request (from --input or standard
input), writes one JSON response to standard output with a top-level
"schema" key, and exits 0 on success, 1 on a domain error (with a
structured error response), 2 on malformed input, or 141 (128 + SIGPIPE)
when the reader closes standard output before the response is written.
Identical request and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, repcheck
from .clifford import (CliffElt, CliffordContext, deform, exp_contract,
                       quantize, symbol, twisted_mul)
from .errors import AlgebraError, ParseError
from .forms import BilinearForm, DualTwoForm, pfaffian, quad_of_bilinear

SCHEMA = "cliff-bundle/1"
EXIT_BROKEN_PIPE = 141


def _read_payload(args) -> dict:
    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except RecursionError:
        raise ParseError("request nests arrays or objects too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("request must be a JSON object")
    return data


def _emit(payload: dict):
    body = dict(payload)
    body["schema"] = SCHEMA
    sys.stdout.write(json.dumps(body, sort_keys=True, indent=2))
    sys.stdout.write("\n")
    sys.stdout.flush()


def _parsed(thunk):
    """Run a parsing step; shape and validation failures are malformed
    input (exit 2), never domain errors."""
    try:
        return thunk()
    except AlgebraError as exc:
        raise ParseError(str(exc)) from None


def _context(payload) -> CliffordContext:
    if "context" not in payload:
        raise ParseError("request needs a 'context' object")
    return CliffordContext.from_json(payload["context"])


def _cmd_product(args):
    payload = _read_payload(args)
    cctx = _parsed(lambda: _context(payload))
    u = _parsed(lambda: CliffElt.from_json(cctx, payload["u"]))
    v = _parsed(lambda: CliffElt.from_json(cctx, payload["v"]))
    return {"context": cctx.to_json(), "product": (u * v).to_json()}


def _cmd_deform(args):
    payload = _read_payload(args)
    target = _parsed(lambda: _context(payload))
    F = _parsed(lambda: BilinearForm.from_json(payload["form"], target.ctx))
    source = target.shift(F)
    elt = _parsed(lambda: CliffElt.from_json(source, payload["element"]))
    out = deform(F, elt, target=target)
    return {"context": target.to_json(), "element": out.to_json()}


def _cmd_pfaffian(args):
    payload = _read_payload(args)
    a = _parsed(lambda: BilinearForm.from_json(payload["matrix"]))
    return {"pfaffian": str(pfaffian(a))}


def _cmd_symbol(args):
    payload = _read_payload(args)
    cctx = _parsed(lambda: _context(payload))
    elt = _parsed(lambda: CliffElt.from_json(cctx, payload["element"]))
    return {"context": cctx.to_json(), "element": symbol(elt).to_json()}


def _cmd_quantize(args):
    payload = _read_payload(args)
    cctx = _parsed(lambda: _context(payload))
    ext = CliffordContext.exterior(cctx.ctx)
    elt = _parsed(lambda: CliffElt.from_json(ext, payload["element"]))
    return {"context": cctx.to_json(), "element": quantize(cctx, elt).to_json()}


def _cmd_twist(args):
    payload = _read_payload(args)
    cctx = _parsed(lambda: _context(payload))
    F = _parsed(lambda: BilinearForm.from_json(payload["form"], cctx.ctx))
    u = _parsed(lambda: CliffElt.from_json(cctx, payload["u"]))
    v = _parsed(lambda: CliffElt.from_json(cctx, payload["v"]))
    return {"context": cctx.to_json(), "product": twisted_mul(F, u, v).to_json()}


def _cmd_exp_contract(args):
    payload = _read_payload(args)
    cctx = _parsed(lambda: _context(payload))
    astar = _parsed(lambda: DualTwoForm.from_json(payload["two_form"], cctx.ctx))
    elt = _parsed(lambda: CliffElt.from_json(cctx, payload["element"]))
    return {"context": cctx.to_json(), "element": exp_contract(astar, elt).to_json()}


def _cmd_rho(args):
    payload = _read_payload(args)
    F = _parsed(lambda: BilinearForm.from_json(payload["form"]))
    cctx = CliffordContext(quad_of_bilinear(F))
    elt = _parsed(lambda: CliffElt.from_json(cctx, payload["element"]))
    return repcheck.rho_matrix(F, elt).to_json()


def _cmd_check(args):
    if args.list:
        return {"checks": checks.list_checks()}
    if not args.id:
        raise ParseError("check needs an identifier (or --list)")
    result = checks.run_check(args.id, seed=args.seed, samples=args.samples,
                              field=args.field, dim=args.dim)
    return result.to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffbundle",
        description="Exact Clifford-algebra computations over Q and GF(p), "
                    "JSON in / JSON out.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, payload=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if payload:
            p.add_argument("--input", metavar="PATH",
                           help="read the JSON request from PATH instead of stdin")
        return p

    add("product", _cmd_product, "multiply two elements of one Clifford algebra")
    add("deform", _cmd_deform,
        "apply the deformation map attached to a bilinear form F, from the "
        "algebra of Q+Q_F into the algebra of Q")
    add("pfaffian", _cmd_pfaffian, "Pfaffian of an alternating matrix")
    add("symbol", _cmd_symbol, "symbol map into the exterior algebra (char != 2)")
    add("quantize", _cmd_quantize,
        "quantization map from the exterior algebra (char != 2)")
    add("twist", _cmd_twist, "product twisted by a bilinear form")
    add("exp-contract", _cmd_exp_contract,
        "gauge transformation: exponential of the contraction by a dual two-form")
    add("rho", _cmd_rho,
        "matrix of an element acting on the exterior algebra through the "
        "deformation attached to F")

    p = add("check", _cmd_check, "run a named identity suite", payload=False)
    p.add_argument("id", nargs="?", help="check identifier, e.g. bl.group-law")
    p.add_argument("--list", action="store_true", help="list available checks")
    p.add_argument("--seed", type=int, default=0, metavar="K")
    p.add_argument("--samples", type=int, default=None, metavar="M")
    p.add_argument("--field", default=None, metavar="Q|Fp:<p>")
    p.add_argument("--dim", type=int, default=None, metavar="N")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _respond(args)
    except BrokenPipeError:
        # the reader has gone (`cliffbundle ... | head -1`): point stdout
        # at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _respond(args) -> int:
    try:
        payload = args.handler(args)
    except AlgebraError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    except KeyError as exc:
        print(f"cliffbundle: malformed input: missing key {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, TypeError, OSError) as exc:
        print(f"cliffbundle: malformed input: {exc}", file=sys.stderr)
        return 2
    _emit(payload)
    # a suite that found failures is a failed run even though the
    # response itself is well formed
    return 1 if payload.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())

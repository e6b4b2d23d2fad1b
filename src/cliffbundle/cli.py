"""JSON-in / JSON-out command line interface.

Every subcommand reads one JSON request (from --input or standard
input), writes one JSON response to standard output with a top-level
"schema" key, and exits 0 on success, 1 on a domain error while the
request is computed (with a structured error response), 2 on malformed
input or any error while the request is read, or 141 (128 + SIGPIPE)
when the reader closes standard output before the response is written.
Identical request and seed produce byte-identical output.  The command
line is read against one table, COMMANDS: a command line that does not
parse is malformed input too (exit 2, one line on standard error), and
-h or --help prints help built from the table and exits 0.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import checks, repcheck
from .clifford import (CliffElt, CliffordContext, deform, exp_contract,
                       quantize, symbol, twisted_mul)
from .errors import AlgebraError, ParseError
from .forms import BilinearForm, DualTwoForm, pfaffian, quad_of_bilinear
from .scalars import excerpt

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


def _context(payload) -> CliffordContext:
    if "context" not in payload:
        raise ParseError("request needs a 'context' object")
    return CliffordContext.from_json(payload["context"])


# Each handler reads its request (a payload command's JSON object, check's
# options) and returns the computation as a closure (see _respond).

def _cmd_product(payload):
    cctx = _context(payload)
    u = CliffElt.from_json(cctx, payload["u"])
    v = CliffElt.from_json(cctx, payload["v"])
    return lambda: {"context": cctx.to_json(), "product": (u * v).to_json()}


def _cmd_deform(payload):
    target = _context(payload)
    F = BilinearForm.from_json(payload["form"], target.ctx)
    elt = CliffElt.from_json(target.shift(F), payload["element"])
    return lambda: {"context": target.to_json(),
                    "element": deform(F, elt, target=target).to_json()}


def _cmd_pfaffian(payload):
    a = BilinearForm.from_json(payload["matrix"])
    return lambda: {"pfaffian": str(pfaffian(a))}


def _cmd_symbol(payload):
    cctx = _context(payload)
    elt = CliffElt.from_json(cctx, payload["element"])
    return lambda: {"context": cctx.to_json(), "element": symbol(elt).to_json()}


def _cmd_quantize(payload):
    cctx = _context(payload)
    elt = CliffElt.from_json(CliffordContext.exterior(cctx.ctx), payload["element"])
    return lambda: {"context": cctx.to_json(), "element": quantize(cctx, elt).to_json()}


def _cmd_twist(payload):
    cctx = _context(payload)
    F = BilinearForm.from_json(payload["form"], cctx.ctx)
    u = CliffElt.from_json(cctx, payload["u"])
    v = CliffElt.from_json(cctx, payload["v"])
    return lambda: {"context": cctx.to_json(), "product": twisted_mul(F, u, v).to_json()}


def _cmd_exp_contract(payload):
    cctx = _context(payload)
    astar = DualTwoForm.from_json(payload["two_form"], cctx.ctx)
    elt = CliffElt.from_json(cctx, payload["element"])
    return lambda: {"context": cctx.to_json(), "element": exp_contract(astar, elt).to_json()}


def _cmd_rho(payload):
    F = BilinearForm.from_json(payload["form"])
    elt = CliffElt.from_json(CliffordContext(quad_of_bilinear(F)), payload["element"])
    return lambda: repcheck.rho_matrix(F, elt).to_json()


def _cmd_check(args):
    if args.list:
        return lambda: {"checks": checks.list_checks()}
    if not args.id:
        raise ParseError("check needs an identifier (or --list)")
    return lambda: checks.run_check(args.id, seed=args.seed, samples=args.samples,
                                    field=args.field, dim=args.dim).to_json()


DESCRIPTION = ("Exact Clifford-algebra computations over Q and GF(p), "
               "JSON in / JSON out.")

# --input, the one option of the eight payload commands
_INPUT = {"input": ("PATH", str, None, "read the JSON request from PATH instead of stdin")}

# The command line, one row a subcommand: its handler, its help, its
# positional argument (name and help, or None) and its options,
# --name -> (metavar, converter, default, help).  A flag has no metavar
# and no converter, and is False unless given.
COMMANDS = {
    "product": (_cmd_product, "multiply two elements of one Clifford algebra",
                None, _INPUT),
    "deform": (_cmd_deform, "apply the deformation map attached to a bilinear form F, "
               "from the algebra of Q+Q_F into the algebra of Q", None, _INPUT),
    "pfaffian": (_cmd_pfaffian, "Pfaffian of an alternating matrix", None, _INPUT),
    "symbol": (_cmd_symbol, "symbol map into the exterior algebra (char != 2)",
               None, _INPUT),
    "quantize": (_cmd_quantize, "quantization map from the exterior algebra (char != 2)",
                 None, _INPUT),
    "twist": (_cmd_twist, "product twisted by a bilinear form", None, _INPUT),
    "exp-contract": (_cmd_exp_contract, "gauge transformation: exponential of the "
                     "contraction by a dual two-form", None, _INPUT),
    "rho": (_cmd_rho, "matrix of an element acting on the exterior algebra through "
            "the deformation attached to F", None, _INPUT),
    "check": (_cmd_check, "run a named identity suite",
              ("id", "check identifier, e.g. bl.group-law"),
              {"list": ("", None, False, "list available checks"),
               "seed": ("K", int, 0, "seed of the samples' random draws (default 0)"),
               "samples": ("M", int, None, "number of samples (default: the suite's)"),
               "field": ("Q|Fp:<p>", str, None, "field of the run (default: the suite's)"),
               "dim": ("N", int, None, "dimension of the run (default: the suite's)")}),
}


class Parser:
    """Reads `cliffbundle COMMAND [ARG] [OPTION ...]` against a table
    like COMMANDS.  An option is `--name value`, `--name=value` or a
    flag, before or after the argument, and may be shortened to any
    unique prefix.  The word after an option that takes a value is its
    value, whatever it looks like (`--samples -3`).  A usage error
    raises ParseError; -h or --help, at the top or after a command,
    asks for the help text instead."""

    def __init__(self, commands: dict):
        self.commands = commands

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The handler and values of a command line, or help=text."""
        words = sys.argv[1:] if argv is None else list(argv)
        name = words.pop(0) if words else ""
        if name not in self.commands:
            if name.startswith("-") and _option(name, {}) == "help":
                return SimpleNamespace(help=self.format_help())
            got = f", got {excerpt(name)}" if name else ""
            raise ParseError(f"expected a command ({', '.join(self.commands)}){got}")
        handler, _, arg, options = self.commands[name]
        values = {opt: spec[2] for opt, spec in options.items()}
        while words:
            word = words.pop(0)
            if word == "-" or not word.startswith("-"):
                if not arg or arg[0] in values:
                    raise ParseError(f"unexpected argument {excerpt(word)} to {name}")
                values[arg[0]] = word
                continue
            key, eq, value = word.partition("=")
            opt = _option(key, options)
            if opt == "help":
                return SimpleNamespace(help=self.format_help(name))
            metavar, convert = options[opt][:2]
            if not convert:
                if eq:
                    raise ParseError(f"--{opt} takes no value, got {excerpt(word)}")
                values[opt] = True
                continue
            if not (eq or words):
                raise ParseError(f"--{opt} needs a value {metavar}")
            value = value if eq else words.pop(0)
            try:
                values[opt] = convert(value)
            except ValueError:
                raise ParseError(f"--{opt} takes an integer {metavar}, "
                                 f"got {excerpt(value)}") from None
        if arg:
            values.setdefault(arg[0], None)
        return SimpleNamespace(help=None, handler=handler, **values)

    def format_help(self, name=None) -> str:
        """The help text of the program, or of one command."""
        if name is None:
            usage, about = "COMMAND [ARG] [OPTION ...]", DESCRIPTION
            rows = [(cmd, row[1]) for cmd, row in self.commands.items()]
        else:
            _, about, arg, options = self.commands[name]
            rows = [(arg[0].upper(), arg[1])] if arg else []
            rows += [(f"--{opt} {spec[0]}".rstrip(), spec[3]) for opt, spec in options.items()]
            usage = " ".join([name] + [f"[{left}]" for left, _ in rows])
        rows.append(("-h, --help", "show this help and exit"))
        width = 2 + max(len(left) for left, _ in rows)
        lines = [f"usage: cliffbundle {usage}", "", about, ""]
        lines += [f"  {left:<{width}}{text}" for left, text in rows]
        if name is None:
            lines += ["", "`cliffbundle COMMAND --help` lists the options of one command."]
        return "\n".join(lines) + "\n"


def _option(key: str, options: dict) -> str:
    """The option, or "help", that key names in full or by a unique prefix."""
    names = [*options, "help"]
    word = key[2:] if key.startswith("--") else ""
    hits = [opt for opt in names if word and opt.startswith(word)]
    if key == "-h" or word in names:
        return word or "help"
    if len(hits) != 1:
        also = f"; it could be --{', --'.join(hits)}" if hits else ""
        raise ParseError(f"unknown option {excerpt(key)}{also}")
    return hits[0]


def build_parser() -> Parser:
    return Parser(COMMANDS)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ParseError as exc:
        return _malformed(exc)
    try:
        if args.help:
            sys.stdout.write(args.help)
            sys.stdout.flush()
            return 0
        return _respond(args)
    except BrokenPipeError:
        # the reader has gone (`cliffbundle ... | head -1`): point stdout
        # at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _malformed(message) -> int:
    print(f"cliffbundle: malformed input: {message}", file=sys.stderr)
    return 2


def _respond(args) -> int:
    """Read the request, then compute: an AlgebraError while reading is
    malformed input (exit 2), one while computing a domain error (exit 1)."""
    try:
        try:
            # the payload commands have --input; check reads only its options
            compute = args.handler(_read_payload(args) if "input" in vars(args) else args)
        except AlgebraError as exc:
            raise ParseError(str(exc)) from None
        payload = compute()
    except AlgebraError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    except KeyError as exc:
        return _malformed(f"missing key {exc}")
    except (ParseError, ValueError, TypeError, OSError) as exc:
        return _malformed(exc)
    _emit(payload)
    # a suite that found failures is a failed run even though the
    # response itself is well formed
    return 1 if payload.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())

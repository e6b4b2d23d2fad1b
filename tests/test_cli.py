"""The JSON command-line interface: payloads, exit codes, determinism."""

import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cliffbundle
from cliffbundle.cli import build_parser, main

CTX = {
    "dim": 2,
    "field": "Q",
    "quadratic": {"diag": ["1", "-1"], "polar_upper": [["0"]]},
}


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_product(monkeypatch, capsys):
    payload = {
        "context": CTX,
        "u": {"terms": [{"blade": [1], "coeff": "1"}]},
        "v": {"terms": [{"blade": [1], "coeff": "1"}]},
    }
    code, out, err = run_cli(["product"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "cliff-bundle/1"
    # e1 * e1 = Q(e1) = 1
    assert data["product"] == {"terms": [{"blade": [], "coeff": "1"}]}


def test_deform_zero_form_is_identity(monkeypatch, capsys):
    elt = {"terms": [{"blade": [], "coeff": "-1"}, {"blade": [1, 2], "coeff": "3/2"}]}
    payload = {
        "context": CTX,
        "form": {"dim": 2, "field": "Q", "entries": [["0", "0"], ["0", "0"]]},
        "element": elt,
    }
    code, out, _ = run_cli(["deform"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["element"] == elt


def test_pfaffian_four_by_four(monkeypatch, capsys):
    entries = [
        ["0", "2", "3", "5"],
        ["-2", "0", "7", "11"],
        ["-3", "-7", "0", "13"],
        ["-5", "-11", "-13", "0"],
    ]
    payload = {"matrix": {"dim": 4, "field": "Q", "entries": entries}}
    code, out, _ = run_cli(["pfaffian"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    # a12 a34 - a13 a24 + a14 a23
    assert json.loads(out)["pfaffian"] == str(2 * 13 - 3 * 11 + 5 * 7)


def test_rho_example(monkeypatch, capsys):
    payload = {
        "form": {"dim": 1, "field": "Q", "entries": [["1"]]},
        "element": {"terms": [{"blade": [1], "coeff": "1"}]},
    }
    code, out, _ = run_cli(["rho"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["matrix"] == [["0", "1"], ["1", "0"]]


def test_symbol_quantize_round_trip(monkeypatch, capsys):
    # terms listed in the canonical (grade, blade) output order
    elt = {"terms": [{"blade": [2], "coeff": "-1/3"}, {"blade": [1, 2], "coeff": "2"}]}
    payload = {"context": CTX, "element": elt}
    code, out, _ = run_cli(["symbol"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    sym = json.loads(out)["element"]
    payload = {"context": CTX, "element": sym}
    code, out, _ = run_cli(["quantize"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["element"] == elt


def test_twist_vector_rule(monkeypatch, capsys):
    # e1 twisted-times e2 = e1 e2 + F(e1, e2) 1
    payload = {
        "context": CTX,
        "form": {"dim": 2, "field": "Q", "entries": [["1", "2"], ["0", "1"]]},
        "u": {"terms": [{"blade": [1], "coeff": "1"}]},
        "v": {"terms": [{"blade": [2], "coeff": "1"}]},
    }
    code, out, _ = run_cli(["twist"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["product"]["terms"] == [
        {"blade": [], "coeff": "2"},
        {"blade": [1, 2], "coeff": "1"},
    ]


def test_exp_contract_roundtrip_parse(monkeypatch, capsys):
    payload = {
        "context": CTX,
        "two_form": {"dim": 2, "field": "Q", "coeffs": [["5"]]},
        "element": {"terms": [{"blade": [1, 2], "coeff": "1"}]},
    }
    code, out, _ = run_cli(["exp-contract"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    got = json.loads(out)["element"]["terms"]
    # pairing of e1*^e2* against e1e2 is -1, so c12 = 5 lands as -5
    assert got == [{"blade": [], "coeff": "-5"},
                   {"blade": [1, 2], "coeff": "1"}]


def test_exp_contract_over_prime_field_is_deform(monkeypatch, capsys):
    """Over GF(7) exp-contract answers, with the reply of deform by the
    alternating form of the two-form: entry (i, j) is -c_ij for i < j."""
    ctx = {"dim": 3, "field": "Fp:7",
           "quadratic": {"diag": ["1", "3", "0"], "polar_upper": [["2", "5"], ["6"]]}}
    element = {"terms": [{"blade": [], "coeff": "2"}, {"blade": [1, 2], "coeff": "3"},
                         {"blade": [1, 2, 3], "coeff": "4"}]}
    two_form = {"dim": 3, "field": "Fp:7", "coeffs": [["2", "5"], ["3"]]}
    form = {"dim": 3, "field": "Fp:7",
            "entries": [["0", "-2", "-5"], ["2", "0", "-3"], ["5", "3", "0"]]}
    code, out, _ = run_cli(["exp-contract"], json.dumps(
        {"context": ctx, "two_form": two_form, "element": element}), monkeypatch, capsys)
    assert code == 0
    got = json.loads(out)["element"]["terms"]
    assert got != element["terms"]
    deformed = run_cli(["deform"], json.dumps(
        {"context": ctx, "form": form, "element": element}), monkeypatch, capsys)
    assert deformed == (0, out, "")


def test_check_subcommand(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "bl.group-law", "--seed", "42",
                            "--samples", "50"], "", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == 50
    assert data["failed"] == 0
    assert data["seed"] == 42


def test_check_list(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "--list"], "", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert "bl.group-law" in data["checks"]


def test_check_unknown_id_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(["check", "definitely.not.real"], "", monkeypatch, capsys)
    assert code == 2
    assert not out
    assert "unknown check" in err


@pytest.mark.parametrize("argv,message", [
    ([], "expected a command (product, deform, pfaffian, symbol, quantize, twist, "
         "exp-contract, rho, check)"),
    (["prodct"], "expected a command (product, deform, pfaffian, symbol, quantize, twist, "
                 "exp-contract, rho, check), got 'prodct'"),
    (["--bogus"], "unknown option '--bogus'"),
    (["product", "--bogus"], "unknown option '--bogus'"),
    (["product", "extra"], "unexpected argument 'extra' to product"),
    (["product", "--input"], "--input needs a value PATH"),
    (["check", "--samples", "abc"], "--samples takes an integer M, got 'abc'"),
    (["check", "--dim=2.5", "bl.group-law"], "--dim takes an integer N, got '2.5'"),
    (["check", "a", "b"], "unexpected argument 'b' to check"),
    (["check", "--s", "3"], "unknown option '--s'; it could be --seed, --samples"),
    (["check", "--list=yes"], "--list takes no value, got '--list=yes'"),
    (["check", "-3"], "unknown option '-3'"),
], ids=["empty", "unknown-command", "top-option", "unknown-option", "second-argument",
        "missing-path", "non-integer", "non-integer-inline", "second-id", "ambiguous-prefix",
        "flag-value", "short-option"])
def test_usage_errors_exit_two_with_one_line(argv, message, monkeypatch, capsys):
    """A command line that does not parse is malformed input: exit 2 and
    one stderr line, nothing on stdout, and no SystemExit."""
    code, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"cliffbundle: malformed input: {message}\n"


COMMAND_NAMES = ["product", "deform", "pfaffian", "symbol", "quantize", "twist",
                 "exp-contract", "rho", "check"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_top_level_help_lists_every_command(argv, monkeypatch, capsys):
    code, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: cliffbundle COMMAND")
    assert "JSON in / JSON out." in out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert listed == COMMAND_NAMES + ["-h,"]


def test_command_help_lists_every_option(monkeypatch, capsys):
    """`check --help` anywhere after the command, even after an id or
    an option, prints the check options; a payload command lists
    --input."""
    for argv in (["check", "--help"], ["check", "bl.group-law", "--seed", "3", "-h"]):
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == ("usage: cliffbundle check [ID] [--list] [--seed K] "
                                       "[--samples M] [--field Q|Fp:<p>] [--dim N]")
        assert "run a named identity suite" in out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert listed == ["ID", "--list", "--seed", "--samples", "--field", "--dim", "-h,"]
    for name in COMMAND_NAMES[:-1]:
        code, out, err = run_cli([name, "--help"], "", monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"usage: cliffbundle {name} [--input PATH]"


@pytest.mark.parametrize("argv,expected", [
    (["check", "x.y"], {"id": "x.y", "list": False, "seed": 0, "samples": None,
                        "field": None, "dim": None}),
    (["check", "--seed=3", "--sam", "3", "x.y"], {"id": "x.y", "seed": 3, "samples": 3}),
    (["check", "--field", "Fp:7", "--dim=5", "x.y", "--seed", "1", "--seed", "2"],
     {"id": "x.y", "field": "Fp:7", "dim": 5, "seed": 2}),
    (["check", "--samples", "-3", "x.y"], {"id": "x.y", "samples": -3}),
    (["check", "--samples=-3"], {"id": None, "samples": -3}),
    (["check", "--l"], {"id": None, "list": True}),
    (["product"], {"input": None}),
    (["rho", "--in", "req.json"], {"input": "req.json"}),
    (["pfaffian", "--input=-"], {"input": "-"}),
], ids=["defaults", "inline-and-prefix", "options-around-id", "negative-value",
        "negative-inline", "flag-prefix", "stdin", "input-prefix", "input-inline"])
def test_parser_reads_options(argv, expected):
    """Options as `--opt value` or `--opt=value`, by unique prefix,
    before or after the id, the last of a repeated one; a value that
    starts with '-' is a value."""
    args = build_parser().parse_args(argv)
    assert {key: getattr(args, key) for key in expected} == expected


def test_negative_sample_count_exits_two(monkeypatch, capsys):
    """`--samples -3` reaches run_check, which refuses the count before
    it looks up the id: an unknown id is reported as the sample count."""
    for check_id in ("scalars.field-axioms", "bogus"):
        code, out, err = run_cli(["check", check_id, "--samples", "-3"], "",
                                 monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "cliffbundle: malformed input: samples must be >= 0, got -3\n"


def test_malformed_json_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(["product"], "this is not json", monkeypatch, capsys)
    assert code == 2
    assert not out
    assert "malformed" in err


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"u": ' * 100_000 + "1" + "}" * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_json_exits_two(text, monkeypatch, capsys):
    """JSON nested past the decoder's recursion limit is malformed input,
    refused on one line, not a RecursionError traceback."""
    code, out, err = run_cli(["product"], text, monkeypatch, capsys)
    assert code == 2
    assert not out
    assert err == "cliffbundle: malformed input: request nests arrays or objects too deeply\n"


# Python's limit on int <-> str conversion (0 where there is none)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# 3,000 digits parse under the default limit of 4,300; a product of two
# has 6,000
WIDE = "7" * 3000


def _scalar_product(a: str, b: str) -> str:
    return json.dumps({"context": CTX, "u": {"terms": [{"blade": [], "coeff": a}]},
                       "v": {"terms": [{"blade": [], "coeff": b}]}})


@pytest.mark.skipif(DIGIT_LIMIT != 4300, reason="needs Python's default digit limit")
def test_answer_too_long_to_print_is_refused(monkeypatch, capsys):
    """A well-formed request whose answer has more digits than Python
    converts to text is a domain refusal (exit 1, CapExceeded naming
    the limit), not malformed input."""
    code, out, err = run_cli(["product"], _scalar_product(WIDE, WIDE), monkeypatch, capsys)
    assert code == 1
    assert not err
    error = json.loads(out)["error"]
    assert error["type"] == "CapExceeded"
    assert "(4300 digits)" in error["message"]


@pytest.mark.skipif(DIGIT_LIMIT != 4300, reason="needs Python's default digit limit")
def test_digit_limit_stays_on_input(monkeypatch, capsys):
    """The refused product's factors parse and print on their own, and
    a literal one digit over the limit is still malformed input."""
    code, out, _ = run_cli(["product"], _scalar_product(WIDE, "1"), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["product"] == {"terms": [{"blade": [], "coeff": WIDE}]}
    code, out, err = run_cli(["product"], _scalar_product("7" * 4301, "1"), monkeypatch, capsys)
    assert code == 2
    assert not out
    assert err.startswith("cliffbundle: malformed input: bad scalar literal")


def test_missing_key_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(["product"], json.dumps({"context": CTX}),
                             monkeypatch, capsys)
    assert code == 2
    assert err == "cliffbundle: malformed input: missing key 'u'\n"


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("payload,message", [
    ({"u": {"terms": []}, "v": {"terms": []}}, "request needs a 'context' object"),
    ({"context": dict(CTX, quadratic=_without(CTX["quadratic"], "polar_upper")),
      "u": {"terms": []}, "v": {"terms": []}}, "missing key 'polar_upper'"),
    ({"context": _without(CTX, "dim"), "u": {"terms": []}, "v": {"terms": []}},
     "missing key 'dim'"),
    ({"context": CTX, "u": {}, "v": {"terms": []}}, "missing key 'terms'"),
], ids=["context", "polar_upper", "dim", "terms"])
def test_missing_key_is_named(payload, message, monkeypatch, capsys):
    code, out, err = run_cli(["product"], json.dumps(payload), monkeypatch, capsys)
    assert code == 2
    assert not out
    assert err == f"cliffbundle: malformed input: {message}\n"


def test_bad_shape_exits_two(monkeypatch, capsys):
    payload = {
        "context": {"dim": 2, "field": "Q",
                    "quadratic": {"diag": ["1"], "polar_upper": [["0"]]}},
        "element": {"terms": []},
    }
    code, out, err = run_cli(["symbol"], json.dumps(payload), monkeypatch, capsys)
    assert code == 2


# Values of the wrong JSON type: (request, the message naming the key).
BAD_SHAPES = {
    "diag-string": ((["product"], {"context": dict(CTX, quadratic={"diag": "11",
                                                                    "polar_upper": [["0"]]}),
                                   "u": {"terms": []}, "v": {"terms": []}}),
                    "diag must be an array, got '11'"),
    "entries-strings": ((["pfaffian"], {"matrix": {"dim": 2, "field": "Q",
                                                   "entries": ["12", "34"]}}),
                        "entries row must be an array, got '12'"),
    "context-list": ((["product"], {"context": [], "u": {"terms": []}, "v": {"terms": []}}),
                     "context must be an object, got []"),
    "term-number": ((["product"], {"context": CTX, "u": {"terms": [5]}, "v": {"terms": []}}),
                    "terms entry must be an object, got 5"),
    "terms-object": ((["product"], {"context": CTX, "u": {"terms": {"a": 1}},
                                    "v": {"terms": []}}),
                     "terms must be an array, got {'a': 1}"),
}


@pytest.mark.parametrize("argv,payload", [
    (["product"], {"context": CTX, "u": {"terms": [{"blade": [True], "coeff": "1"}]},
                   "v": {"terms": []}}),
    (["check", "scalars.field-axioms", "--samples", "-3"], None),
    (["product"], {"context": CTX, "u": {"terms": [{"blade": [1], "coeff": "9" * 5000}]},
                   "v": {"terms": []}}),
    (["product"], {"context": CTX, "u": {"terms": [{"blade": [1] + [3] * 3000, "coeff": "1"}]},
                   "v": {"terms": []}}),
    (["product"], {"context": dict(CTX, field=["Q"] * 500), "u": {"terms": []},
                   "v": {"terms": []}}),
    (["product"], {"context": dict(CTX, field="F" * 5000), "u": {"terms": []},
                   "v": {"terms": []}}),
    (["product"], {"context": dict(CTX, field="Fp:" + "9" * 3000), "u": {"terms": []},
                   "v": {"terms": []}}),
    # 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    (["product"], {"context": dict(CTX, field="Fp:318665857834031151167461"),
                   "u": {"terms": []}, "v": {"terms": []}}),
    (["pfaffian"], {"matrix": {"dim": "2", "field": "Q", "entries": [["0", "1"], ["-1", "0"]]}}),
    (["check", "x" * 5000], None),
    *(case for case, _ in BAD_SHAPES.values()),
    # a modulus is ASCII digits only, and more of them than int() reads is refused too
    *((["product"], {"context": dict(CTX, field=spec), "u": {"terms": []}, "v": {"terms": []}})
      for spec in ("Fp:1_3", "Fp:\u0667", "Fp:+7", "Fp: 7", "Fp:" + "7" * 5000)),
], ids=["blade-bool", "samples-negative", "coeff-long", "blade-long", "field-list",
        "field-long", "modulus-long", "modulus-pseudoprime", "dim-string", "check-id-long",
        *BAD_SHAPES, "modulus-underscore", "modulus-arabic-indic", "modulus-plus",
        "modulus-space", "modulus-digits-5000"])
def test_bad_request_shape_exits_two(argv, payload, monkeypatch, capsys):
    text = "" if payload is None else json.dumps(payload)
    code, out, err = run_cli(argv, text, monkeypatch, capsys)
    assert code == 2
    assert not out
    assert len(err.strip().splitlines()) == 1
    assert len(err) < 200


@pytest.mark.parametrize("case,message", BAD_SHAPES.values(), ids=list(BAD_SHAPES))
def test_bad_shape_names_the_key(case, message, monkeypatch, capsys):
    """A string where an array belongs is not read letter by letter,
    and a value that is not an object is refused by name."""
    argv, payload = case
    code, out, err = run_cli(argv, json.dumps(payload), monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"cliffbundle: malformed input: {message}\n")


def test_field_number_is_refused(monkeypatch, capsys):
    payload = {"context": dict(CTX, field=7), "u": {"terms": []}, "v": {"terms": []}}
    code, out, err = run_cli(["product"], json.dumps(payload), monkeypatch, capsys)
    assert code == 2
    assert err == "cliffbundle: malformed input: field spec must be a string, got 7\n"


@pytest.mark.parametrize("dim", [2.5, True, "2"])
def test_dim_must_be_a_json_integer(dim, monkeypatch, capsys):
    payload = {"context": dict(CTX, dim=dim), "u": {"terms": []}, "v": {"terms": []}}
    code, out, err = run_cli(["product"], json.dumps(payload), monkeypatch, capsys)
    assert code == 2
    assert not out
    assert err.startswith("cliffbundle: malformed input: dim must be an integer, got ")


def test_domain_error_exits_one(monkeypatch, capsys):
    payload = {
        "context": {"dim": 2, "field": "Fp:2",
                    "quadratic": {"diag": ["1", "1"], "polar_upper": [["0"]]}},
        "element": {"terms": []},
    }
    code, out, err = run_cli(["symbol"], json.dumps(payload), monkeypatch, capsys)
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "CharacteristicError"
    assert data["schema"] == "cliff-bundle/1"


def test_determinism(monkeypatch, capsys):
    payload = json.dumps({
        "context": CTX,
        "u": {"terms": [{"blade": [1, 2], "coeff": "1/2"}]},
        "v": {"terms": [{"blade": [2], "coeff": "-3"}]},
    })
    _, out1, _ = run_cli(["product"], payload, monkeypatch, capsys)
    _, out2, _ = run_cli(["product"], payload, monkeypatch, capsys)
    assert out1 == out2


def test_responses_reparse(monkeypatch, capsys):
    # round-trip: response elements parse back under the same schemas
    payload = {
        "context": CTX,
        "u": {"terms": [{"blade": [1], "coeff": "2/7"}]},
        "v": {"terms": [{"blade": [1, 2], "coeff": "-1"}]},
    }
    code, out, _ = run_cli(["product"], json.dumps(payload), monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    from cliffbundle import CliffElt, CliffordContext
    cctx = CliffordContext.from_json(data["context"])
    elt = CliffElt.from_json(cctx, data["product"])
    assert elt.to_json() == data["product"]


def test_input_file(tmp_path, monkeypatch, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({
        "matrix": {"dim": 2, "field": "Q", "entries": [["0", "4"], ["-4", "0"]]}}))
    code = main(["pfaffian", "--input", str(req)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["pfaffian"] == "4"


def test_missing_input_file(capsys):
    code = main(["pfaffian", "--input", "/no/such/file.json"])
    out, err = capsys.readouterr()
    assert code == 2


# what a setuptools console-script wrapper does with "module:attr"
ENTRY_POINT_WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
target = getattr(importlib.import_module(module), attr)
sys.argv = ["cliffbundle", "check", "--list"]
sys.exit(target())
"""


def _package_env():
    package_root = os.path.dirname(os.path.dirname(cliffbundle.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_exits_141():
    """`cliffbundle check --list | head -1`: the reader is gone before the
    response is written.  No traceback, and not exit 1 (a domain error)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cliffbundle", "check", "--list"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=_package_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def assert_lists_suites(proc):
    assert proc.returncode == 0
    assert "scalars.field-axioms" in proc.stdout
    assert json.loads(proc.stdout)["schema"] == "cliff-bundle/1"


def test_console_script_installed():
    """The declared console entry point and ``python -m cliffbundle`` both
    run ``check --list`` in a fresh process, installed or not."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cliffbundle"]
    env = _package_env()
    for argv in ([sys.executable, "-c", ENTRY_POINT_WRAPPER, target],
                 [sys.executable, "-m", "cliffbundle", "check", "--list"]):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, env=env)
        assert_lists_suites(proc)


@pytest.mark.skipif(shutil.which("cliffbundle") is None,
                    reason="cliffbundle is not installed on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["cliffbundle", "check", "--list"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "scalars.field-axioms" in proc.stdout


# the modules bench/tracer.py wraps once `import cliffbundle.cli` returns
TRACED_MODULES = ["cli", "scalars", "forms", "linalg", "tensor", "clifford",
                  "repcheck", "checks", "sampling"]

STARTUP_PROBE = """\
import json, sys
import cliffbundle.cli
loaded = sorted(sys.modules)
cliffbundle.cli.build_parser().parse_args(["check", "--samples", "3", "x.y"])
cliffbundle.cli.build_parser().format_help("check")
from cliffbundle.checks import list_checks
print(json.dumps({"loaded": loaded, "checks": len(list_checks()),
                  "suites": "cliffbundle.suites" in sys.modules,
                  "argv": sorted({"argparse", "gettext", "locale"} & set(sys.modules))}))
"""


def test_cli_import_starts_lean():
    """`import cliffbundle.cli` in a fresh interpreter puts every module
    the tracer wraps into sys.modules (linalg, tensor, repcheck, checks
    and sampling unexecuted until first use), but neither `dataclasses`
    nor the suite bodies, which the registry loads on first use, nor
    `array`, which nothing imports.  Neither the import, nor parsing a
    command line and its help, nor loading the suites brings in
    `argparse`, `gettext` or `locale`."""
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE], capture_output=True,
                          text=True, timeout=120, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    loaded = set(report["loaded"])
    assert {f"cliffbundle.{m}" for m in TRACED_MODULES} <= loaded
    assert "dataclasses" not in loaded
    assert "array" not in loaded
    assert "cliffbundle.suites" not in loaded
    assert report["checks"] == 46
    assert report["suites"]
    assert report["argv"] == []


DENSE_PROBE = """\
import random, sys
from cliffbundle import (AlgebraContext, CliffElt, CliffordContext, Field, RATIONALS, clifford,
                         deform, index_subset)
from cliffbundle.sampling import rand_bilinear, rand_quadratic
unpack, exits = clifford._unpack, []
clifford._unpack = lambda *a: exits.append(a[1]) or unpack(*a)
rng = random.Random(6)
for field in (Field(7), RATIONALS):
    ctx = AlgebraContext(6, field)
    cctx = CliffordContext(rand_quadratic(rng, ctx))
    u, v = (CliffElt(cctx, {index_subset(m): field(rng.randrange(1, 7)) for m in range(64)})
            for _ in range(2))
    u * v if field.char else deform(rand_bilinear(rng, ctx), u)
print(exits, "array" in sys.modules)
"""


def test_dense_calls_load_no_array_module():
    """A dense product over GF(7) and a dense deform over Q at n = 6, in
    a fresh interpreter, each leave the packed carrier through _unpack,
    and neither loads the `array` extension."""
    proc = subprocess.run([sys.executable, "-S", "-c", DENSE_PROBE], capture_output=True,
                          text=True, timeout=120, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[6, 6] False"


# the modules the package registers unexecuted, to run on first use
LAZY_MODULES = ["linalg", "tensor", "repcheck", "checks", "sampling"]

REQUEST_PROBE = """\
import io, json, sys, types
from cliffbundle.cli import build_parser, main
sys.stdin = io.StringIO(sys.argv[2])
code = main(json.loads(sys.argv[1]))
ran = [m for m in %r if type(sys.modules["cliffbundle." + m]) is types.ModuleType]
ran += ["suites"] if "cliffbundle.suites" in sys.modules else []
print(json.dumps({"code": code, "ran": ran}), file=sys.stderr)
""" % LAZY_MODULES


def _lazy_modules_run(argv, payload=None):
    """Exit code of one request through cli.main in a fresh interpreter,
    and which of LAZY_MODULES have run their bodies by its end, with
    "suites" once the registry has loaded the suite bodies."""
    proc = subprocess.run([sys.executable, "-c", REQUEST_PROBE, json.dumps(argv),
                           json.dumps(payload or {})], capture_output=True, text=True,
                          timeout=120, env=_package_env())
    report = json.loads(proc.stderr.splitlines()[-1])
    return report["code"], set(report["ran"])


def test_requests_run_only_the_modules_they_use():
    """A product request leaves all five lazy modules unexecuted; rho
    runs repcheck but not checks, and `check --list` runs checks and the
    modules its suites import names from."""
    product = {"context": CTX, "u": {"terms": [{"blade": [1], "coeff": "1"}]},
               "v": {"terms": [{"blade": [1, 2], "coeff": "1/2"}]}}
    assert _lazy_modules_run(["product"], product) == (0, set())
    rho = {"form": {"dim": 2, "field": "Q", "entries": [["1", "2"], ["0", "1"]]},
           "element": {"terms": [{"blade": [1], "coeff": "1"}]}}
    code, ran = _lazy_modules_run(["rho"], rho)
    assert code == 0 and "repcheck" in ran and "checks" not in ran
    code, ran = _lazy_modules_run(["check", "--list"])
    assert code == 0 and {"checks", "repcheck", "sampling", "tensor", "suites"} <= ran


def test_cheap_refusals_load_no_suite():
    """A negative sample count or a field spec that does not parse is
    refused before the registry loads the suite bodies and the modules
    they use."""
    for argv in (["check", "scalars.field-axioms", "--samples", "-3"],
                 ["check", "scalars.field-axioms", "--field", "Fp:4"]):
        assert _lazy_modules_run(argv) == (2, {"checks"})


TRACER_INSTALL = """\
import sys
sys.path.insert(0, "bench")
import tracer
tracer.Tracer().install()
"""


def test_tracer_installs():
    """bench/tracer.py wraps methods found in a class's own body:
    CliffElt.__mul__, and from_json and to_json of both element classes.
    One inherited from their shared base would make install raise
    KeyError."""
    proc = subprocess.run([sys.executable, "-c", TRACER_INSTALL], capture_output=True,
                          text=True, timeout=120, env=_package_env(),
                          cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stderr


# each public name's home module, "public=attribute" where they differ
PUBLIC_HOMES = {
    "checks": "CheckResult list_checks run_check",
    "clifford": "CliffElt CliffordContext deform deform_apply exp_contract index_subset "
                "interior quantize quotient_map subset_index symbol twisted_mul "
                "clifford_contract=contract clifford_contract_vec=contract_vec",
    "errors": "AlgebraError CapExceeded CharacteristicError ContextMismatch FieldMismatch "
              "FormError ParseError",
    "forms": "AlgebraContext BilinearForm DualTwoForm LinearForm QuadraticForm Vector "
             "alt_of_dual dual_two_form pfaffian polar_form quad_of_bilinear right_radical "
             "split_sym_alt triangular_bilinear",
    "repcheck": "EndoMatrix EquivalenceReport ProbeReport check_equivalence cliff_to_vec "
                "generator_matrices invariant_probe restrict_matrices rho_matrix "
                "twist_matrix vec_to_cliff",
    "scalars": "GF2 RATIONALS Field Scalar is_prime",
    "tensor": "TensorElt contract contract_vec divided_power left_mul "
              "tensor_deform=deform tensor_deform_apply=deform_apply",
}


def test_public_names_resolve():
    """Every name in __all__, eager or served on first use from a lazy
    module, is the very object its home module defines, and dir()
    lists it."""
    names = cliffbundle.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cliffbundle, name)] == []
    homes = {}
    for module, entries in PUBLIC_HOMES.items():
        for entry in entries.split():
            public, _, attr = entry.partition("=")
            homes[public] = (module, attr or public)
    assert sorted(homes) == sorted(names)
    for public, (module, attr) in homes.items():
        home = importlib.import_module(f"cliffbundle.{module}")
        assert getattr(cliffbundle, public) is getattr(home, attr), public
    assert set(names) <= set(dir(cliffbundle))

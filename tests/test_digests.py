"""Byte-identity gate: digests of suite results and CLI replies.

The digests were computed before integral rationals were stored as ints
(when every Q value was a Fraction); a change to the scalar layer, the
kernels or the CLI must leave every output byte for byte as it was.
A change that means to alter an output updates the digest and says why.
"""

import hashlib
import io
import json
import sys

import pytest

from cliffbundle import list_checks, run_check
from cliffbundle.cli import main


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


SUITE_DIGESTS = {
    "default": "8da9a724e00dad0b09829bee613b01ec7c4a56fd14e61dc51e345a7e0d6c7847",
    "Fp:7": "b35d06b4a4367cca308b8760c2fa84059c3f5d970a48d05bfc388a1bd8974f3d",
}


@pytest.mark.parametrize("field", list(SUITE_DIGESTS))
def test_suite_digests(field):
    """run_check(id, seed=3) of every suite at its default field and over
    GF(7); a suite GF(7) does not suit contributes its error."""
    out = {}
    for cid in list_checks():
        try:
            out[cid] = run_check(cid, seed=3, field=None if field == "default" else field).to_json()
        except Exception as exc:  # noqa: BLE001  (the refusal is part of the output)
            out[cid] = f"{type(exc).__name__}: {exc}"
    assert _digest(out) == SUITE_DIGESTS[field]


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

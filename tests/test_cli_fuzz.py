"""Random JSON requests through the command line, in process, at n <= 4:
well formed, with one value of the wrong type or shape, or with one key
missing.  Every request ends in exit 0 (a JSON response), 1 (a JSON
error response) or 2 (one short line on stderr), never a traceback."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cliffbundle.cli import main  # noqa: E402

LITERALS = ("0", "1", "-1", "2", "1/2", "-3/7", "5")
# Any JSON value: what replaces a well-formed one.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# The keys each subcommand reads, and the kind of value under each.
COMMANDS = {
    "product": {"context": "context", "u": "element", "v": "element"},
    "deform": {"context": "context", "form": "form", "element": "element"},
    "pfaffian": {"matrix": "form"},
    "symbol": {"context": "context", "element": "element"},
    "quantize": {"context": "context", "element": "element"},
    "twist": {"context": "context", "form": "form", "u": "element", "v": "element"},
    "exp-contract": {"context": "context", "two_form": "two_form", "element": "element"},
    "rho": {"form": "form", "element": "element"},
}


def _paths(value, path=()):
    """(path, parent is an object) for every value below the root."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,), isinstance(value, dict)
        yield from _paths(inner, path + (key,))


@st.composite
def requests(draw):
    """(subcommand, request text)."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([0, 2, 3, 7]))
    field = f"Fp:{p}" if p else "Q"
    # literals with a denominator that is zero in the field are refused
    literal = st.sampled_from([x for x in LITERALS if not p or int(x.partition("/")[2] or 1) % p])

    def rows(lengths):
        return [[draw(literal) for _ in range(k)] for k in lengths]

    def build(kind):
        if kind == "context":
            return {"dim": n, "field": field, "quadratic": {
                "diag": rows([n])[0], "polar_upper": rows(range(n - 1, 0, -1))}}
        if kind == "form":
            return {"dim": n, "field": field, "entries": rows([n] * n)}
        if kind == "two_form":
            return {"dim": n, "field": field, "coeffs": rows(range(n - 1, 0, -1))}
        blades = draw(st.lists(st.lists(st.integers(1, n), unique=True, max_size=n),
                               max_size=4))
        return {"terms": [{"blade": sorted(b), "coeff": draw(literal)} for b in blades]}

    command = draw(st.sampled_from(sorted(COMMANDS)))
    payload = {key: build(kind) for key, kind in COMMANDS[command].items()}
    damage = draw(st.sampled_from(["none", "wrong type", "missing key"]))
    paths = [path for path, in_object in _paths(payload)
             if in_object or damage == "wrong type"]
    if damage != "none":
        path = draw(st.sampled_from(paths))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if damage == "missing key":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
    return command, json.dumps(payload)


@settings(max_examples=300, deadline=None, database=None)
@given(requests())
def test_random_requests_exit_cleanly(request):
    command, text = request
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command])
    finally:
        sys.stdin = stdin
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert not out
        assert len(err.splitlines()) == 1 and len(err) < 200
    else:
        reply = json.loads(out)
        assert not err
        if code == 1:
            message = reply["error"]["message"]
            assert len(message.splitlines()) == 1 and len(message) < 200

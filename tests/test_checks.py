"""The identity-suite registry: every suite runs clean, results are
deterministic, and bad identifiers are rejected."""

import json

import pytest

from cliffbundle import (CapExceeded, CharacteristicError, ParseError, checks, cli,
                         list_checks, run_check)

# heavier suites get fewer samples to keep the run quick
_SAMPLES = {
    "rep.invariant-lattice": 2,
    "rep.equivalence": 3,
    "rho.homomorphism": 3,
    "rho.square": 3,
    "rho.unit-column": 3,
    "twist.associativity": 3,
}


# seeds at which the invariant probe once missed the planted subspace;
# they run at the suite's default sample count
_LATTICE_SEEDS = [(790807728, "Q"), (1004, "Q"), (1015, "Q"), (1011, "Fp:7")]


@pytest.mark.parametrize("check_id,seed,samples,field", [
    pytest.param(c, 2024, _SAMPLES.get(c, 6), None, id=c) for c in list_checks()] + [
    pytest.param("rep.invariant-lattice", s, None, f, id=f"rep.invariant-lattice-{s}-{f}")
    for s, f in _LATTICE_SEEDS])
def test_every_suite_passes(check_id, seed, samples, field):
    res = run_check(check_id, seed=seed, samples=samples, field=field)
    assert res.failed == 0, res.failures
    assert res.passed == res.samples
    assert res.check_id == check_id


def test_unknown_id_rejected():
    with pytest.raises(ParseError):
        run_check("no.such.suite")


def test_cheap_refusals_come_before_the_id():
    """A negative sample count and a field spec that does not parse are
    refused before the registry is read, so before an unknown id."""
    with pytest.raises(ParseError, match="samples must be >= 0, got -3"):
        run_check("no.such.suite", samples=-3)
    with pytest.raises(ParseError, match="must be 0 or a prime, got 4"):
        run_check("no.such.suite", field="Fp:4")


def test_result_json_shape():
    res = run_check("forms.polar-quadratic", seed=5, samples=3)
    data = res.to_json()
    assert data == {
        "id": "forms.polar-quadratic",
        "seed": 5,
        "samples": 3,
        "passed": 3,
        "failed": 0,
        "failures": [],
    }


def test_determinism():
    a = run_check("bl.group-law", seed=7, samples=5).to_json()
    b = run_check("bl.group-law", seed=7, samples=5).to_json()
    assert a == b


def test_field_override():
    res = run_check("tensor.contract-nilpotent", seed=1, samples=4, field="Fp:13")
    assert res.failed == 0


def test_dim_override():
    res = run_check("forms.polar-quadratic", seed=1, samples=4, dim=2)
    assert res.failed == 0


# (suite, dim, the fields it refuses, fields it runs over): the words of
# tensor.deform-exp have grade <= 5, so its series stops at k = 2, and
# gauge.exp-identity's stops at k = dim // 2
EXP_SUITE_FIELDS = {
    "tensor.deform-exp-dim4": ("tensor.deform-exp", 4, ("Fp:2",), ("Fp:3", "Fp:5")),
    "tensor.deform-exp-dim6": ("tensor.deform-exp", 6, ("Fp:2",), ("Fp:3",)),
    "gauge.exp-identity-dim3": ("gauge.exp-identity", 3, (), ("Fp:2", "Fp:3")),
    "gauge.exp-identity-dim4": ("gauge.exp-identity", 4, ("Fp:2",), ("Fp:3", "Fp:5")),
    "gauge.exp-identity-dim6": ("gauge.exp-identity", 6, ("Fp:2", "Fp:3"), ("Fp:5", "Fp:7")),
}


@pytest.mark.parametrize("check_id, dim, refused, run", list(EXP_SUITE_FIELDS.values()),
                         ids=list(EXP_SUITE_FIELDS))
def test_exp_suites_refuse_only_where_their_series_is_undefined(check_id, dim, refused, run):
    """An exponential-series suite needs 1/k! up to the last k its
    series reaches, so it refuses GF(p) for p at or below that k only."""
    for spec in refused:
        with pytest.raises(CharacteristicError, match=f"undefined in characteristic {spec[3:]}"):
            run_check(check_id, field=spec, dim=dim, samples=1)
        # the refusal comes from the first sample, so no sample is no refusal
        assert run_check(check_id, field=spec, dim=dim, samples=0).samples == 0
    for spec in run:
        res = run_check(check_id, seed=2, field=spec, dim=dim, samples=4)
        assert res.passed == 4, (spec, res.failures)


def test_registry_contents_stable():
    ids = list_checks()
    assert "bl.group-law" in ids
    assert "char2.bl-suite" in ids
    assert "rep.invariant-lattice" in ids
    assert ids == sorted(ids)


# the suites whose cost does not depend on the dimension, and the caps
# other than the default 12 of every other suite
_DIM_FREE = {"scalars.field-axioms", "scalars.parse-print", "scalars.fermat",
             "forms.pfaffian-det"}
_CAPS = {
    "rho.homomorphism": 8,
    "rho.unit-column": 8,
    "rho.square": 8,
    "rep.equivalence": 8,
    "rep.invariant-lattice": 5,
    "twist.associativity": 11,
}


def test_registry_caps_hold_their_defaults():
    """Every suite is capped, or listed as dim-independent."""
    list_checks()
    for cid, (_, dim, _, _, max_dim) in checks._REGISTRY.items():
        if cid in _DIM_FREE:
            assert max_dim is None, cid
        else:
            assert max_dim == _CAPS.get(cid, 12) and dim <= max_dim, cid


def test_capped_suite_refuses_before_any_sample(monkeypatch, capsys):
    """A dim over the cap is refused with CapExceeded, and the CLI exits
    1 with a structured error; the sample bodies here only record their
    dim, so the refused cases cost nothing."""
    list_checks()
    ran = []
    for cid in list_checks():
        if cid in _DIM_FREE:
            continue
        cap = _CAPS.get(cid, 12)
        _, dim, field, samples, max_dim = checks._REGISTRY[cid]
        monkeypatch.setitem(checks._REGISTRY, cid, (
            lambda rng, ctx, need, i: ran.append(ctx.dim), dim, field, samples, max_dim))
        with pytest.raises(CapExceeded, match=f"dim <= {cap}, got {cap + 1}"):
            run_check(cid, dim=cap + 1)
        assert cli.main(["check", cid, "--dim", str(cap + 1)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["type"] == "CapExceeded" and not err
        assert not ran
        run_check(cid, dim=cap, samples=1)
        assert ran == [cap]
        ran.clear()


def test_sample_guard_refuses_before_any_sample(monkeypatch, capsys):
    """More samples than the guard allows at a dim are refused with
    CapExceeded; every registry default is allowed.  The sample bodies
    here only record their sample index, so nothing heavy runs."""
    list_checks()
    ran = []
    defaults = []
    for cid, (_, dim, field, samples, max_dim) in list(checks._REGISTRY.items()):
        monkeypatch.setitem(checks._REGISTRY, cid, (
            lambda rng, ctx, need, i: ran.append(i), dim, field, samples, max_dim))
    for cid in list_checks():
        run_check(cid)
        defaults += range(checks._REGISTRY[cid][3])
    assert ran == defaults
    ran.clear()
    # samples x 8^(dim - max_dim) <= 10 for the capped suites, and at
    # most 10,000 samples for any
    for cid, dim, most in [("rho.homomorphism", 8, 10), ("rho.homomorphism", 7, 80),
                           ("rep.equivalence", 5, 5120), ("rho.square", 4, 10_000),
                           ("rep.invariant-lattice", 5, 10), ("rep.invariant-lattice", 3, 640),
                           ("bl.group-law", 4, 10_000), ("bl.group-law", 12, 10),
                           ("scalars.fermat", 30, 10_000)]:
        with pytest.raises(CapExceeded, match=f"at most {most} samples at dim {dim}, "
                                              f"got {most + 1}$"):
            run_check(cid, dim=dim, samples=most + 1)
        assert not ran
        run_check(cid, dim=dim, samples=most)
        assert ran == list(range(most))
        ran.clear()
    assert cli.main(["check", "rho.homomorphism", "--dim", "8", "--samples", "10000"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"] == "CapExceeded" and not err
    assert not ran


def _run_body(monkeypatch, body, samples):
    """run_check of a suite registered (for this test only) as body."""
    list_checks()
    monkeypatch.setitem(checks._REGISTRY, "test.body", (body, 2, "Q", 25, None))
    return run_check("test.body", seed=1, samples=samples)


def test_failed_samples_are_counted_once(monkeypatch):
    """A sample with failed needs is one failure, however many failed."""
    def body(rng, ctx, need, i):
        need(i not in (3, 5, 11), "first")
        need(i != 5, "second")

    res = _run_body(monkeypatch, body, 20)
    assert (res.passed, res.failed) == (17, 3)
    assert res.passed + res.failed == res.samples
    assert res.failures == ["first", "first; second", "first"]


def test_failure_messages_join_and_cap(monkeypatch):
    """Each failed sample's messages are joined with "; ", in order, and
    only the first 8 failed samples are kept."""
    def body(rng, ctx, need, i):
        need(False, f"a{i}")
        need(True, "never")
        need(False, f"b{i}")

    res = _run_body(monkeypatch, body, 12)
    assert (res.passed, res.failed) == (0, 12)
    assert res.failures == [f"a{i}; b{i}" for i in range(8)]


def test_early_return_is_one_attempt(monkeypatch):
    """A body that returns after a failed need counts as one failed
    sample, and a fresh need starts the next sample clean."""
    seen = []

    def body(rng, ctx, need, i):
        seen.append((i, ctx.dim, ctx.field.spec))
        if not need(i != 2, f"early {i}"):
            return
        need(True, "late")

    res = _run_body(monkeypatch, body, 5)
    assert (res.passed, res.failed, res.failures) == (4, 1, ["early 2"])
    assert [i for i, _, _ in seen] == list(range(5))
    assert {(d, f) for _, d, f in seen} == {(2, "Q")}


def test_lattice_suite_fails_without_the_twist(monkeypatch):
    """With the identity in place of the twist matrix, the probe's
    subspaces are not carried between the twisted and untwisted
    generator matrices, and every sample says so both ways."""
    from cliffbundle import suites
    from cliffbundle.repcheck import EndoMatrix
    monkeypatch.setattr(suites, "twist_matrix", lambda A: EndoMatrix.identity(A.ctx))
    res = run_check("rep.invariant-lattice", seed=3)
    assert (res.passed, res.failed) == (0, 3)
    for failure in res.failures:
        assert "mapped subspace not invariant for the twisted matrices" in failure
        assert "pulled-back subspace not invariant for the untwisted matrices" in failure


def test_every_suite_refuses_dim_zero(capsys):
    """A dim below 1 is refused by every suite, before any sample, with
    the ValueError of its context; the CLI exits 2."""
    for cid in list_checks():
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            run_check(cid, dim=0)
    for cid, dim in [("scalars.fermat", "0"), ("forms.pfaffian-det", "-1")]:
        assert cli.main(["check", cid, "--dim", dim]) == 2
        assert "dimension must be >= 1" in capsys.readouterr().err

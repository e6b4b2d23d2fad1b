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


def test_char_zero_only_suite_rejects_prime_field():
    with pytest.raises(CharacteristicError):
        run_check("tensor.deform-exp", field="Fp:5", samples=1)


def test_registry_contents_stable():
    ids = list_checks()
    assert "bl.group-law" in ids
    assert "char2.bl-suite" in ids
    assert "rep.invariant-lattice" in ids
    assert ids == sorted(ids)


# the suites whose cost grows about 8x per dimension, and their caps
_CAPS = {
    "rho.homomorphism": 8,
    "rho.unit-column": 8,
    "rho.square": 8,
    "rep.equivalence": 8,
    "rep.invariant-lattice": 5,
}


def test_registry_caps_hold_their_defaults():
    list_checks()
    caps = {cid: entry[4] for cid, entry in checks._REGISTRY.items() if entry[4] is not None}
    assert caps == _CAPS
    for cid, (_, dim, _, _, max_dim) in checks._REGISTRY.items():
        assert max_dim is None or dim <= max_dim, cid


def test_capped_suite_refuses_before_any_sample(monkeypatch, capsys):
    """A dim over the cap is refused with CapExceeded, and the CLI exits
    1 with a structured error; the suite bodies here only record their
    dim, so the refused cases cost nothing."""
    list_checks()
    ran = []
    for cid, cap in _CAPS.items():
        _, dim, field, samples, max_dim = checks._REGISTRY[cid]
        monkeypatch.setitem(checks._REGISTRY, cid, (
            lambda rng, samples, field, dim, t: ran.append(dim), dim, field, samples, max_dim))
        with pytest.raises(CapExceeded, match=f"dim <= {cap}, got {cap + 1}"):
            run_check(cid, dim=cap + 1)
        assert cli.main(["check", cid, "--dim", str(cap + 1)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["type"] == "CapExceeded" and not err
        assert not ran
        run_check(cid, dim=cap, samples=0)
        assert ran == [cap]
        ran.clear()


def test_sample_guard_refuses_before_any_sample(monkeypatch, capsys):
    """More samples than the guard allows at a dim are refused with
    CapExceeded; every registry default is allowed.  The suite bodies
    here only record their sample count, so nothing heavy runs."""
    list_checks()
    ran = []
    for cid, (_, dim, field, samples, max_dim) in list(checks._REGISTRY.items()):
        monkeypatch.setitem(checks._REGISTRY, cid, (
            lambda rng, samples, field, dim, t: ran.append(samples), dim, field, samples,
            max_dim))
    for cid in list_checks():
        run_check(cid)
    assert len(ran) == len(list_checks())
    ran.clear()
    # samples x 8^(dim - max_dim) <= 10 for the capped suites, and at
    # most 10,000 samples for any
    for cid, dim, most in [("rho.homomorphism", 8, 10), ("rho.homomorphism", 7, 80),
                           ("rep.equivalence", 5, 5120), ("rho.square", 4, 10_000),
                           ("rep.invariant-lattice", 5, 10), ("rep.invariant-lattice", 3, 640),
                           ("bl.group-law", 4, 10_000), ("bl.group-law", 12, 10_000)]:
        with pytest.raises(CapExceeded, match=f"at most {most} samples at dim {dim}, "
                                              f"got {most + 1}$"):
            run_check(cid, dim=dim, samples=most + 1)
        assert not ran
        run_check(cid, dim=dim, samples=most)
        assert ran == [most]
        ran.clear()
    assert cli.main(["check", "rho.homomorphism", "--dim", "8", "--samples", "10000"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["type"] == "CapExceeded" and not err
    assert not ran

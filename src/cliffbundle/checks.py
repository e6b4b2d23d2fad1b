"""Named identity suites, addressable by stable string identifiers.

The registry maps each id to the body of one sample and the suite's
default dimension, field and sample count, and the largest dimension
it runs at: the largest dimension up to 12 at which one sample takes
at most about 1.5 CPU-s, or None for a suite whose cost does not
depend on the dimension (scalars.* and forms.pfaffian-det).  A request
over the cost guard is refused with CapExceeded before any sample
runs: a dimension over that largest one, more than _TOP_SAMPLES
samples' worth of work at it (samples x 8^(dim - max_dim)), or more
than _MAX_SAMPLES samples of any suite.

run_check holds the only sample loop.  It seeds one random.Random and
builds one AlgebraContext (so a dim below 1 is refused with its
ValueError), then calls body(rng, ctx, need, i) once per sample i with
a fresh need(ok, message).  A sample fails when any of its needs
fails; it counts as one attempt however many failed, or if the body
returned early, so passed + failed == samples.  A failed sample's
messages are joined with "; ", and the first _MAX_FAILURES failed
samples are kept.  The bodies live in suites.py, which the registry
loads on first use, so a request that runs no suite does not compile
them.  The CLI exposes the registry through the `check` subcommand;
the test suite drives the same functions.
"""

from __future__ import annotations

import random

from .errors import CapExceeded, ParseError
from .forms import AlgebraContext
from .records import record
from .scalars import Field, excerpt


@record()
class CheckResult:
    check_id: str
    seed: int
    samples: int
    passed: int
    failed: int
    failures: list

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
        }


_REGISTRY = {}

# The sample guard.  One sample of a suite at its largest dim takes
# from about 0.01 CPU-s (most suites at dim 12) through 0.7 CPU-s
# (rho.homomorphism at dim 8) and 3 CPU-s (twist.associativity at
# dim 12, so it stops at 11) to 6.5 CPU-s (rep.invariant-lattice at
# dim 5), and the steepest suites cost about 8x less per dim below it.
_TOP_SAMPLES = 10
_MAX_SAMPLES = 10_000
_MAX_FAILURES = 8


def check(check_id: str, dim: int = 4, field: str = "Q", samples: int = 25,
          max_dim: int | None = 12):
    """Register a suite: the decorated function is the body of one
    sample, body(rng, ctx, need, i), and runs at dim <= max_dim."""
    def deco(fn):
        _REGISTRY[check_id] = (fn, dim, field, samples, max_dim)
        return fn
    return deco


def _registry() -> dict:
    if not _REGISTRY:
        from . import suites  # noqa: F401  (its @check decorators fill _REGISTRY)
    return _REGISTRY


def list_checks():
    return sorted(_registry())


def run_check(check_id: str, seed: int = 0, samples: int | None = None,
              field: Field | str | None = None, dim: int | None = None) -> CheckResult:
    try:
        fn, ddim, dfield, dsamples, max_dim = _registry()[check_id]
    except KeyError:
        raise ParseError(f"unknown check id {excerpt(check_id)}; see the check list") from None
    if field is None:
        field = Field.from_spec(dfield)
    elif isinstance(field, str):
        field = Field.from_spec(field)
    dim = ddim if dim is None else dim
    if max_dim is not None and dim > max_dim:
        raise CapExceeded(f"check {check_id} runs at dim <= {max_dim}, got {dim}")
    samples = dsamples if samples is None else samples
    if samples < 0:
        raise ParseError(f"samples must be >= 0, got {samples}")
    most = _MAX_SAMPLES
    if max_dim is not None:
        most = min(most, _TOP_SAMPLES * 8 ** (max_dim - max(dim, 0)))
    if samples > most:
        raise CapExceeded(f"check {check_id} runs at most {most} samples at dim {dim}, "
                          f"got {samples}")
    rng = random.Random(seed)
    ctx = AlgebraContext(dim, field)
    failed, failures = 0, []
    for i in range(samples):
        bad = []

        def need(ok: bool, msg: str) -> bool:
            if not ok:
                bad.append(msg)
            return ok

        fn(rng, ctx, need, i)
        if bad:
            failed += 1
            if len(failures) < _MAX_FAILURES:
                failures.append("; ".join(bad))
    return CheckResult(check_id, seed, samples, samples - failed, failed, failures)

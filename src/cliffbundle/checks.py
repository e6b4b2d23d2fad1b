"""Named identity suites, addressable by stable string identifiers.

The registry maps each id to a suite and its default dimension, field
and sample count.  The suites themselves live in suites.py, which the
registry loads on first use, so a request that runs no suite does not
compile them.  One sample tallies as one attempt, so passed + failed ==
samples.  The CLI exposes the registry through the `check` subcommand;
the test suite drives the same functions.
"""

from __future__ import annotations

import random

from .errors import ParseError
from .records import record
from .scalars import Field


class Tally:
    """One attempt per sample; failures keep a capped message list."""

    def __init__(self, cap: int = 8):
        self.attempts = 0
        self.failed = 0
        self.failures = []
        self.cap = cap

    def sample(self, bad: list):
        self.attempts += 1
        if bad:
            self.failed += 1
            if len(self.failures) < self.cap:
                self.failures.append("; ".join(bad))


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


def check(check_id: str, dim: int = 4, field: str = "Q", samples: int = 25):
    def deco(fn):
        _REGISTRY[check_id] = (fn, dim, field, samples)
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
        fn, ddim, dfield, dsamples = _registry()[check_id]
    except KeyError:
        raise ParseError(f"unknown check id {check_id!r}; see the check list") from None
    if field is None:
        field = Field.from_spec(dfield)
    elif isinstance(field, str):
        field = Field.from_spec(field)
    dim = ddim if dim is None else dim
    samples = dsamples if samples is None else samples
    if samples < 0:
        raise ParseError(f"samples must be >= 0, got {samples}")
    t = Tally()
    fn(random.Random(seed), samples, field, dim, t)
    return CheckResult(check_id, seed, samples, t.attempts - t.failed, t.failed, t.failures)

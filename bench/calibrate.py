"""The speed probe that scales the benchmark's CPU times.

On a shared machine the same computation can take 40-90% more CPU time
for seconds at a time (another tenant on the same core).  The benchmark
runs ``probe()`` right before and right after every timed operation, on
the same CPU, and reports each operation's CPU time multiplied by

    REFERENCE_PROBE_S / mean of the operation's two probes,

that is, in CPU seconds at the speed at which the probe takes
REFERENCE_PROBE_S: its time on the reference machine (2 cores, Python
3.11.7) when nothing slows it.  The probe is a fixed exact Clifford
product from reference.py (dense, n = 4, over Q): dict, tuple and
Fraction work of the kind the program does, sharing no code with it, so
a change to the program cannot move it.
"""

from __future__ import annotations

import time

import gen
import reference as ref

REFERENCE_PROBE_S = 0.0035

_RNG = gen.rng_for("probe")
_N = 4
_DIAG, _UPPER = gen.quadratic(_RNG, 0, _N)
_U, _V = gen.dense(_RNG, 0, _N), gen.dense(_RNG, 0, _N)


def probe() -> float:
    """CPU seconds of one fixed reference computation."""
    t0 = time.process_time()
    ref.product(0, _N, _DIAG, _UPPER, _U, _V)
    return time.process_time() - t0


def scaled(records):
    """Records [name, group, cpu, failed, probe before, probe after] with
    cpu scaled to the reference speed."""
    return [[name, group, cpu * REFERENCE_PROBE_S * 2 / (before + after), failed, before, after]
            for name, group, cpu, failed, before, after in records]

"""Seeded inputs for the benchmark, in a neutral form.

An algebra is (p, n, diag, upper) as in the program's JSON: p == 0 is Q,
diag[i] = Q(e_{i+1}), upper is the ragged strict-upper polar data.
Forms are n x n lists, elements are dicts bitmask -> coefficient (see
reference.py).  Nothing here imports the program; ``to_program`` and
``from_program`` cross the boundary for the in-process workloads.
"""

from __future__ import annotations

import random
from fractions import Fraction

FIELD_NAMES = {0: "Q", 2: "Fp:2", 7: "Fp:7"}


def rng_for(*parts) -> random.Random:
    """A generator fixed by its parts, e.g. (workload, seed, round)."""
    return random.Random("/".join(str(x) for x in parts))


def coeff(rng: random.Random, p: int, nonzero: bool = False):
    if p:
        return rng.randrange(1 if nonzero else 0, p)
    while True:
        num = rng.randint(-5, 5)
        if num or not nonzero:
            return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def quadratic(rng, p: int, n: int):
    diag = [coeff(rng, p) for _ in range(n)]
    upper = [[coeff(rng, p) for _ in range(n - 1 - i)] for i in range(n - 1)]
    return diag, upper


def bilinear(rng, p: int, n: int):
    return [[coeff(rng, p) for _ in range(n)] for _ in range(n)]


def alternating(rng, p: int, n: int):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = coeff(rng, p)
            a[i][j] = c
            a[j][i] = (-c) % p if p else -c
    return a


def two_form(rng, p: int, n: int):
    return [[coeff(rng, p) for _ in range(n - 1 - i)] for i in range(n - 1)]


def sparse(rng, p: int, n: int, terms: int) -> dict:
    """terms distinct random blades, each with a nonzero coefficient."""
    masks = rng.sample(range(1 << n), min(terms, 1 << n))
    return {m: coeff(rng, p, nonzero=True) for m in masks}


def dense(rng, p: int, n: int) -> dict:
    """Every blade, each with a nonzero coefficient."""
    return {m: coeff(rng, p, nonzero=True) for m in range(1 << n)}


def vector(rng, p: int, n: int) -> dict:
    return {1 << i: coeff(rng, p, nonzero=True) for i in range(n)}


# ------------------------------------------------------------ JSON text


def blade(mask: int) -> list:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


# blade index tuples of every bitmask up to n = 10, made once on import so
# that building program elements spends no time converting masks
BLADES = [tuple(blade(m)) for m in range(1 << 10)]


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def parse_scalar(p: int, text: str):
    if p:
        return int(text) % p
    return Fraction(text)


def elt_json(elt: dict) -> dict:
    order = sorted(elt, key=lambda m: (bin(m).count("1"), blade(m)))
    return {"terms": [{"blade": blade(m), "coeff": str(elt[m])} for m in order]}


def elt_from_json(p: int, data: dict) -> dict:
    out = {}
    for term in data["terms"]:
        c = parse_scalar(p, term["coeff"])
        if c:
            out[mask_of(term["blade"])] = c
    return out


def context_json(p: int, n: int, diag, upper) -> dict:
    return {"dim": n, "field": FIELD_NAMES[p],
            "quadratic": {"diag": [str(x) for x in diag],
                          "polar_upper": [[str(x) for x in row] for row in upper]}}


def form_json(p: int, f) -> dict:
    return {"dim": len(f), "field": FIELD_NAMES[p],
            "entries": [[str(x) for x in row] for row in f]}


def two_form_json(p: int, n: int, coeffs) -> dict:
    return {"dim": n, "field": FIELD_NAMES[p],
            "coeffs": [[str(x) for x in row] for row in coeffs]}


# ------------------------------------------------------------ program objects


def to_program(cb, p: int, n: int):
    """Builders for program objects over (p, n); cb is the cliffbundle package."""
    field = cb.Field(p)
    ctx = cb.AlgebraContext(n, field)

    def algebra(diag, upper):
        return cb.CliffordContext(cb.QuadraticForm.make(ctx, diag, upper))

    def elt(cctx, e: dict):
        return cb.CliffElt(cctx, {BLADES[m]: field(c) for m, c in e.items()})

    def form(f):
        return cb.BilinearForm.make(ctx, f)

    def dual(coeffs):
        return cb.DualTwoForm.make(ctx, coeffs)

    return ctx, algebra, elt, form, dual


def from_program(w) -> dict:
    """A program element as a bitmask dict (read from its public terms)."""
    return {mask_of(b): c.value for b, c in w.terms.items() if c}

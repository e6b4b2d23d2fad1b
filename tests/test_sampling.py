"""The seeded generators against the Scalar route they replaced.

The oracle below draws every coefficient as a Scalar and builds each
form and element through its public constructor, as the generators
once did; it shares no code with sampling.py.  A generator and its
oracle run on two random.Random objects of one seed and must return
equal objects and leave equal generator states after every draw, so
the draw contract the suites' digests pin holds call by call.  The
drawn records must also be canonical: rebuilding one from its Scalar
views gives an equal record.
"""

import random
from fractions import Fraction

import pytest

from cliffbundle import (AlgebraContext, BilinearForm, CapExceeded, CliffElt,
                         CliffordContext, DualTwoForm, Field, LinearForm,
                         QuadraticForm, RATIONALS, TensorElt, Vector)
from cliffbundle import sampling, suites

FIELDS = (RATIONALS, Field(2), Field(7), Field(2 ** 61 - 1))
DIMS = range(1, 7)


# ------------------------------------------------------------ the oracle


def o_scalar(rng, field, span=5, nonzero=False):
    if field.char:
        lo = 1 if nonzero else 0
        return field(rng.randrange(lo, field.char))
    num = rng.randint(-span, span)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, span)
    den = rng.choice((1, 1, 1, 2, 3))
    return field(num if den == 1 else Fraction(num, den))


def o_vector(rng, ctx):
    return Vector.make(ctx, [o_scalar(rng, ctx.field) for _ in range(ctx.dim)])


def o_linear_form(rng, ctx):
    return LinearForm.make(ctx, [o_scalar(rng, ctx.field) for _ in range(ctx.dim)])


def o_bilinear(rng, ctx):
    return BilinearForm.make(ctx, [[o_scalar(rng, ctx.field) for _ in range(ctx.dim)]
                                   for _ in range(ctx.dim)])


def o_symmetric(rng, ctx):
    n = ctx.dim
    m = [[ctx.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = o_scalar(rng, ctx.field)
    return BilinearForm.make(ctx, m)


def o_alternating(rng, ctx):
    n = ctx.dim
    m = [[ctx.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = o_scalar(rng, ctx.field)
            m[i][j] = v
            m[j][i] = -v
    return BilinearForm.make(ctx, m)


def o_quadratic(rng, ctx):
    n = ctx.dim
    diag = [o_scalar(rng, ctx.field) for _ in range(n)]
    upper = [[o_scalar(rng, ctx.field) for _ in range(n - 1 - i)] for i in range(n - 1)]
    return QuadraticForm.make(ctx, diag, upper)


def o_dual_two_form(rng, ctx):
    n = ctx.dim
    return DualTwoForm.make(ctx, [[o_scalar(rng, ctx.field) for _ in range(n - 1 - i)]
                                  for i in range(n - 1)])


def o_word(rng, ctx, max_len):
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, ctx.dim) for _ in range(length))


def o_blade(rng, ctx):
    size = rng.randint(0, ctx.dim)
    return tuple(sorted(rng.sample(range(1, ctx.dim + 1), size)))


def o_tensor(rng, ctx, max_grade=4, terms=3, keys=None):
    out = TensorElt.zero(ctx)
    for _ in range(terms):
        word = o_word(rng, ctx, max_grade)
        if keys is not None:
            keys.add(word)
        out = out + TensorElt.from_word(ctx, word, o_scalar(rng, ctx.field))
    return out


def o_cliff(rng, cctx, terms=3, keys=None):
    out = CliffElt.zero(cctx)
    for _ in range(terms):
        blade = o_blade(rng, cctx.ctx)
        if keys is not None:
            keys.add(blade)
        out = out + CliffElt.blade(cctx, blade, o_scalar(rng, cctx.field))
    return out


# ------------------------------------------------------------ call by call


def _twins(seed):
    return random.Random(seed), random.Random(seed)


def _same_draw(a, b, drawn, oracle, *args, **kwargs):
    """drawn on a against oracle on b: equal results, equal states after."""
    got, want = drawn(a, *args, **kwargs), oracle(b, *args, **kwargs)
    assert got == want, (drawn.__name__, args, kwargs)
    assert type(got) is type(want)
    assert a.getstate() == b.getstate(), (drawn.__name__, args, kwargs)
    return got


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_draws_match_the_scalar_route(field, dim):
    """Every generator, in one interleaved stream per field and dim."""
    ctx = AlgebraContext(dim, field)
    a, b = _twins(1000 * dim + field.char % 1000)
    cctx = CliffordContext(_same_draw(a, b, sampling.rand_quadratic, o_quadratic, ctx))
    ext = CliffordContext.exterior(ctx)
    S = sampling
    for _ in range(12):
        _same_draw(a, b, S.rand_scalar, o_scalar, field)
        _same_draw(a, b, S.rand_scalar, o_scalar, field, span=40)
        _same_draw(a, b, S.rand_scalar, o_scalar, field, nonzero=True)
        _same_draw(a, b, S.rand_scalar, o_scalar, field, span=40, nonzero=True)
        _same_draw(a, b, S.rand_vector, o_vector, ctx)
        _same_draw(a, b, S.rand_linear_form, o_linear_form, ctx)
        _same_draw(a, b, S.rand_bilinear, o_bilinear, ctx)
        _same_draw(a, b, S.rand_symmetric, o_symmetric, ctx)
        _same_draw(a, b, S.rand_alternating, o_alternating, ctx)
        _same_draw(a, b, S.rand_quadratic, o_quadratic, ctx)
        _same_draw(a, b, S.rand_dual_two_form, o_dual_two_form, ctx)
        _same_draw(a, b, S.rand_word, o_word, ctx, 5)
        _same_draw(a, b, S.rand_blade, o_blade, ctx)
        _same_draw(a, b, S.rand_tensor, o_tensor, ctx)
        _same_draw(a, b, S.rand_tensor, o_tensor, ctx, max_grade=3, terms=2)
        _same_draw(a, b, S.rand_tensor, o_tensor, ctx, max_grade=0, terms=4)
        _same_draw(a, b, S.rand_cliff, o_cliff, cctx)
        _same_draw(a, b, S.rand_cliff, o_cliff, cctx, terms=2)
        _same_draw(a, b, S.rand_cliff, o_cliff, ext, terms=5)


def test_below_draws_what_randrange_draws():
    """_below(getrandbits, m) draws what randrange(m) does, value and
    state, at powers of two, just off them, m = 1 and beyond 64 bits."""
    for m in (1, 2, 3, 5, 7, 8, 9, 11, 2 ** 61 - 1, 2 ** 64, 10 ** 30):
        a, b = _twins(m % 997)
        for _ in range(200):
            assert sampling._below(a.getrandbits, m) == b.randrange(m)
        assert a.getstate() == b.getstate(), m


def test_mask_draws_what_sample_draws():
    """_mask draws its size as randint(0, n) and its indices as
    random.Random.sample(range(n), size) does, value and state, for
    n = 1..30: sample's pool branch at every size up to n = 21, and both
    its branches (a set of picks at size <= 5, the pool above) beyond."""
    for n in range(1, 31):
        a, b = _twins(n)
        for _ in range(300):
            size = b.randint(0, n)
            assert sampling._mask(a, n) == sum(1 << i for i in b.sample(range(n), size))
            assert a.getstate() == b.getstate(), n


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.spec)
def test_colliding_and_cancelling_terms(field):
    """n = 1 with six terms: keys repeat in every draw, and some sums
    cancel a key or the whole element, which then has no key left (over
    fields small enough that a sum of six draws is often zero)."""
    ctx = AlgebraContext(1, field)
    cctx = CliffordContext(QuadraticForm.make(ctx, [field(1)]))
    a, b = _twins(7)
    cancelled = empty = 0
    for _ in range(300):
        for drawn, oracle, home in ((sampling.rand_cliff, o_cliff, cctx),
                                    (sampling.rand_tensor, o_tensor, ctx)):
            keys = set()
            got = drawn(a, home, terms=6)
            want = oracle(b, home, terms=6, keys=keys)
            assert got == want and a.getstate() == b.getstate()
            cancelled += len(got.data) < len(keys)
            empty += not got
    assert cancelled and (empty or not field.char)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_a_word_over_the_grade_cap_is_refused_where_it_was(field):
    """A word longer than the cap raises CapExceeded once its
    coefficient is drawn, as TensorElt.from_word did."""
    ctx = AlgebraContext(2, field)
    a, b = _twins(11)
    refused = 0
    for _ in range(40):
        try:
            want = o_tensor(b, ctx, max_grade=20, terms=2)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                sampling.rand_tensor(a, ctx, max_grade=20, terms=2)
            refused += 1
        else:
            assert sampling.rand_tensor(a, ctx, max_grade=20, terms=2) == want
        assert a.getstate() == b.getstate()
    assert refused


# ------------------------------------------------------------ canonical data


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_drawn_data_is_canonical(field, dim):
    """Each drawn record equals, and hashes as, the one its Scalar views
    make: an unreduced den or an out-of-range residue would not."""
    ctx = AlgebraContext(dim, field)
    rng = random.Random(dim)
    cctx = CliffordContext(sampling.rand_quadratic(rng, ctx))
    for _ in range(10):
        for F in (sampling.rand_bilinear(rng, ctx), sampling.rand_symmetric(rng, ctx),
                  sampling.rand_alternating(rng, ctx)):
            G = BilinearForm.make(ctx, F.rows)
            assert G == F and hash(G) == hash(F)
        q = sampling.rand_quadratic(rng, ctx)
        r = QuadraticForm.make(ctx, q.diag, q.upper)
        assert r == q and hash(r) == hash(q)
        s = sampling.rand_dual_two_form(rng, ctx)
        t = DualTwoForm.make(ctx, s.coeffs)
        assert t == s and hash(t) == hash(s)
        w = sampling.rand_cliff(rng, cctx, terms=4)
        assert CliffElt(cctx, dict(w.terms)) == w
        u = sampling.rand_tensor(rng, ctx, terms=4)
        assert TensorElt(ctx, dict(u.terms)) == u


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_edited_forms_match_the_scalar_route(field):
    """_zero_columns's edit on the ints equals the Scalar rows edited
    and made again, with the same draws.  (The radical push of
    rep.invariant-lattice is pinned by the suite digests.)"""
    for dim in DIMS:
        ctx = AlgebraContext(dim, field)
        a, b = _twins(dim)
        for _ in range(10):
            G = _same_draw(a, b, sampling.rand_bilinear, o_bilinear, ctx)
            got = suites._zero_columns(a, G)
            cols = b.sample(range(dim), b.randint(1, max(1, dim // 2)))
            rows = [list(r) for r in G.rows]
            for j in cols:
                for i in range(dim):
                    rows[i][j] = field.zero
            want = BilinearForm.make(ctx, rows)
            assert got == want and hash(got) == hash(want)
            assert a.getstate() == b.getstate()

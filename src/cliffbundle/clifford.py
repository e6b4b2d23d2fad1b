"""Clifford algebras realized on the exterior algebra (Chevalley).

A CliffordContext fixes a quadratic form Q; elements are sparse maps
from strictly increasing index tuples (blades) to scalars.  The zero
form gives the exterior algebra.  Every operation is built on one
kernel, the action of a generator on exterior coordinates attached to
a bilinear form B,

    e_i . w = e_i ^ w + contraction of w by B(e_i, .),

which satisfies e_i . e_i . w = B(e_i, e_i) w, so words act through the
Clifford algebra of x -> B(x, x).  With the lower-triangular form G_Q
(diagonal Q(e_i), below it the polar values) the increasing product
e_S acts on the unit as e_S . 1 = e_S, so an element's coordinates are
those of its image in the exterior algebra, in every characteristic.
Each operation is then one sum of word actions, or for deform and
exp_contract the product of pair contractions that w . 1 reduces to
(see deform):

    u * v                   u . v    B = G_Q
    deform(F, w)            prod over i < j of (1 + F_ij i_j i_i) w, that
                            is prod over i of (1 + i_{g_i} i_i) w with
                            g_i = sum over j > i of F_ij e*_j
    exp_contract(a*, w)     the same product, F_ij = -c_ij the entries
                            of a* = sum over i < j of c_ij e*_i ^ e*_j
    deform_apply(F, u, v)   u . v    B = G_Q + F, Q of v
    quotient_map(u)         u . 1    B = G_Q, the keys of u are words
    f * g, Q = 0            f . g    B = 0, the wedge
    interior(f, w)          f . w    B = I, no wedge part

and the representation matrices of repcheck are columns of these:
rho_matrix(F, u) has column S = u . e_S (B = F), and twist_matrix(A)
column S = deform(A, e_S), the pair product on e_S.

The exterior algebra (Q = 0) is also that of the dual space: in
interior(f, w), f is an exterior element with e_i read as e_i*.
Twisted products, the reversal, the contraction by a linear form and
the symbol and quantization maps are built from these.  The tensor
algebra (tensor.py) runs the same sums with words as keys, e_i (x) in
place of e_i ^: that is Bourbaki's deformation of T(V), the
construction the quotient inherits.

The kernel works on plain integers, and the key type is its one
parameter.  A blade is an int bitmask (bit i - 1 for e_i, as in the
bitmap representation of Dorst, Fontijne and Mann), so e_i ^ and the
contraction by e_i* carry the sign (-1)^k, k the number of set bits
below bit i - 1.  A word is a tuple of letters: e_i (x) prepends the
letter i, and the contraction removes the letter at position t with
the sign (-1)^t.  Over GF(p) the coefficients are residues, reduced
mod p once per generator action.  Over Q the computation is
fraction-free: with d the common denominator of B, e_i acts by the
integer operator d e_i ^ + contraction by d B(e_i, .), u and v are
scaled to integers by their common denominators, and the sum is
divided once at the end.  Forms enter as the raw values of their
Scalars, and Scalars are read when a call enters the kernel and built
when it leaves, straight from canonical values (scalars.canonical) into
an element that takes the map as it is (_Sparse._of).  Both crossings
are table lookups that map, zip and dict run in C: a blade becomes its
mask through _masks(n) and a mask its blade through _blades(n), the
2^n blades in mask order, kept up to n = 12 (above, a dense exit
builds the table for its call and a sparse call converts key by key),
and over GF(p), when p is below half the number of values, a residue
becomes its Scalar from the field's p Scalars, built once for the call
(else, and over Q, each Scalar is built).  The blades of u are walked
as masks in numeric order (_mask_walk), words by their reversal
(_suffix_walk).

The sums and the pair products have two carriers.  A call whose
operands each fill at least half the 2^n blade slots, 2 min(|u|, |v|)
>= 2^n for a sum (dense products, deform_apply, twisted_mul, interior)
and 2 |w| >= 2^max(n, 7) for a pair product (deform, symbol, quantize,
exp_contract), runs on packed integers (_carrier): a coefficient map
is two nonnegative ints P and N, its positive and negative parts, the
value at mask m in bits [m W, (m + 1) W).  e_i ^ is a masked left
shift by 2^(i-1) W of the slots without bit i - 1, the contraction by
e_j* a masked right shift by 2^(j-1) W of the slots with bit j - 1
(_contract), and a slot with an odd number of set bits below the moved
one swaps P and N: O(n) big-integer operations per action in place of
one dict update per term and row entry.  _packed_sum acts by e_i as
that shift plus the contraction by its row; _packed_pairs makes pass i
one contraction by e_i* and one by g_i, n + (nonzero pairs) in all, in
place of one dict pass per pair over every term.  W is fixed before
the first action from a bound on every slot: for a sum
(sum over S of |u_S| d^(m - |S|)) R^m max|v|, R the largest d plus sum
of |entries| of a row, and for a pair product (sum of |w_M| weighted)
times (sum over k <= T / 2 of e_k(r)), r_i the sum of |F_ij| over
j > i.  So no slot carries into its neighbour in any field or at any
coefficient size; over GF(p) the slots are reduced only at the exit.
The exit reads the slots in C: the bytes of P and N strided into the
64-bit limbs of an array (_split), then P - N slot by slot.  Sparse
calls, word keys and the matrix builders of repcheck stay on
dicts.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, repeat
from operator import attrgetter, lshift, or_, sub

from .errors import (CapExceeded, CharacteristicError, ContextMismatch, FormError,
                     ParseError)
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, Field, LinearForm,
                    QuadraticForm, Vector, polar_form, quad_of_bilinear, same_context)
from .records import record
from .scalars import Scalar, canonical, excerpt, raw_rows, scaled_ints, shaped


@record(frozen=True)
class CliffordContext:
    """The algebra over a fixed quadratic form."""

    quadratic: QuadraticForm

    @property
    def ctx(self) -> AlgebraContext:
        return self.quadratic.ctx

    @property
    def dim(self) -> int:
        return self.quadratic.ctx.dim

    @property
    def field(self) -> Field:
        return self.quadratic.ctx.field

    @classmethod
    def exterior(cls, ctx: AlgebraContext) -> "CliffordContext":
        return cls(QuadraticForm.zero(ctx))

    def is_exterior(self) -> bool:
        return self.quadratic.is_zero()

    def coerce(self, value) -> Scalar:
        return self.ctx.coerce(value)

    def shift(self, F: BilinearForm) -> "CliffordContext":
        """The context whose quadratic form is Q + (x -> F(x, x))."""
        same_context(self.ctx, F.ctx)
        return CliffordContext(self.quadratic + quad_of_bilinear(F))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "field": self.field.spec,
            "quadratic": self.quadratic.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CliffordContext":
        return cls(QuadraticForm.from_json(AlgebraContext.from_json(data), data["quadratic"]))


def subset_index(blade) -> int:
    """Bitmask index of a strictly increasing subset, S -> sum 2^(i-1):
    the kernel's key for a blade, and its row and column in repcheck."""
    m = 0
    for i in blade:
        m |= 1 << (i - 1)
    return m


def index_subset(m: int) -> tuple:
    """The blade of a bitmask index, the inverse of subset_index, read
    bit by bit.  The kernel reads blades from its tables (_blades) up to
    n = _TABLE_DIM and calls this per key only for sparse results above."""
    if m < 0:
        raise ValueError(f"a bitmask index is nonnegative, got {m}")
    out = []
    i = 1
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


# The largest n whose blade tables are kept: 2^12 blades.  Above it a
# dense exit builds its table once per call, and sparse entries and
# exits convert key by key, so no sparse call builds a table.
_TABLE_DIM = 12


@lru_cache(maxsize=None)
def _kept_blades(n: int) -> tuple:
    """_blades(n) for n <= _TABLE_DIM, grown from the kept table of n - 1."""
    if not n:
        return ((),)
    low = _kept_blades(n - 1)
    return low + tuple([b + (n,) for b in low])


def _blades(n: int):
    """Every blade on e_1 .. e_n in mask order, the blade of mask m at
    index m, built by doubling: the blades on e_1 .. e_(n-1), then each
    of them with n appended.  Kept for n <= _TABLE_DIM; above that,
    grown from the kept table for each call."""
    if n <= _TABLE_DIM:
        return _kept_blades(n)
    out = list(_kept_blades(_TABLE_DIM))
    for i in range(_TABLE_DIM + 1, n + 1):
        out += [b + (i,) for b in out]
    return out


@lru_cache(maxsize=None)
def _masks(n: int) -> dict:
    """The inverse of _blades(n), blade -> mask, for n <= _TABLE_DIM."""
    return dict(zip(_kept_blades(n), range(1 << n)))


def _checked_index(n: int, blade) -> int:
    """subset_index of a blade on e_1 .. e_n, and for any other key the
    KeyError that a lookup in _masks(n) raises."""
    try:
        if all(a < b for a, b in zip((0, *blade), (*blade, n + 1))):
            return subset_index(blade)
    except TypeError:
        pass
    raise KeyError(blade)


def _masks_of(n: int, blades):
    """The masks of blades on e_1 .. e_n, read from _masks(n) up to
    _TABLE_DIM, else one at a time (subset_index)."""
    return map(_masks(n).__getitem__ if n <= _TABLE_DIM else subset_index, blades)


def _blades_of(n: int, masks):
    """The blades of masks below 2^n, the inverse of _masks_of."""
    return map(_blades(n).__getitem__, masks) if n <= _TABLE_DIM else map(index_subset, masks)


_value = attrgetter("value")


def _raw(terms: dict) -> dict:
    """The kernel's entry for word-keyed Scalars: word -> raw value."""
    return dict(zip(terms, map(_value, terms.values())))


def _entry(n: int, terms: dict) -> dict:
    """The kernel's entry for blade-keyed Scalars: mask -> raw value.
    The keys are blades, as CliffElt's constructor checks."""
    return dict(zip(_masks_of(n, terms), map(_value, terms.values())))


def _rational(x: int, den: int):
    """x / den in Scalar's canonical form over Q: an int when den
    divides x, else the reduced Fraction."""
    if den == 1:
        return x
    return Fraction(x, den) if x % den else x // den


def _scalars(field: Field, keys, values, dens) -> dict:
    """The kernel's exit: the nonzero raw values as Scalars at their
    keys; over GF(p) reduced mod p, over Q the value at a key of grade
    k divided by dens[k].  The values are canonical there, so the
    Scalars are built without tests.  Over GF(p) with p below half the
    number of values, the p Scalars of the field are built once and
    shared (Scalars are immutable), each of the caller's field so that
    later field checks stay identity tests."""
    p = field.char
    if not p:
        return {k: canonical(field, _rational(x, dens[len(k)]))
                for k, x in zip(keys, values) if x}
    residues = list(map(p.__rmod__, values))
    if 2 * p < len(residues):
        table = [canonical(field, r) for r in range(p)]
        return dict(compress(zip(keys, map(table.__getitem__, residues)), residues))
    return {k: canonical(field, r) for k, r in zip(keys, residues) if r}


def _ints(p: int, values: list) -> tuple:
    """The kernel's entry: values over one common denominator (see
    scaled_ints); residues over GF(p) are integers already."""
    return (values, 1) if p else scaled_ints(values)


def _reduced(out: dict, p: int) -> dict:
    """out without its zero values, reduced mod p when p > 0."""
    if p:
        return {k: r for k, c in out.items() if (r := c % p)}
    return {k: c for k, c in out.items() if c}


def _act(bit: int, scale: int, row, p: int, terms: dict) -> dict:
    """scale (e_i ^ w) + contraction of w by row, on a mask -> int map;
    bit is 1 << (i - 1) and row lists (bit, value) for the nonzero
    entries of B(e_i, .).  Inserting or removing the bit past the k set
    bits below it carries the sign (-1)^k.  Reduced mod p when p > 0."""
    out = {}
    if scale:
        low = bit - 1
        for m, c in terms.items():
            if not m & bit:
                out[m | bit] = -scale * c if (m & low).bit_count() & 1 else scale * c
    get = out.get
    for b, f in row:
        low = b - 1
        for m, c in terms.items():
            if m & b:
                k = m ^ b
                t = f * c
                out[k] = get(k, 0) + (-t if (m & low).bit_count() & 1 else t)
    return _reduced(out, p)


def _act_word(bit: int, scale: int, row, p: int, terms: dict) -> dict:
    """The same action on a word -> int map: scale (e_i w) prepends the
    letter i, and the contraction removes the letter at position t
    (from 0) with the sign (-1)^t."""
    letter = (bit.bit_length(),)
    values = {b.bit_length(): f for b, f in row}
    out = {letter + w: scale * c for w, c in terms.items()} if scale else {}
    get = out.get
    for w, c in terms.items() if values else ():
        for t, a in enumerate(w):
            f = values.get(a)
            if f:
                k = w[:t] + w[t + 1:]
                x = f * c
                out[k] = get(k, 0) + (-x if t & 1 else x)
    return _reduced(out, p)


def _actions(rows, wedge: bool = True) -> tuple:
    """The kernel's integer set-up for the generator action attached to
    raw rows (the rows of B, rationals or residues): (acts, scale, d),
    with d the common denominator of the rows, acts[i - 1] the bit of
    e_i and the (bit, value) pairs of the nonzero entries of
    d B(e_i, .), and scale the wedge weight d (0 when wedge is off).
    Each act is then d times the action of e_i."""
    flat, d = scaled_ints([c for row in rows for c in row])
    n = len(rows[0])
    acts = [(1 << r, [(1 << j, f) for j, f in enumerate(flat[r * n:(r + 1) * n]) if f])
            for r in range(len(rows))]
    return acts, (d if wedge else 0), d


def _suffix_walk(words, start, step):
    """Each word S of words, (word, c) pairs, with e_S . start: yields
    (c, |S|, e_S . start), where step(x, letter) is e_letter . x.  Each
    e_S . x is e_first . (e_rest . x): the words are visited sorted by
    their reversal, and the results along the word in hand are kept,
    one per suffix, until a word that does not share it comes (at most
    the longest word + 1 results), so each suffix is acted out once and
    the words may be any words."""
    letters, chain = [], [start]
    for rev, c in sorted((w[::-1], c) for w, c in words):
        k = 0
        for a, b in zip(letters, rev):
            if a != b:
                break
            k += 1
        del letters[k:], chain[k + 1:]
        got = chain[-1]
        for a in rev[k:]:
            got = step(got, a)
            letters.append(a)
            chain.append(got)
        yield c, len(rev), got


def _mask_walk(items, start, step):
    """_suffix_walk for blades held as masks, (mask, c) pairs: numeric
    order is the order of the reversed blades, and the suffix a mask
    shares with the one before it is its set bits above the highest bit
    where the two differ; the bits from there down are acted out
    highest first.  It yields the same (c, |S|, e_S . start) triples."""
    chain, last = [start], 0
    for m, c in sorted(items):
        top = (m ^ last).bit_length()
        del chain[(m >> top).bit_count() + 1:]
        got = chain[-1]
        rest = m & ((1 << top) - 1)
        while rest:
            letter = rest.bit_length()
            got = step(got, letter)
            chain.append(got)
            rest ^= 1 << (letter - 1)
        last = m
        yield c, m.bit_count(), got


def _walk(u: dict) -> tuple:
    """The walk over the keys of u and their grade: _mask_walk and the
    set bits for masks (u keyed by blades), _suffix_walk and the length
    for words."""
    if type(next(iter(u), None)) is int:
        return _mask_walk, int.bit_count
    return _suffix_walk, len


def _word_sum(act, actions: tuple, p: int, u: dict, v: dict) -> tuple:
    """The sum over the words S of u of u_S (e_S . v): (map, den).  act
    is the generator action on the keys of v, _act on bitmasks or
    _act_word on words; u and v map their keys to raw values, and u's
    keys are walked by _walk.  Over Q the result is the map divided by
    den: u and v are scaled to integers by their common denominators,
    u_S is weighted by d^(m - |S|), m the longest word of u, and den is
    those denominators times d^m.  Over GF(p) the map is unreduced and
    den is 1."""
    acts, scale, d = actions
    vnum, dv = _ints(p, list(v.values()))
    unum, du = _ints(p, list(u.values()))
    walk, grade = _walk(u)
    top = max(map(grade, u), default=0)

    def step(got, letter):
        bit, row = acts[letter - 1]
        return act(bit, scale, row, p, got)

    out = {}
    get = out.get
    for c, length, got in walk(zip(u, unum), dict(zip(v, vnum)), step):
        if d != 1:
            c *= d ** (top - length)
        for k, x in got.items():
            out[k] = get(k, 0) + c * x
    return out, du * dv * d ** top


def _carrier(n: int, bound: int) -> tuple:
    """The packed carrier of slots at most bound: (width, masks), slot m
    in bits [m W, (m + 1) W), W = 8 width the least multiple of 8 above
    the bits of bound (so every slot is below 2^(W - 1)), and for each
    bit r, masks[r] = (2^r W the shift of bit r, the slots without bit r
    whose set bits below r are even, those whose set bits below r are
    odd), built by doubling for the one call."""
    width = bound.bit_length() // 8 + 1
    W, slots = 8 * width, 1 << n

    def spread(block, period):
        while period < slots:
            block |= block << (period * W)
            period <<= 1
        return block

    # parity, the even pattern on the first 2^r slots, grows one bit at a time
    masks = []
    parity = (1 << W) - 1
    for r in range(n):
        full = (1 << (W << r)) - 1
        masks.append((W << r, spread(parity, 2 << r), spread(full ^ parity, 2 << r)))
        parity |= (full ^ parity) << (W << r)
    return width, masks


def _pack(items, n: int, width: int) -> tuple:
    """The packed pair (P, N) of (mask, int) items: their positive and
    negative parts, the value at m in bytes [m width, (m + 1) width)."""
    P, N = [0] * (1 << n), [0] * (1 << n)
    for m, x in items:
        if x > 0:
            P[m] = x
        elif x:
            N[m] = -x
    return _join(P, n, width), _join(N, n, width)


def _join(slots: list, n: int, width: int) -> int:
    """The int whose slot m, bytes [m width, (m + 1) width), holds
    slots[m], each nonnegative and below 2^(8 width)."""
    return int.from_bytes(b"".join(map(int.to_bytes, slots, repeat(width), repeat("little"))),
                          "little")


def _split(X: int, n: int, width: int):
    """The inverse of _join: the 2^n slots of X as ints, its bytes
    strided into the 64-bit limbs of an array and each slot's limbs
    joined."""
    from array import array
    size = -(-width // 8)
    raw, stride = X.to_bytes(width << n, "little"), 8 * size
    if width < stride:
        buf = bytearray(stride << n)
        for j in range(width):
            buf[j::stride] = raw[j::width]
        raw = buf
    limbs = array("Q", raw)
    if sys.byteorder == "big":
        limbs.byteswap()
    out = limbs[size - 1::size]
    for k in range(size - 2, -1, -1):
        out = map(or_, map(lshift, out, repeat(64)), limbs[k::size])
    return out


def _unpack(P: int, N: int, n: int, width: int) -> list:
    """The value P - N at every mask below 2^n."""
    return list(map(sub, _split(P, n, width), _split(N, n, width)))


def _contract(P: int, N: int, row, outP: int = 0, outN: int = 0) -> tuple:
    """(outP, outN) plus the contraction of the packed pair (P, N) by the
    linear form sum of f e_{r+1}* over row, (masks of bit r, f) pairs:
    the slots with bit r move down to m without it, times |f|, and a slot
    with an odd number of set bits below r, or a negative f, swaps P
    and N."""
    for (down, even, odd), f in row:
        Pr, Nr = P >> down, N >> down
        pos, neg = (Pr & even) | (Nr & odd), (Nr & even) | (Pr & odd)
        if f < 0:
            pos, neg, f = neg, pos, -f
        if f != 1:
            pos, neg = pos * f, neg * f
        outP += pos
        outN += neg
    return outP, outN


def _packed_sum(actions: tuple, p: int, n: int, u: dict, v: dict) -> tuple:
    """_word_sum on bitmask keys below 2^n, each coefficient map held as
    a packed pair (P, N) of nonnegative big integers, its positive and
    negative parts, with the value at mask m in bits [m W, (m + 1) W):
    (values, den), values[m] the unreduced value at m for every
    m < 2^n.  The action of e_i moves the slots without bit i - 1 up by
    2^(i-1) W (times the wedge weight), a slot whose set bits below it
    are odd in number swapping P and N, and adds the contraction by its
    row (_contract).  Every slot of every P and N, the sum's included,
    is at most (sum over S of |u_S d^(m - |S|)|) R^m max|v|, R the
    largest d + sum of |row entries| over the rows, so a W above that
    bound keeps each slot out of its neighbours, in every field and at
    any coefficient size."""
    acts, scale, d = actions
    vnum, dv = _ints(p, list(v.values()))
    unum, du = _ints(p, list(u.values()))
    walk, grade = _walk(u)
    top = max(map(grade, u))
    coeffs = [c * d ** (top - k) for k, c in zip(map(grade, u), unum)]
    reach = max(d + sum(abs(f) for _, f in row) for _, row in acts)
    width, masks = _carrier(n, sum(map(abs, coeffs)) * reach ** top * max(map(abs, vnum)))
    moves = [(masks[r], [(masks[b.bit_length() - 1], f) for b, f in row])
             for r, (_, row) in enumerate(acts)]

    def step(pair, letter):
        P, N = pair
        (up, e, o), row = moves[letter - 1]
        outP = outN = 0
        if scale:
            outP, outN = ((P & e) | (N & o)) << up, ((N & e) | (P & o)) << up
            if scale != 1:
                outP, outN = outP * scale, outN * scale
        return _contract(P, N, row, outP, outN)

    sumP = sumN = 0
    for c, _, (P, N) in walk(zip(u, coeffs), _pack(zip(v, vnum), n, width), step):
        if c < 0:
            P, N, c = N, P, -c
        sumP += c * P
        sumN += c * N
    return _unpack(sumP, sumN, n, width), du * dv * d ** top


def _apply(field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True) -> dict:
    """The sum over the words S of u of u_S (e_S . v) on words, where
    e_i acts by e_i (x) w (unless wedge is off) plus the contraction by
    rows[i - 1].  Scalars are read at entry and built at exit; in
    between, coefficients are ints."""
    out, den = _word_sum(_act_word, _actions(rows, wedge), field.char, _raw(u_terms),
                         _raw(v_terms))
    return _scalars(field, out, out.values(), [den] * (1 + max(map(len, out), default=0)))


def _operate(field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True,
             words: bool = False) -> dict:
    """The same sum on blades, which are bitmasks inside the kernel, as
    are u's keys unless words is set (reverse and quotient_map, whose u
    is keyed by words): on packed integers (_packed_sum) when
    2 min(|u|, |v|) >= 2^n, so that at least half the 2^n slots are
    filled from the start, else on dicts (_word_sum).  Below that the
    packed sum's fixed set-up costs more than it saves: at n = 4 with 4
    to 6 terms a side it takes about 2.5 times as long as the dicts,
    from 7 terms a side less."""
    n = len(rows[0])
    actions = _actions(rows, wedge)
    u = _raw(u_terms) if words else _entry(n, u_terms)
    v = _entry(n, v_terms)
    if 2 * min(len(u), len(v)) >= 1 << n:
        values, den = _packed_sum(actions, field.char, n, u, v)
        return _scalars(field, _blades(n), values, [den] * (n + 1))
    out, den = _word_sum(_act, actions, field.char, u, v)
    return _scalars(field, _blades_of(n, out), out.values(), [den] * (n + 1))


def _pair_rows(p: int, rows) -> tuple:
    """The pair product's integer set-up for raw rows B: (g, d), g[i]
    the (j, f_ij) for j > i with f_ij = d B_ij nonzero.  Over GF(p) f_ij
    is the residue of absolute value at most p / 2, which keeps packed
    slots narrow, and d is 1; over Q d is the common denominator of the
    strict-upper entries."""
    n = len(rows)
    ij = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if p:
        upper, d = [(rows[i][j] + p // 2) % p - p // 2 for i, j in ij], 1
    else:
        upper, d = scaled_ints([rows[i][j] for i, j in ij])
    g = [[] for _ in range(n)]
    for (i, j), f in zip(ij, upper):
        if f:
            g[i].append((j, f))
    return g, d


def _pair_passes(g: list, terms: dict) -> dict:
    """prod over i < j of (1 + f_ij i_j i_i) on a mask -> int map, g[i]
    the (j, f_ij) with f_ij nonzero: one pass per pair, each adding f c
    at m without bits i and j for every term c at a mask m holding both,
    with the sign (-1)^k, k the set bits of m strictly between them.
    Only the bits below len(g) are read, so higher bits of a key ride
    along unchanged."""
    out = dict(terms)
    get = out.get
    for i, row in enumerate(g):
        for j, f in row:
            both, between = (1 << i) | (1 << j), (1 << j) - (2 << i)
            for m, c in [(m, c) for m, c in out.items() if m & both == both]:
                k = m ^ both
                t = f * c
                out[k] = get(k, 0) + (-t if (m & between).bit_count() & 1 else t)
    return out


def _packed_pairs(g: list, n: int, terms: dict) -> list:
    """The same product on the packed carrier (see _carrier): values[m]
    for every m < 2^n.  As i_i^2 = 0, the factors of one i multiply to
    1 + i_{g_i} i_i, g_i the form sum over j > i of f_ij e_j*, so pass i
    adds the contraction by g_i of the contraction by e_i* of all slots:
    n contractions plus one per pair in place of one pass per pair over
    every term.  A term of grade at most T is moved by at most T / 2
    passes, each times at most r_i = sum over j of |f_ij|, so no slot
    exceeds
    (sum of |terms|) (sum over k <= T / 2 of e_k(r)), e_k the elementary
    symmetric sums, and W is fixed above that before the first pass."""
    half = max(map(int.bit_count, terms)) >> 1
    e = [1] + [0] * half
    for row in g:
        r = sum([abs(f) for _, f in row])
        for k in range(half, 0, -1):
            e[k] += e[k - 1] * r
    width, masks = _carrier(n, sum(map(abs, terms.values())) * sum(e))
    P, N = _pack(terms.items(), n, width)
    for i, row in enumerate(g):
        if row:  # out += i_{g_i} i_i out
            below = _contract(P, N, [(masks[i], 1)])
            P, N = _contract(*below, [(masks[j], f) for j, f in row], P, N)
    return _unpack(P, N, n, width)


def _contract_pairs(field: Field, rows, w_terms: dict) -> dict:
    """exp(sum over i < j of B_ij i_j i_i) w, B the raw rows, on the
    packed carrier (_packed_pairs) when 2 |w| >= 2^max(n, 7), else on
    dicts (_pair_passes).  A dict pass is cheaper than a generator
    action, so the pair product packs later than _operate.  Timed on
    the same input, the dicts are faster up to n = 5 even for a dense w
    (40-80% of the packed time), the carriers meet at n = 6 with half
    to three quarters of the slots filled, and packing wins for a full
    w at n = 6 and for half the slots or more from n = 7 on.
    The pairs come from _pair_rows.  Over Q it is fraction-free: with d
    its common denominator, w_M is weighted by d^((T - |M|) / 2), T the
    top grade of w of the parity of |M|, and the result at K is divided
    once by den(w) times d^((T - |K|) / 2)."""
    p = field.char
    n = len(rows)
    g, d = _pair_rows(p, rows)
    w = _entry(n, w_terms)
    num, dw = _ints(p, list(w.values()))
    dens = [dw] * (n + 1)
    if d != 1:
        grades = set(map(int.bit_count, w))
        top = [max((k for k in grades if k & 1 == r), default=r) for r in (0, 1)]
        weights = [d ** (max(top[k & 1] - k, 0) >> 1) for k in range(n + 1)]
        num = [c * weights[m.bit_count()] for m, c in zip(w, num)]
        dens = [dw * x for x in weights]
    terms = dict(zip(w, num))
    if 2 * len(terms) >= 1 << max(n, 7):
        return _scalars(field, _blades(n), _packed_pairs(g, n, terms), dens)
    out = _pair_passes(g, terms)
    return _scalars(field, _blades_of(n, out), out.values(), dens)


def _chevalley(q: QuadraticForm, F: BilinearForm | None = None) -> list:
    """Raw rows of G_q (plus F), reduced mod p: G_q is the
    lower-triangular form with G_q(x, x) = q(x), Q(e_i) on the diagonal
    and the polar values below it, whose action gives normal-ordered
    coordinates."""
    n = q.ctx.dim
    p = q.ctx.field.char
    rows = [[q.diag[i].value if j == i else q.upper[j][i - j - 1].value if j < i else 0
             for j in range(n)] for i in range(n)]
    if F is not None:
        rows = [[a + f.value for a, f in zip(ra, rf)] for ra, rf in zip(rows, F.rows)]
    return [[x % p for x in row] for row in rows] if p else rows


class _Sparse:
    """A finite map from keys to nonzero Scalars over one context: the
    arithmetic CliffElt (blades) and TensorElt (words) share.  Each
    class checks its keys in its constructor, names the context slot
    (cctx, ctx), refuses an operand of another context in _same, and
    sets how __repr__ shows a key in _key_text (opening, separator,
    closing)."""

    __slots__ = ("_home", "terms")

    @classmethod
    def _of(cls, home, terms: dict):
        """The element of terms, a map the kernel or a builder of valid
        keys made: its values are nonzero already, so it is taken as is."""
        self = object.__new__(cls)
        self._home = home
        self.terms = terms
        return self

    def _nonzero(self, terms: dict):
        """The element of terms over this context, whose keys come from
        checked elements: only the zero values are dropped."""
        return self._of(self._home, {k: c for k, c in terms.items() if c})

    @classmethod
    def zero(cls, home):
        return cls._of(home, {})

    @classmethod
    def unit(cls, home):
        return cls._of(home, {(): home.field.one})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._home == other._home and self.terms == other.terms

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        return self._nonzero(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._nonzero({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """Multiplication by a scalar; each class adds its own product."""
        if isinstance(other, (Scalar, int)):
            s = self._home.coerce(other)
            return self._nonzero({k: c * s for k, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def coeff(self, key) -> Scalar:
        return self.terms.get(tuple(key), self._home.field.zero)

    def grade_part(self, p: int):
        return self._nonzero({k: c for k, c in self.terms.items() if len(k) == p})

    def grade_involution(self):
        """Sign (-1)^p on each grade-p key.  It descends from the tensor
        algebra to each Clifford algebra because the defining ideal is
        generated by even elements."""
        return self._nonzero({k: (c if len(k) % 2 == 0 else -c) for k, c in self.terms.items()})

    def _sorted_keys(self) -> list:
        """The keys by grade, then lexicographically: the order of
        __repr__ and to_json."""
        return sorted(self.terms, key=lambda t: (len(t), t))

    def __repr__(self):
        left, sep, right = self._key_text
        bits = [f"{self.terms[k]}*{left}{sep.join(map(str, k))}{right}"
                for k in self._sorted_keys()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class CliffElt(_Sparse):
    """A normal-form element: finite map from increasing blades to
    scalars.  Over the exterior context it is also an element of the
    exterior algebra of the dual, the argument of interior."""

    __slots__ = ()
    cctx = _Sparse._home
    _key_text = ("{", ",", "}")

    def _same(self, other: "CliffElt"):
        if self.cctx != other.cctx:
            raise ContextMismatch("elements of different Clifford contexts")

    def __init__(self, cctx: CliffordContext, terms=None):
        """A key that is not a blade on e_1 .. e_n raises FormError, zero
        or not, and one equal to a blade is stored as it: (True,) as (1,).
        Up to _TABLE_DIM it is looked up in _masks(n), above tested alone."""
        n = cctx.dim
        terms = terms or {}
        if n <= _TABLE_DIM:
            mask, blade = _masks(n).__getitem__, _kept_blades(n).__getitem__
        else:
            mask, blade = partial(_checked_index, n), index_subset
        try:
            self.terms = {blade(m): c for m, c in zip(map(mask, terms), terms.values()) if c}
        except KeyError as exc:
            raise FormError(f"a term's key must be a blade on e_1..e_{n}, "
                            f"got {excerpt(exc.args[0])}") from None
        self._home = cctx

    @classmethod
    def blade(cls, cctx: CliffordContext, indices, coeff=1) -> "CliffElt":
        return cls(cctx, {tuple(indices): cctx.ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, cctx: CliffordContext, x: Vector) -> "CliffElt":
        same_context(cctx.ctx, x.ctx)
        return cls._of(cctx, {(i + 1,): c for i, c in enumerate(x.coeffs) if c})

    def __mul__(self, other):
        if isinstance(other, CliffElt):
            self._same(other)
            return CliffElt._of(self.cctx, _operate(
                self.cctx.field, _chevalley(self.cctx.quadratic), self.terms, other.terms))
        return super().__mul__(other)

    def reverse(self) -> "CliffElt":
        """The anti-automorphism reversing generator order: each blade
        read backwards, as a word acting on the unit."""
        return CliffElt._of(self.cctx, _operate(
            self.cctx.field, _chevalley(self.cctx.quadratic),
            {b[::-1]: c for b, c in self.terms.items()}, {(): self.cctx.field.one}, words=True))

    def to_json(self) -> dict:
        return {"terms": [{"blade": list(b), "coeff": str(self.terms[b])}
                          for b in self._sorted_keys()]}

    @classmethod
    def from_json(cls, cctx: CliffordContext, data: dict) -> "CliffElt":
        out = {}
        for term in shaped(shaped(data, dict, "element")["terms"], list, "terms"):
            blade = tuple(shaped(shaped(term, dict, "terms entry")["blade"], list, "blade"))
            if any(isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= cctx.dim
                   for i in blade):
                raise ParseError(f"blade index out of range: {excerpt(list(blade))}")
            if any(blade[t] >= blade[t + 1] for t in range(len(blade) - 1)):
                raise ParseError(f"blade must be strictly increasing: {excerpt(list(blade))}")
            c = cctx.field.parse(term["coeff"])
            cur = out.get(blade)
            out[blade] = c if cur is None else cur + c
        return cls(cctx, out)


def quotient_map(cctx: CliffordContext, u: TensorElt) -> CliffElt:
    """The canonical algebra homomorphism from the tensor algebra onto
    the quotient: each word acts on the unit."""
    same_context(cctx.ctx, u.ctx)
    return CliffElt._of(cctx, _operate(cctx.field, _chevalley(cctx.quadratic), u.terms,
                                       {(): cctx.field.one}, words=True))


def contract(f: LinearForm, w: CliffElt) -> CliffElt:
    """The descended antiderivation of a linear form on normal forms:
    the word (1,) acting with f as its only row and no wedge part."""
    same_context(f.ctx, w.cctx.ctx)
    return CliffElt._of(w.cctx, _operate(w.cctx.field, raw_rows((f.coeffs,)),
                                         {(1,): w.cctx.field.one}, w.terms, wedge=False))


def contract_vec(F: BilinearForm, x: Vector, w: CliffElt) -> CliffElt:
    """Contraction by the linear form F(x, .)."""
    return contract(F.partial_left(x), w)


def _check_shift(rows, source_q: QuadraticForm, target_q: QuadraticForm):
    """source_q must be x -> B(x, x) for B the raw rows of G_target + F:
    Q(e_i) is B_ii and the polar value at (e_i, e_j) is B_ij + B_ji."""
    p = source_q.ctx.field.char
    n = len(rows)
    quad = [rows[i][i] for i in range(n)] + [
        rows[i][j] + rows[j][i] for i in range(n) for j in range(i + 1, n)]
    values = [c.value for c in source_q.diag] + [c.value for row in source_q.upper for c in row]
    if source_q.ctx != target_q.ctx or any(
            (a - b) % p if p else a != b for a, b in zip(values, quad)):
        raise FormError(
            "quadratic forms do not match: source must equal target plus the "
            "quadratic part of the deforming form")


def deform(F: BilinearForm, w: CliffElt, target: CliffordContext | None = None) -> CliffElt:
    """The fiber-to-fiber deformation attached to F.

    Maps the algebra of Q' = Q + (x -> F(x,x)) linearly onto the algebra
    of Q; fixes the unit and the vectors; composing deformations adds
    their forms, so deform(-F, .) is the inverse.  It is w acting on the
    unit through the form B = G_Q + F:
    deform(x w) = x deform(w) + contraction_x(deform(w)).

    On an increasing blade that action only contracts a letter by a
    letter to its right, so only the B_ij with i < j act, and those are
    F's: the coordinates depend on F's strict upper part alone.  In the
    paper's terms F = G_{Q_F} + C with C alternating, C_ij = F_ij for
    i < j, and by additivity lambda_F = lambda_C o lambda_{G_{Q_F}};
    the second factor is the identity on normal-ordered coordinates and
    the first is the exponential of the contraction by C, the product
    over i < j of the commuting, square-zero (1 + F_ij i_j i_i).
    """
    src = w.cctx
    same_context(F.ctx, src.ctx)
    given = target is not None
    if given:
        same_context(target.ctx, src.ctx)
    else:
        target = CliffordContext(src.quadratic - quad_of_bilinear(F))
    rows = _chevalley(target.quadratic, F)
    if given:
        _check_shift(rows, src.quadratic, target.quadratic)
    return CliffElt._of(target, _contract_pairs(target.field, rows, w.terms))


def deform_apply(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The operator form of the deformation: u (over Q + Q_F) acts on
    the algebra of Q through products of (left multiplication plus
    contraction); evaluating at the unit recovers deform(F, u)."""
    same_context(F.ctx, v.cctx.ctx)
    rows = _chevalley(v.cctx.quadratic, F)
    _check_shift(rows, u.cctx.quadratic, v.cctx.quadratic)
    return CliffElt._of(v.cctx, _operate(v.cctx.field, rows, u.terms, v.terms))


def twisted_mul(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The product of the shifted algebra carried onto this one: deform
    both factors into the algebra of Q + Q_F, multiply there, come back.
    The deformation is a module map, so that is the deformed u acting
    on v; for a vector u = x it is x v + contraction_x(v)."""
    if u.cctx != v.cctx:
        raise ContextMismatch("twisted product needs elements of one context")
    same_context(F.ctx, u.cctx.ctx)
    return deform_apply(F, deform(-F, u, target=u.cctx.shift(F)), v)


def interior(ustar: CliffElt, w: CliffElt) -> CliffElt:
    """The action of the exterior algebra of the dual, given as an
    exterior-algebra element over the same space (e_i standing for
    e_i*): a wedge of linear forms acts as the composition of their
    contractions (leftmost form outermost), extended linearly.  That is
    the generator action with identity rows and no wedge part: the
    blade S = (s1 < ... < sk) acts as the word i_s1 ... i_sk, so i_sk
    acts first."""
    if not ustar.cctx.is_exterior():
        raise FormError("interior expects an exterior-algebra element")
    same_context(ustar.cctx.ctx, w.cctx.ctx)
    n = w.cctx.dim
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return CliffElt._of(w.cctx, _operate(w.cctx.field, rows, ustar.terms, w.terms, wedge=False))


# The largest exp_contract work estimate that runs (see exp_contract);
# a dense two-form on e_1...e_17 is 18 million, on the blade e_1...e_17
# (dict passes) and on all 2^17 blades (packed) alike, and takes about
# 0.6-0.8 and 1.1-1.3 CPU-s, the packed call at a 122 MiB peak RSS
# (Python 3.11, Intel Xeon); on e_1...e_18 it is 40 million, refused.
_EXP_GUARD = 1 << 25


def exp_contract(astar: DualTwoForm, w: CliffElt) -> CliffElt:
    """Exponential of the interior action of a dual two-form: w acted
    on by the exponential of a* in the exterior algebra of the dual.
    With A_ij = -c_ij for i < j (the alternating form of alt_of_dual),
    the term c_ij e*_i ^ e*_j acts as A_ij i_j i_i.  These commute and
    square to zero, so the exponential is the product over i < j of
    (1 + A_ij i_j i_i), the pair contraction of deform: no 1/k! is
    needed and it is defined over every field.  Only the pairs inside
    the indices of w enter, since no other factor moves w.

    With s the indices of w that lie in a nonzero pair, each pair is
    one pass over the running terms: at most 2^s of them per term of w,
    and at most 2^|support of w| in all, since each is a blade inside
    w's indices.  The estimate pairs min(terms of w 2^s, 2^|support|)
    bounds those passes; it is checked first, and an input over
    _EXP_GUARD is refused with CapExceeded before any work."""
    same_context(astar.ctx, w.cctx.ctx)
    n = astar.ctx.dim
    support = subset_index({i for blade in w.terms for i in blade})
    rows = [[0] * n for _ in range(n)]
    pairs = covered = 0
    for i in range(n):
        for j in range(i + 1, n):
            if support >> i & support >> j & 1 and (c := astar.at(i + 1, j + 1)):
                rows[i][j] = -c.value
                pairs += 1
                covered |= (1 << i) | (1 << j)
    cost = pairs * min(len(w.terms) << covered.bit_count(), 1 << support.bit_count())
    if cost > _EXP_GUARD:
        raise CapExceeded(
            f"exp_contract work {cost} exceeds the guard {_EXP_GUARD}: {pairs} pairs "
            f"on {covered.bit_count()} indices of w, {len(w.terms)} terms")
    return CliffElt._of(w.cctx, _contract_pairs(w.cctx.field, rows, w.terms))


def _half_polar(cctx: CliffordContext) -> BilinearForm:
    if cctx.field.char == 2:
        raise CharacteristicError(
            "symbol/quantization need 1/2, undefined in characteristic 2")
    return cctx.field.one / cctx.field(2) * polar_form(cctx.quadratic)


def symbol(w: CliffElt) -> CliffElt:
    """The symbol map: the deformation by half the polar form, landing
    in the exterior algebra.  Inverse of quantize."""
    return deform(_half_polar(w.cctx), w, target=CliffordContext.exterior(w.cctx.ctx))


def quantize(cctx: CliffordContext, ext: CliffElt) -> CliffElt:
    """The quantization map: from the exterior algebra back into the
    algebra of Q.  Inverse of symbol."""
    if not ext.cctx.is_exterior():
        raise FormError("quantize expects an exterior-algebra element")
    same_context(cctx.ctx, ext.cctx.ctx)
    return deform(-_half_polar(cctx), ext, target=cctx)

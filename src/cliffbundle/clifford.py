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
integer operator d e_i ^ + contraction by d B(e_i, .), and the sum is
divided once at the end.  Forms enter as their integer data (see
forms; G_Q is a quadratic form's own), and so do elements, as
(data, den): kernel keys (masks for CliffElt, words for TensorElt)
mapped to nonzero ints over one int denominator, residues over den 1
over GF(p), and over Q den > 0 with gcd(den, values) = 1.  The entry
(_data_of) reads Scalars by scalars.ints_of and the exit (_canonical)
makes a result canonical by scalars.canonical_ints, as forms and
repcheck do; both drop zeros.  Blades and Scalars appear only in an
element's constructor, from_json, to_json, repr, coeff and read-only
terms view (scalars.scalars_over, on first read and kept).
There a blade becomes its mask through _masks(n) and a mask its blade
through _blades(n), the 2^n blades in mask order, kept up to n = 12;
above, key by key.  The blades of u are walked as masks in numeric
order (_mask_walk), words by their reversal (_suffix_walk).

The sums and the pair products have two carriers.  A call whose
operands each fill at least half the 2^n blade slots, 2 min(|u|, |v|)
>= 2^n for a sum (dense products, deform_apply, twisted_mul, interior)
and 2 |w| >= 2^max(n, 7) for a pair product (deform, symbol, quantize,
exp_contract), runs on packed integers (_carrier): a coefficient map
is one signed int X = sum of x_m 2^(m W), slot m in bits
[m W, (m + 1) W).  A move reads X + H, H = 2^(W - 1) in every slot, so
each slot is nonnegative and no mask borrows across slots.  e_i ^ is
a masked left shift by 2^(i-1) W of the slots without bit i - 1, the
contraction by e_j* a masked right shift by 2^(j-1) W of the slots
with bit j - 1 (_contract); a slot with an odd number of set bits
below the moved one is complemented by one XOR, and the same move on
H, the bias's image, is taken off; for a contraction that image is
(H & without) ^ odd.  That is O(n) big-integer operations per action
in place of one dict update per term and row entry.  _packed_sum acts
by e_i as that shift plus the contraction by its row, and splits each
blade of u at letter k = n // 2 as e_S = e_T e_R: it acts out e_R . v
once per high part R, gathers u_S (e_R . v) in 2^k accumulators, one
per low part T, and finishes them by a Horner pass over e_k .. e_1, so
a dense sum makes 2^(n - k) + 2^k - 1 actions in place of 2^n.
_packed_pairs makes pass i one contraction by e_i* and one by g_i,
n + (nonzero pairs) in all.  W is fixed before the first action from
a bound on every slot read, from sum |u_S| for a sum and max |w_M| for
a pair product (see _packed_sum, _packed_pairs), so |x_m| < 2^(W - 1)
in any field and at any size; over GF(p) the slots are reduced only
at the exit, which reads X + H in C (_unpack).  H and the masks of a
carrier of at most 2^16 bits are kept (_kept).  Sparse calls, word
keys (all of u's, as in quotient_map and reverse) and repcheck's
matrix builders stay on dicts.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial, reduce
from itertools import compress, repeat
from math import lcm
from operator import add, lshift, mul, neg, or_, sub
from types import MappingProxyType

from .errors import CapExceeded, CharacteristicError, ContextMismatch, FormError, ParseError
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, Field, LinearForm,
                    QuadraticForm, Vector, _quad_nums, polar_form, quad_of_bilinear,
                    same_context)
from .records import record
from .scalars import Scalar, canonical_ints, excerpt, ints_of, scalars_over, shaped


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
    bit by bit.  Elements read blades from the table _blades(n) up to
    n = _TABLE_DIM and call this per key above."""
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


# The largest n whose blade tables are kept: 2^12 blades.  Above it
# blades and masks convert key by key, so no table is built there.
_TABLE_DIM = 12


@lru_cache(maxsize=None)
def _blades(n: int) -> tuple:
    """Every blade on e_1 .. e_n in mask order, the blade of mask m at
    index m, built by doubling: the blades on e_1 .. e_(n-1), then each
    of them with n appended.  Used for n <= _TABLE_DIM."""
    if not n:
        return ((),)
    low = _blades(n - 1)
    return low + tuple([b + (n,) for b in low])


@lru_cache(maxsize=None)
def _masks(n: int) -> dict:
    """The inverse of _blades(n), blade -> mask, for n <= _TABLE_DIM."""
    return dict(zip(_blades(n), range(1 << n)))


def _checked_index(n: int, blade) -> int:
    """subset_index of a blade on e_1 .. e_n, and for any other key the
    KeyError that a lookup in _masks(n) raises."""
    try:
        if all(a < b for a, b in zip((0, *blade), (*blade, n + 1))):
            return subset_index(blade)
    except TypeError:
        pass
    raise KeyError(blade)


def _blade_masks(n: int, blades) -> list:
    """The masks of blades on e_1 .. e_n, looked up in _masks(n) up to
    _TABLE_DIM, else tested one at a time; a key that is not a blade
    raises FormError, and one equal to a blade ((True,)) is taken as it."""
    try:
        return list(map(_masks(n).__getitem__ if n <= _TABLE_DIM else partial(_checked_index, n),
                        blades))
    except KeyError as exc:
        raise FormError(f"a term's key must be a blade on e_1..e_{n}, "
                        f"got {excerpt(exc.args[0])}") from None


_new = object.__new__


def _data_of(field: Field, keys, scalars) -> tuple:
    """The canonical (data, den) of Scalars of field at keys (ints_of), zeros dropped."""
    nums, den = ints_of(field, scalars)
    return dict(compress(zip(keys, nums), nums)), den


def _canonical(p: int, keys, values, den: int) -> tuple:
    """canonical_ints of raw ints at keys over den, zeros dropped: the kernel's exit."""
    values, den = canonical_ints(p, values, den)
    return dict(compress(zip(keys, values), values)), den


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


def _actions(n: int, rows: tuple, wedge: bool = True) -> tuple:
    """The kernel's integer set-up for the generator action attached to
    rows = (nums, d), the entries of B as a form holds them (see forms):
    row-major n at a time, each nums[k] / d.  It is (acts, scale, d),
    acts[i - 1] the bit of e_i and the (bit, value) pairs of the nonzero
    entries of d B(e_i, .), and scale the wedge weight d (0 when wedge
    is off).  Each act is then d times the action of e_i."""
    nums, d = rows
    acts = [(1 << r, [(1 << j, f) for j, f in enumerate(nums[r * n:(r + 1) * n]) if f])
            for r in range(len(nums) // n)]
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


def _word_sum(act, actions: tuple, p: int, u: dict, v: dict) -> tuple:
    """The sum over the words S of u of u_S (e_S . v): (map, den).  act
    is the generator action on the keys of v, _act on bitmasks or
    _act_word on words; u and v map their keys to ints, and u's keys
    are walked by _mask_walk or _suffix_walk.  Over Q the result is the
    map divided by den: u_S is weighted by d^(m - |S|), m the longest
    word of u, and den is d^m.  Over GF(p) the map is unreduced and den is 1."""
    acts, scale, d = actions
    walk, grade = ((_mask_walk, int.bit_count) if type(next(iter(u), None)) is int
                   else (_suffix_walk, len))
    top = max(map(grade, u), default=0)

    def step(got, letter):
        bit, row = acts[letter - 1]
        return act(bit, scale, row, p, got)

    out = {}
    get = out.get
    for c, length, got in walk(u.items(), v, step):
        if d != 1:
            c *= d ** (top - length)
        for k, x in got.items():
            out[k] = get(k, 0) + c * x
    return out, d ** top


# The largest carrier, in bits, whose constants are kept: 64 of them hold
# at most 64 (2n + 1) 2^16 bits, about 14 MiB at n = 13.
_KEEP_BITS = 1 << 16


def _constants(n: int, width: int) -> tuple:
    """The constants of the carrier of 2^n slots of W = 8 width bits:
    (H, masks), H the bias 2^(W - 1) in every slot and, for each bit r,
    masks[r] = (2^r W the shift of bit r, the slots without bit r, those
    of them whose set bits below r are odd), built by doubling."""
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
        masks.append((W << r, spread(full, 2 << r), spread(full ^ parity, 2 << r)))
        parity |= (full ^ parity) << (W << r)
    return spread(1 << (W - 1), 1), tuple(masks)


_kept = lru_cache(maxsize=64)(_constants)


def _carrier(n: int, bound: int) -> tuple:
    """The packed carrier of slots of magnitude at most bound: (width,
    H, masks) of _constants, W = 8 width the least multiple of 8 above
    the bits of bound, so every slot is below 2^(W - 1) in magnitude.
    The constants of a carrier of at most _KEEP_BITS bits are kept, and
    a larger one's are built for its call, so no large call pins them."""
    width = bound.bit_length() // 8 + 1
    return (width, *(_kept if 8 * width << n <= _KEEP_BITS else _constants)(n, width))


def _pack(values: dict, n: int, width: int, H: int) -> int:
    """The packed map X = sum over m < 2^n of x_m 2^(m W) of a mask -> int
    map, x_m = 0 at a mask it lacks: the bytes of X + H, x_m + 2^(W - 1)
    in slot m, joined in one pass, less H."""
    slots = map(add, map(values.get, range(1 << n), repeat(0)), repeat(1 << (8 * width - 1)))
    return int.from_bytes(b"".join(map(int.to_bytes, slots, repeat(width), repeat("little"))),
                          "little") - H


def _unpack(X: int, n: int, width: int, H: int) -> list:
    """The value x_m of the packed map X at every mask m < 2^n: the
    bytes of X + H strided into the 64-bit limbs of an array, each
    slot's limbs joined, less 2^(W - 1)."""
    from array import array
    size = -(-width // 8)
    raw, stride = (X + H).to_bytes(width << n, "little"), 8 * size
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
    return list(map(sub, out, repeat(1 << (8 * width - 1))))


def _contract(Y: int, row, out: int = 0) -> int:
    """out plus the contraction of the packed map X = Y - H by sum of
    f e_{r+1}* over row, (masks of bit r, f) pairs, plus its image on H:
    the slots with bit r move down to m without it, times f.  Each slot
    of Y is x + 2^(W - 1), in [1, 2^W), so no mask borrows, and a slot
    whose set bits below r are odd is complemented, to 2^(W - 1) - 1 - x."""
    for (down, without, odd), f in row:
        Z = ((Y >> down) & without) ^ odd
        if f == 1:
            out += Z
        elif f == -1:
            out -= Z
        else:
            out += Z * f
    return out


def _packed_sum(actions: tuple, p: int, n: int, u: dict, v: dict) -> tuple:
    """_word_sum on bitmask keys below 2^n, each coefficient map one
    packed int X (see _carrier): (values, den), values[m] the unreduced
    value at m for every m < 2^n.  e_i moves the slots of X + H without
    bit i - 1 up by 2^(i-1) W, complemented as in _contract, times the
    wedge weight, adds the contraction by its row and takes off the
    image of both, the same action on H, made once per call.

    The sum is the baby-step/giant-step evaluation of Paterson and
    Stockmeyer (1973).  Each blade S of u splits at letter k = n // 2
    into its low part T (letters <= k) and high part R, and
    e_S . v = e_T . (e_R . v), as T holds the smallest letters.  The
    high parts are walked (_mask_walk), each e_R . v acted out once, and
    Z[T] gathers u_S (e_R . v); a Horner pass over j = k .. 1 then adds
    e_j . Z[t + 2^(j-1)] to Z[t] for t < 2^(j-1), freeing each consumed
    Z, and the sum is Z[0]: 2^(n - k) + 2^k - 1 actions for a dense u in
    place of 2^n, at most n - k + 1 maps on the walk's chain and 2^k
    accumulators alive.  Every map the call reads or makes, on the walk,
    in a Z[T], in a Horner partial sum or the sum, is a sum over some
    terms of u of u_S d^(m - |S|) (e_S' . v), S' a part of S.  One
    action multiplies the largest slot by at most R, the largest
    d + sum of |row entries| over the rows, and R >= 1, so every slot is
    at most (sum over S of |u_S d^(m - |S|)|) R^m max|v| in magnitude,
    and W is above it."""
    acts, scale, d = actions
    top = max(map(int.bit_count, u))
    coeffs = [c * d ** (top - k) for k, c in zip(map(int.bit_count, u), u.values())]
    reach = max(d + sum(abs(f) for _, f in row) for _, row in acts)
    width, H, masks = _carrier(n, sum(map(abs, coeffs)) * reach ** top * max(map(abs, v.values())))
    moves = [(masks[r], [(masks[b.bit_length() - 1], f) for b, f in row])
             for r, (_, row) in enumerate(acts)]

    def act(Y, letter):
        (up, without, odd), row = moves[letter - 1]
        out = ((Y & without) ^ odd) << up if scale else 0
        return _contract(Y, row, out * scale if scale > 1 else out)

    images = [act(H, letter) for letter in range(1, len(moves) + 1)]

    def step(X, letter):
        return act(X + H, letter) - images[letter - 1]

    k = n >> 1
    low = (1 << k) - 1
    groups = {}
    for m, c in zip(u, coeffs):
        groups.setdefault(m & ~low, []).append((m & low, c))
    Z = [0] * (1 << k)
    for group, _, X in _mask_walk(groups.items(), _pack(v, n, width, H), step):
        for t, c in group:
            Z[t] += c * X
    del groups, X
    for j in range(k, 0, -1):
        half = 1 << (j - 1)
        for t in range(half):
            if Z[t | half]:
                Z[t] += step(Z[t | half], j)
                Z[t | half] = 0
    return _unpack(Z[0], n, width, H), d ** top


def _operate(p: int, n: int, rows: tuple, u: tuple, v: tuple, wedge: bool = True) -> tuple:
    """The sum over the words S of u of u_S (e_S . v), where e_i acts by
    e_i ^ (or e_i (x) on words; not at all when wedge is off) plus the
    contraction by row i of rows (see _actions): the canonical
    (data, den) of the result.  u and v are (data, den) pairs; u's keys
    are masks or words, and v's keys, masks or words, set the action.
    On masks (never words: quotient_map, reverse) it runs on packed
    integers (_packed_sum) when 2 min(|u|, |v|) >= 2^n, so that at least
    half the 2^n slots are filled from the start, else on dicts
    (_word_sum).  The rule follows a measurement at n = 4, where the
    packed sum took about 2.5 times as long as the dicts with 4 to 6
    terms a side.  The split sum takes 1.2 to 1.6 times as long with 4
    terms a side, 0.6 to 1.05 times with 5 to 7 and about half at the
    rule's edge, 8; at n = 5 about half with 6 terms a side.  So the
    rule packs later than the carriers cross."""
    (u, du), (v, dv) = u, v
    actions = _actions(n, rows, wedge)
    words = type(next(iter(v), None)) is tuple
    if not words and 2 * min(len(u), len(v)) >= 1 << n and type(next(iter(u))) is int:
        values, den = _packed_sum(actions, p, n, u, v)
        return _canonical(p, range(1 << n), values, du * dv * den)
    out, den = _word_sum(_act_word if words else _act, actions, p, u, v)
    return _canonical(p, out, out.values(), du * dv * den)


def _pair_rows(p: int, n: int, rows: tuple) -> tuple:
    """The pair product's integer set-up for the rows of B (see
    _actions): (g, d), g[i] the (j, f_ij) for j > i with f_ij = d B_ij
    nonzero.  Over GF(p) f_ij is the residue of absolute value at most
    p / 2, which keeps packed slots narrow, and d is 1; over Q d is the
    common denominator of the strict-upper entries."""
    nums, d = rows
    upper = [nums[i * n + j] for i in range(n) for j in range(i + 1, n)]
    if p:
        upper = [(x + p // 2) % p - p // 2 for x in upper]
    else:
        upper, d = canonical_ints(0, upper, d)
    f = iter(upper)
    return [[(j, x) for j in range(i + 1, n) if (x := next(f))] for i in range(n)], d


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
    every term.  Each takes off its move's image of H, (H & without) ^
    odd whatever the form, as every slot of H is 2^(W - 1).  Every slot
    read or made, in X, below or the result, is a signed sum of
    f_P w_(K + P) over sets P of disjoint pairs outside some K, f_P the
    product of their f_ij, each (K, P) once; the k <= T / 2 pairs of a
    P have distinct first letters, T the top grade of terms, so no slot
    exceeds max|terms| (sum over k <= T / 2 of e_k(r)), r_i = sum over
    j of |f_ij| and e_k the elementary symmetric sums, and W is fixed
    above that before the first pass."""
    half = max(map(int.bit_count, terms)) >> 1
    e = [1] + [0] * half
    for row in g:
        r = sum([abs(f) for _, f in row])
        for k in range(half, 0, -1):
            e[k] += e[k - 1] * r
    width, H, masks = _carrier(n, max(map(abs, terms.values())) * sum(e))
    X = _pack(terms, n, width, H)
    for i, row in enumerate(g):
        if row:  # X += i_{g_i} i_i X, below + H in Y
            down, without, odd = masks[i]
            Y = ((((X + H) >> down) & without) ^ odd) - ((H & without) ^ odd) + H
            for j, f in row:
                down, without, odd = masks[j]
                X += ((((Y >> down) & without) ^ odd) - ((H & without) ^ odd)) * f
    return _unpack(X, n, width, H)


def _contract_pairs(p: int, n: int, rows: tuple, w: tuple) -> tuple:
    """exp(sum over i < j of B_ij i_j i_i) w, B of the rows (see
    _actions) and w a (data, den) pair keyed by masks, as the canonical
    (data, den) of the result: on the packed carrier (_packed_pairs)
    when 2 |w| >= 2^max(n, 7), else on dicts (_pair_passes).  A dict
    pass is cheaper than a generator action, so the pair product packs
    later than _operate.  Timed on the same input, each carrier forced
    through the exit, the packed pass takes 0.94-1.04 of the dicts'
    time at n = 5 for a w on three quarters to all of the slots, and it
    wins from half the slots at n = 6 (0.80) and from a quarter at
    n = 7 (0.73-0.75).  The pairs come from _pair_rows.  Over
    Q it is fraction-free: with d its common denominator, w_M is
    weighted by d^((T - |M|) / 2), T the top grade of w of the parity
    of |M|, so the result at K is over den(w) d^((T - |K|) / 2); each
    grade is lifted to the largest of these before the exit."""
    g, d = _pair_rows(p, n, rows)
    terms, den = w
    if d != 1:
        grades = set(map(int.bit_count, terms))
        top = [max((k for k in grades if k & 1 == r), default=r) for r in (0, 1)]
        powers = [max(top[k & 1] - k, 0) >> 1 for k in range(n + 1)]
        weights = [d ** x for x in powers]
        terms = dict(zip(terms, map(mul, terms.values(),
                                    map(weights.__getitem__, map(int.bit_count, terms)))))
    if 2 * len(terms) >= 1 << max(n, 7):
        keys, values = range(1 << n), _packed_pairs(g, n, terms)
    else:
        keys = _pair_passes(g, terms)
        values = keys.values()
    if d != 1:
        most = max(powers)
        lift = [d ** (most - x) for x in powers]
        values = map(mul, values, map(lift.__getitem__, map(int.bit_count, keys)))
        den *= d ** most
    return _canonical(p, keys, values, den)


def _chevalley(q: QuadraticForm, F: BilinearForm | None = None) -> tuple:
    """The rows (see _actions) of G_q, plus F: G_q, the lower-triangular
    form whose action gives normal-ordered coordinates, is q's data."""
    if F is None:
        return q.nums, q.den
    B = BilinearForm(q.ctx, q.nums, q.den) + F
    return B.nums, B.den


class _Sparse:
    """A finite linear combination over one context as the kernel takes
    it, canonical (data, den) (see the module's notes), so equal
    elements have equal data: the arithmetic CliffElt (masks) and
    TensorElt (words) share.  Each class checks a key (its constructor,
    _key), reads the public keys and their grade (_keys, _grade), names
    the context slot (cctx, ctx) and the unit's key, refuses an operand
    of another context (_same) and shows a key in _key_text."""

    __slots__ = ("_home", "data", "den", "_terms")

    @classmethod
    def _of(cls, home, data: dict, den: int = 1):
        """The element of a canonical (data, den), taken as it is."""
        self = _new(cls)
        self._home, self.data, self.den = home, data, den
        return self

    @classmethod
    def _made(cls, home, keys, values, den: int = 1):
        """The element of raw int values at keys over den, made canonical."""
        return cls._of(home, *_canonical(home.field.char, keys, values, den))

    @classmethod
    def zero(cls, home):
        return cls._of(home, {})

    @classmethod
    def unit(cls, home):
        return cls._of(home, {cls._unit_key: 1})

    @property
    def terms(self) -> MappingProxyType:
        """The element as a read-only map from its keys (blades, words)
        to Scalars, built on first read and kept."""
        try:
            return self._terms
        except AttributeError:
            self._terms = MappingProxyType(dict(zip(self._keys(), scalars_over(
                self._home.field, self.data.values(), self.den))))
            return self._terms

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._home == other._home and self.den == other.den and self.data == other.data

    def __add__(self, other):
        self._same(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = dict(self.data) if a == 1 else {k: c * a for k, c in self.data.items()}
        get = out.get
        for k, c in other.data.items():
            out[k] = get(k, 0) + c * b
        return self._made(self._home, out, out.values(), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._made(self._home, self.data, map(neg, self.data.values()), self.den)

    def __mul__(self, other):
        """Multiplication by a scalar; each class adds its own product."""
        if isinstance(other, (Scalar, int)):
            s = self._home.coerce(other).value
            values = map(mul, self.data.values(), repeat(s.numerator))
            return self._made(self._home, self.data, values, self.den * s.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def coeff(self, key) -> Scalar:
        """The coefficient of a key (a blade, a word); a key that is not
        one raises the constructor's FormError."""
        key = self._key(tuple(key) if hasattr(key, "__iter__") else key)
        return scalars_over(self._home.field, [self.data.get(key, 0)], self.den)[0]

    def grade_part(self, p: int):
        out = {k: c for k, c in self.data.items() if self._grade(k) == p}
        return self._made(self._home, out, out.values(), self.den)

    def grade_involution(self):
        """Sign (-1)^p on each grade-p key.  It descends from the tensor
        algebra to each Clifford algebra because the defining ideal is
        generated by even elements."""
        return self._made(self._home, self.data, [
            -c if self._grade(k) & 1 else c for k, c in self.data.items()], self.den)

    def _sorted_terms(self) -> list:
        """The (key, Scalar) pairs by grade, then lexicographically: the
        order of __repr__ and to_json."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __repr__(self):
        left, sep, right = self._key_text
        bits = [f"{c}*{left}{sep.join(map(str, k))}{right}" for k, c in self._sorted_terms()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class CliffElt(_Sparse):
    """A normal-form element: a finite linear combination of increasing
    blades, held by their masks (see _Sparse).  Over the exterior
    context it is also an element of the exterior algebra of the dual,
    the argument of interior."""

    __slots__ = ()
    cctx = _Sparse._home
    _key_text = ("{", ",", "}")
    _unit_key = 0
    _grade = staticmethod(int.bit_count)

    def _same(self, other: "CliffElt"):
        if self.cctx != other.cctx:
            raise ContextMismatch("elements of different Clifford contexts")

    def __init__(self, cctx: CliffordContext, terms=None):
        """terms maps blades to Scalars of cctx's field.  A key that is
        not a blade on e_1 .. e_n raises FormError, zero or not, and one
        equal to a blade is taken as it: (True,) as (1,)."""
        terms = terms or {}
        keys = _blade_masks(cctx.dim, terms)
        self._home = cctx
        self.data, self.den = _data_of(cctx.field, keys, terms.values())

    def _key(self, blade) -> int:
        return _blade_masks(self.cctx.dim, (blade,))[0]

    def _keys(self):
        """The blades of the masks in data, from _blades(n) up to _TABLE_DIM."""
        n = self.cctx.dim
        return map(_blades(n).__getitem__ if n <= _TABLE_DIM else index_subset, self.data)

    @classmethod
    def blade(cls, cctx: CliffordContext, indices, coeff=1) -> "CliffElt":
        # a key that is not iterable goes to the constructor, which refuses it
        key = tuple(indices) if hasattr(indices, "__iter__") else indices
        return cls(cctx, {key: cctx.ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, cctx: CliffordContext, x: Vector) -> "CliffElt":
        same_context(cctx.ctx, x.ctx)
        return cls._of(cctx, *_data_of(cctx.field, [1 << i for i in range(cctx.dim)],
                                       x.coeffs))

    def __mul__(self, other):
        if isinstance(other, CliffElt):
            self._same(other)
            cctx = self.cctx
            return CliffElt._of(cctx, *_operate(cctx.field.char, cctx.dim, _chevalley(
                cctx.quadratic), (self.data, self.den), (other.data, other.den)))
        return super().__mul__(other)

    def reverse(self) -> "CliffElt":
        """The anti-automorphism reversing generator order: each blade
        read backwards, as a word acting on the unit."""
        cctx = self.cctx
        words = {b[::-1]: c for b, c in zip(self._keys(), self.data.values())}
        return CliffElt._of(cctx, *_operate(cctx.field.char, cctx.dim, _chevalley(cctx.quadratic),
                                            (words, self.den), ({0: 1}, 1)))

    def to_json(self) -> dict:
        return {"terms": [{"blade": list(b), "coeff": str(c)} for b, c in self._sorted_terms()]}

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
    return CliffElt._of(cctx, *_operate(cctx.field.char, cctx.dim, _chevalley(cctx.quadratic),
                                        (u.data, u.den), ({0: 1}, 1)))


def contract(f: LinearForm, w: CliffElt) -> CliffElt:
    """The descended antiderivation of a linear form on normal forms:
    the word (1,) acting with f as its only row and no wedge part."""
    same_context(f.ctx, w.cctx.ctx)
    return CliffElt._of(w.cctx, *_operate(w.cctx.field.char, f.ctx.dim, ints_of(
        f.ctx.field, f.coeffs), ({1: 1}, 1), (w.data, w.den), wedge=False))


def contract_vec(F: BilinearForm, x: Vector, w: CliffElt) -> CliffElt:
    """Contraction by the linear form F(x, .)."""
    return contract(F.partial_left(x), w)


def _check_shift(F: BilinearForm, source_q: QuadraticForm, target_q: QuadraticForm):
    """source_q must be target_q + (x -> F(x, x)): their G_Q entries,
    cross-multiplied by the three denominators (1 over GF(p), mod p)."""
    s, t, f, p = source_q.den, target_q.den, F.den, F.ctx.field.char
    off = [x * t * f - y * s * f - z * s * t
           for x, y, z in zip(source_q.nums, target_q.nums, _quad_nums(F))]
    if source_q.ctx != target_q.ctx or any([x % p for x in off] if p else off):
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
    if target is None:
        target = CliffordContext(src.quadratic - quad_of_bilinear(F))
    else:
        same_context(target.ctx, src.ctx)
        _check_shift(F, src.quadratic, target.quadratic)
    return CliffElt._of(target, *_contract_pairs(target.field.char, src.dim, (F.nums, F.den),
                                                 (w.data, w.den)))


def deform_apply(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The operator form of the deformation: u (over Q + Q_F) acts on
    the algebra of Q through products of (left multiplication plus
    contraction); evaluating at the unit recovers deform(F, u)."""
    same_context(F.ctx, v.cctx.ctx)
    _check_shift(F, u.cctx.quadratic, v.cctx.quadratic)
    return CliffElt._of(v.cctx, *_operate(v.cctx.field.char, v.cctx.dim, _chevalley(
        v.cctx.quadratic, F), (u.data, u.den), (v.data, v.den)))


def twisted_mul(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The product of the shifted algebra carried onto this one: deform
    both factors into the algebra of Q + Q_F, multiply there, come back.
    The deformation is a module map, so that is the deformed u acting
    on v; for a vector u = x it is x v + contraction_x(v).  The deformed
    u depends on F alone (see deform), so the shifted algebra is not built."""
    if u.cctx != v.cctx:
        raise ContextMismatch("twisted product needs elements of one context")
    cctx = u.cctx
    same_context(F.ctx, cctx.ctx)
    p, n = cctx.field.char, cctx.dim
    return CliffElt._of(cctx, *_operate(p, n, _chevalley(cctx.quadratic, F), _contract_pairs(
        p, n, (list(map(neg, F.nums)), F.den), (u.data, u.den)), (v.data, v.den)))


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
    return CliffElt._of(w.cctx, *_operate(w.cctx.field.char, w.cctx.dim, (BilinearForm.identity(
        w.cctx.ctx).nums, 1), (ustar.data, ustar.den), (w.data, w.den), wedge=False))


# The largest exp_contract work estimate that runs (see exp_contract);
# a dense two-form on e_1...e_17 is 18 million, on the blade e_1...e_17
# (dict passes, 0.3-0.5 CPU-s) and on all 2^17 blades over GF(7)
# (packed, W = 48: 0.30-0.36 CPU-s, 71 MiB peak RSS, 42.3 MiB traced)
# alike, Python 3.11 on an Intel Xeon; on e_1...e_18 it is 40 million,
# refused.
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
    support = reduce(or_, w.data, 0)
    rows = [0] * (n * n)
    pairs = covered = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (x := astar.nums[i * n + j]) and support >> i & support >> j & 1:
                rows[i * n + j] = -x
                pairs += 1
                covered |= (1 << i) | (1 << j)
    cost = pairs * min(len(w.data) << covered.bit_count(), 1 << support.bit_count())
    if cost > _EXP_GUARD:
        raise CapExceeded(
            f"exp_contract work {cost} exceeds the guard {_EXP_GUARD}: {pairs} pairs "
            f"on {covered.bit_count()} indices of w, {len(w.data)} terms")
    return CliffElt._of(w.cctx, *_contract_pairs(w.cctx.field.char, n, (rows, astar.den),
                                                 (w.data, w.den)))


def _half_polar(cctx: CliffordContext) -> BilinearForm:
    if cctx.field.char == 2:
        raise CharacteristicError(
            "symbol/quantization need 1/2, undefined in characteristic 2")
    return polar_form(cctx.quadratic)._scaled(1, 2)


def symbol(w: CliffElt) -> CliffElt:
    """The symbol map: the deformation by half the polar form, landing
    in the exterior algebra (a shift that needs no check).  Inverse of
    quantize."""
    F = _half_polar(w.cctx)
    return CliffElt._of(CliffordContext.exterior(w.cctx.ctx), *_contract_pairs(
        w.cctx.field.char, w.cctx.dim, (F.nums, F.den), (w.data, w.den)))


def quantize(cctx: CliffordContext, ext: CliffElt) -> CliffElt:
    """The quantization map: from the exterior algebra back into the
    algebra of Q, the deformation by minus half the polar form (negated
    as twisted_mul negates F).  Inverse of symbol."""
    if not ext.cctx.is_exterior():
        raise FormError("quantize expects an exterior-algebra element")
    same_context(cctx.ctx, ext.cctx.ctx)
    F = _half_polar(cctx)
    return CliffElt._of(cctx, *_contract_pairs(cctx.field.char, cctx.dim, (
        list(map(neg, F.nums)), F.den), (ext.data, ext.den)))

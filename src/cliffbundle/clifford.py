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
Each operation is then one sum of word actions, or for deform the
product of pair contractions that w . 1 reduces to (see deform), or
for interior one submask sum (see _contract_by):

    u * v                   u . v    B = G_Q
    deform(F, w)            prod over i < j of (1 + F_ij i_j i_i) w
    deform_apply(F, u, v)   u . v    B = G_Q + F, Q of v
    quotient_map(u)         u . 1    B = G_Q, the keys of u are words
    f * g, Q = 0            f . g    B = 0, the wedge
    interior(f, w)          sum over S inside M of f_S w_M (-1)^|M & L_S|
                            at M - S, L_S the bits below those of S

and the representation matrices of repcheck are columns of such sums:
rho_matrix(F, u) has column S = u . e_S (B = F), twist_matrix(A) has
column S = e_S . 1 (B = A).

The exterior algebra (Q = 0) is also that of the dual space: in
interior(f, w), f is an exterior element with e_i read as e_i*.
Twisted products, the reversal, the contraction by a linear form, the
exponential of a dual two-form's interior action, and the symbol and
quantization maps are built from these.  The tensor algebra (tensor.py)
runs the same sums with words as keys, e_i (x) in place of e_i ^: that
is Bourbaki's deformation of T(V), the construction the quotient
inherits.

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
when it leaves; blades become masks there and masks blades again
(see index_subset).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import (CapExceeded, CharacteristicError, ContextMismatch, FormError,
                     ParseError)
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, Field, LinearForm,
                    QuadraticForm, Vector, quad_of_bilinear, same_context)
from .records import record
from .scalars import Scalar, excerpt, raw_rows, scaled_ints, shaped


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


@lru_cache(maxsize=1 << 12)
def index_subset(m: int) -> tuple:
    """The blade of a bitmask index, the inverse of subset_index.  The
    kernel turns every output mask into a blade here, so the blades of
    the last 2^12 masks asked for are kept."""
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


def _below(s: int) -> int:
    """L_S, the XOR over the bits b of the mask s of the bits below b:
    contracting a blade M by e*_S carries the sign (-1)^|M & L_S|."""
    low = 0
    while s:
        b = s & -s
        low ^= b - 1
        s ^= b
    return low


def _scalars(field: Field, keys, values, den: int) -> dict:
    """The kernel's exit: the nonzero raw values as Scalars at their
    keys; over GF(p) reduced mod p, over Q divided by den."""
    p = field.char
    if p:
        return {k: Scalar(field, r) for k, x in zip(keys, values) if (r := x % p)}
    return {k: Scalar(field, Fraction(x, den)) for k, x in zip(keys, values) if x}


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


def _word_sum(act, actions: tuple, p: int, u_terms: dict, v: dict, pairs=None) -> tuple:
    """The sum over the words S of u of u_S (e_S . v): (map, den).  act
    is the generator action on the keys of v, _act on bitmasks or
    _act_word on words; v maps them to raw values.  Each e_S . v is
    e_first . (e_rest . v): the words are visited sorted by their
    reversal, keeping of the suffix maps of the word in hand only those
    the next word shares (at most the longest word + 1 maps), so each
    suffix is acted out once and the keys of u may be any words.  Over
    Q the result is the map divided by den: u and v are scaled to
    integers by their common denominators, u_S is weighted by
    d^(m - |S|), m the longest word of u, and den is those denominators
    times d^m.  Over GF(p) the map is unreduced and den is 1.  With
    pairs given (words as keys, v the unit), each e_S . 1 drops its
    terms with more than pairs contractions, the keys shorter than
    |S| - 2 pairs, since later letters only add contractions."""
    acts, scale, d = actions
    vnum, dv = scaled_ints(list(v.values()))
    unum, du = scaled_ints([c.value for c in u_terms.values()])
    top = max(map(len, u_terms), default=0)
    words = sorted(zip((w[::-1] for w in u_terms), unum))
    chain = [dict(zip(v, vnum))]
    out = {}
    get = out.get
    for i, (rev, c) in enumerate(words):
        share = 0
        for a, b in zip(rev, words[i + 1][0] if i + 1 < len(words) else ()):
            if a != b:
                break
            share += 1
        got = chain[-1]
        for j in range(len(chain) - 1, len(rev)):
            bit, row = acts[rev[j] - 1]
            got = act(bit, scale, row, p, got)
            if pairs is not None and (least := j + 1 - 2 * pairs) > 0:
                got = {k: x for k, x in got.items() if len(k) >= least}
            if j < share:
                chain.append(got)
        del chain[share + 1:]
        if d != 1:
            c *= d ** (top - len(rev))
        for k, x in got.items():
            out[k] = get(k, 0) + c * x
    return out, du * dv * d ** top


def _apply(field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True,
           pairs=None) -> dict:
    """The sum over the words S of u of u_S (e_S . v) on words, where
    e_i acts by e_i (x) w (unless wedge is off) plus the contraction by
    rows[i - 1]; pairs as in _word_sum.  Scalars are read at entry and
    built at exit; in between, coefficients are ints."""
    out, den = _word_sum(_act_word, _actions(rows, wedge), field.char, u_terms,
                         {k: c.value for k, c in v_terms.items()}, pairs)
    return _scalars(field, out, out.values(), den)


def _operate(field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True) -> dict:
    """The same sum on blades, which are bitmasks inside the kernel."""
    out, den = _word_sum(_act, _actions(rows, wedge), field.char, u_terms,
                         {subset_index(b): c.value for b, c in v_terms.items()})
    return _scalars(field, map(index_subset, out), out.values(), den)


def _contract_pairs(field: Field, rows, w_terms: dict) -> dict:
    """exp(sum over i < j of B_ij i_j i_i) w, B the raw rows: one pass
    per nonzero strict-upper entry, each adding B_ij c at m without
    bits i and j for every term c at a mask m holding both, with the
    sign (-1)^k, k the set bits of m strictly between them.  Over Q it
    is fraction-free: with d the common denominator of those entries,
    w_M is weighted by d^((T - |M|) / 2), T the top grade of w of the
    parity of |M|, and the result at K is divided once by den(w) times
    d^((T - |K|) / 2)."""
    p = field.char
    n = len(rows)
    ij = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper, d = scaled_ints([rows[i][j] for i, j in ij])
    num, dw = scaled_ints([c.value for c in w_terms.values()])
    top = [max((len(b) for b in w_terms if len(b) & 1 == r), default=r) for r in (0, 1)]

    def weight(g):
        return d ** ((top[g & 1] - g) >> 1)

    out = {subset_index(b): c * weight(len(b)) for b, c in zip(w_terms, num)}
    get = out.get
    for (i, j), f in zip(ij, upper):
        if f:
            both, between = (1 << i) | (1 << j), (1 << j) - (2 << i)
            for m, c in [(m, c) for m, c in out.items() if m & both == both]:
                k = m ^ both
                t = f * c
                out[k] = get(k, 0) + (-t if (m & between).bit_count() & 1 else t)
    if p:
        return {index_subset(k): Scalar(field, r) for k, x in out.items() if (r := x % p)}
    return {index_subset(k): Scalar(field, Fraction(x, dw * weight(k.bit_count())))
            for k, x in out.items() if x}


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
    class names the context slot (cctx, ctx), refuses an operand of
    another context in _same, and sets how __repr__ shows a key in
    _key_text (opening, separator, closing)."""

    __slots__ = ("_home", "terms")

    def __init__(self, home, terms=None):
        self._home = home
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, home):
        return cls(home)

    @classmethod
    def unit(cls, home):
        return cls(home, {(): home.field.one})

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
        return type(self)(self._home, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self._home, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """Multiplication by a scalar; each class adds its own product."""
        if isinstance(other, (Scalar, int)):
            s = self._home.coerce(other)
            return type(self)(self._home, {k: c * s for k, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def coeff(self, key) -> Scalar:
        return self.terms.get(tuple(key), self._home.field.zero)

    def grade_part(self, p: int):
        return type(self)(self._home, {k: c for k, c in self.terms.items() if len(k) == p})

    def grade_involution(self):
        """Sign (-1)^p on each grade-p key.  It descends from the tensor
        algebra to each Clifford algebra because the defining ideal is
        generated by even elements."""
        return type(self)(self._home, {
            k: (c if len(k) % 2 == 0 else -c) for k, c in self.terms.items()})

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

    @classmethod
    def blade(cls, cctx: CliffordContext, indices, coeff=1) -> "CliffElt":
        blade = tuple(indices)
        if any(not 1 <= i <= cctx.dim for i in blade):
            raise FormError(f"blade index out of range 1..{cctx.dim}: {blade}")
        if any(blade[t] >= blade[t + 1] for t in range(len(blade) - 1)):
            raise FormError(f"blade must be strictly increasing: {blade}")
        return cls(cctx, {blade: cctx.ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, cctx: CliffordContext, x: Vector) -> "CliffElt":
        same_context(cctx.ctx, x.ctx)
        return cls(cctx, {(i + 1,): c for i, c in enumerate(x.coeffs) if c})

    def __mul__(self, other):
        if isinstance(other, CliffElt):
            self._same(other)
            return CliffElt(self.cctx, _operate(
                self.cctx.field, _chevalley(self.cctx.quadratic), self.terms, other.terms))
        return super().__mul__(other)

    def reverse(self) -> "CliffElt":
        """The anti-automorphism reversing generator order: each blade
        read backwards, as a word acting on the unit."""
        return CliffElt(self.cctx, _operate(
            self.cctx.field, _chevalley(self.cctx.quadratic),
            {b[::-1]: c for b, c in self.terms.items()}, {(): self.cctx.field.one}))

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
    return CliffElt(cctx, _operate(cctx.field, _chevalley(cctx.quadratic), u.terms,
                                   {(): cctx.field.one}))


def contract(f: LinearForm, w: CliffElt) -> CliffElt:
    """The descended antiderivation of a linear form on normal forms:
    the word (1,) acting with f as its only row and no wedge part."""
    same_context(f.ctx, w.cctx.ctx)
    return CliffElt(w.cctx, _operate(w.cctx.field, raw_rows((f.coeffs,)),
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
    if target is None:
        target = CliffordContext(src.quadratic - quad_of_bilinear(F))
        rows = _chevalley(target.quadratic, F)
    else:
        same_context(target.ctx, src.ctx)
        rows = _chevalley(target.quadratic, F)
        _check_shift(rows, src.quadratic, target.quadratic)
    return CliffElt(target, _contract_pairs(target.field, rows, w.terms))


def deform_apply(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The operator form of the deformation: u (over Q + Q_F) acts on
    the algebra of Q through products of (left multiplication plus
    contraction); evaluating at the unit recovers deform(F, u)."""
    same_context(F.ctx, v.cctx.ctx)
    rows = _chevalley(v.cctx.quadratic, F)
    _check_shift(rows, u.cctx.quadratic, v.cctx.quadratic)
    return CliffElt(v.cctx, _operate(v.cctx.field, rows, u.terms, v.terms))


def twisted_mul(F: BilinearForm, u: CliffElt, v: CliffElt) -> CliffElt:
    """The product of the shifted algebra carried onto this one: deform
    both factors into the algebra of Q + Q_F, multiply there, come back.
    The deformation is a module map, so that is the deformed u acting
    on v; for a vector u = x it is x v + contraction_x(v)."""
    if u.cctx != v.cctx:
        raise ContextMismatch("twisted product needs elements of one context")
    same_context(F.ctx, u.cctx.ctx)
    return deform_apply(F, deform(-F, u, target=u.cctx.shift(F)), v)


def _contract_by(u: dict, du: int, w: CliffElt) -> CliffElt:
    """w acted on by a raw element u of the exterior algebra of the
    dual, mapping a mask S to an integer u_S over du: the sum over the
    masks M of w and S of u with S inside M of u_S w_M (-1)^|M & L_S|
    at M ^ S, L_S the XOR over the bits b of S of the bits below b.
    The S of a term M run over the submasks of M, at most 3^n lookups
    for a dense w, or over the terms of u when u has fewer.  Over Q
    divided once by du and den(w)."""
    num, dw = scaled_ints([c.value for c in w.terms.values()])
    lookup = {s: (a, _below(s)) for s, a in u.items()}.get
    out = {}
    get = out.get
    for m, c in zip(map(subset_index, w.terms), num):
        if len(u) >> m.bit_count():
            subs = [m]
            s = m
            while s:
                s = (s - 1) & m
                subs.append(s)
        else:
            subs = u
        for s in subs:
            hit = lookup(s)
            if hit and s & m == s:
                a, low = hit
                k = m ^ s
                x = a * c
                out[k] = get(k, 0) + (-x if (m & low).bit_count() & 1 else x)
    return CliffElt(w.cctx, _scalars(w.cctx.field, map(index_subset, out), out.values(),
                                     du * dw))


def interior(ustar: CliffElt, w: CliffElt) -> CliffElt:
    """The action of the exterior algebra of the dual, given as an
    exterior-algebra element over the same space (e_i standing for
    e_i*): a wedge of linear forms acts as the composition of their
    contractions (leftmost form outermost), extended linearly.  On a
    blade, e*_S removes S from M with the sign (-1)^|M & L_S| (see
    _contract_by): e*_s for the largest s of S acts first and passes
    the set bits of M below s, and so on down S."""
    if not ustar.cctx.is_exterior():
        raise FormError("interior expects an exterior-algebra element")
    same_context(ustar.cctx.ctx, w.cctx.ctx)
    num, den = scaled_ints([c.value for c in ustar.terms.values()])
    return _contract_by(dict(zip(map(subset_index, ustar.terms), num)), den, w)


# The largest exp_contract work estimate that runs (see exp_contract);
# a dense two-form on e_1...e_17 is 18 million and takes about 1.6 CPU-s.
_EXP_GUARD = 1 << 25


def exp_contract(astar: DualTwoForm, w: CliffElt) -> CliffElt:
    """Exponential of the interior action of a dual two-form: w acted
    on by the exponential of the two-form in the exterior algebra of
    the dual, whose series stops at half the dimension.  Needs
    characteristic 0 for the 1/k! weights; in characteristic p use
    deform with the corresponding alternating form instead.

    The series is fraction-free on bitmasks.  With d the common
    denominator of the two-form, A = d a* has integer coefficients, and
    each power A^k is A^(k-1) wedged by the pairs {i, j} of A that miss
    its mask M, at M | {i, j} with the sign (-1)^|M & L_{i,j}|, the
    bits of M between i and j; only the pairs inside the indices of w
    are kept, since no other term of the series contracts w.  With
    top = n // 2, past which the powers vanish, the series is the sum
    of d^(top-k) top!/k! A^k over d^top top!, which contracts w in one
    submask sum.

    With s the indices of w that lie in a nonzero pair, the series has
    at most 2^s terms, each wedged by every pair and looked up by every
    term of w, so (pairs + terms of w) 2^s bounds the work; an input
    over _EXP_GUARD is refused with CapExceeded before the series is
    built."""
    same_context(astar.ctx, w.cctx.ctx)
    if w.cctx.field.char != 0:
        raise CharacteristicError(
            "exponential of a contraction needs characteristic 0; "
            "use deform with the alternating form instead")
    n = astar.ctx.dim
    support = subset_index({i for blade in w.terms for i in blade})
    ij = [(i, j) for i in range(n) for j in range(i + 1, n) if support >> i & support >> j & 1]
    values, d = scaled_ints([astar.at(i + 1, j + 1).value for i, j in ij])
    pairs = [((1 << i) | (1 << j), (1 << j) - (2 << i), a) for (i, j), a in zip(ij, values) if a]
    covered = 0
    for s, _, _ in pairs:
        covered |= s
    cost = (len(pairs) + len(w.terms)) << covered.bit_count()
    if cost > _EXP_GUARD:
        raise CapExceeded(
            f"exp_contract work {cost} exceeds the guard {_EXP_GUARD}: {len(pairs)} pairs "
            f"on {covered.bit_count()} indices of w, {len(w.terms)} terms")
    top = n // 2
    u, power = {}, {0: 1}
    for k in range(top + 1):
        weight = d ** (top - k) * factorial(top) // factorial(k)
        u.update((m, c * weight) for m, c in power.items())
        wedged = {}
        get = wedged.get
        for m, c in power.items():
            for s, between, a in pairs:
                if not m & s:
                    x = a * c
                    wedged[m | s] = get(m | s, 0) + (-x if (m & between).bit_count() & 1 else x)
        power = {m: c for m, c in wedged.items() if c}
    return _contract_by(u, d ** top * factorial(top), w)


def _half_polar(cctx: CliffordContext) -> BilinearForm:
    if cctx.field.char == 2:
        raise CharacteristicError(
            "symbol/quantization need 1/2, undefined in characteristic 2")
    half = cctx.field.one / cctx.field(2)
    n = cctx.dim
    q = cctx.quadratic
    rows = tuple(
        tuple(half * q.polar(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
    return BilinearForm(cctx.ctx, rows)


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

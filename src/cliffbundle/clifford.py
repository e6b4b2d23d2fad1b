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
Each operation is then one sum of word actions:

    u * v                   u . v    B = G_Q
    deform(F, w)            w . 1    B = G_Q + F, Q of the target
    deform_apply(F, u, v)   u . v    B = G_Q + F, Q of v
    quotient_map(u)         u . 1    B = G_Q, the keys of u are words
    DualElt f * g           f . g    B = 0, the wedge
    interior(f, w)          f . w    B = identity, no wedge part

and the representation matrices of repcheck are columns of such sums:
rho_matrix(F, u) has column S = u . e_S (B = F), twist_matrix(A) has
column S = e_S . 1 (B = A).

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
when it leaves.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CharacteristicError, ContextMismatch, FormError, ParseError
from .forms import (AlgebraContext, BilinearForm, DualTwoForm, Field, LinearForm,
                    QuadraticForm, Vector, quad_of_bilinear, same_context)
from .records import record
from .scalars import Scalar, excerpt, raw_rows, scaled_ints


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


def _mask(blade) -> int:
    m = 0
    for i in blade:
        m |= 1 << (i - 1)
    return m


def _blade(m: int) -> tuple:
    out = []
    i = 1
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


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
    for w, c in terms.items():
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


def _word_sum(act, actions: tuple, p: int, u_terms: dict, v: dict) -> tuple:
    """The sum over the words S of u of u_S (e_S . v): (map, den).  act
    is the generator action on the keys of v, _act on bitmasks or
    _act_word on words; v maps them to raw values.  Each e_S . v is
    e_first . (e_rest . v), memoized per suffix, so the keys of u may be
    any words.  Over Q the result is the map divided by den: u and v
    are scaled to integers by their common denominators, u_S is
    weighted by d^(m - |S|), m the longest word of u, and den is those
    denominators times d^m.  Over GF(p) the map is unreduced and den
    is 1."""
    acts, scale, d = actions
    vnum, dv = scaled_ints(list(v.values()))
    memo = {(): dict(zip(v, vnum))}

    def on_v(word):
        got = memo.get(word)
        if got is None:
            bit, row = acts[word[0] - 1]
            got = memo[word] = act(bit, scale, row, p, on_v(word[1:]))
        return got

    unum, du = scaled_ints([c.value for c in u_terms.values()])
    top = max(map(len, u_terms), default=0)
    out = {}
    get = out.get
    for word, c in zip(u_terms, unum):
        if d != 1:
            c *= d ** (top - len(word))
        for k, x in on_v(word).items():
            out[k] = get(k, 0) + c * x
    return out, du * dv * d ** top


def _apply(act, field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True) -> dict:
    """The sum over the words S of u of u_S (e_S . v), where e_i acts by
    e_i ^ w (unless wedge is off) plus the contraction by rows[i - 1],
    on the keys of act.  Scalars are read at entry and built at exit;
    in between, coefficients are ints."""
    p = field.char
    out, den = _word_sum(act, _actions(rows, wedge), p, u_terms,
                         {k: c.value for k, c in v_terms.items()})
    if p:
        return {k: Scalar(field, x) for k, x in out.items() if x % p}
    return {k: Scalar(field, Fraction(x, den)) for k, x in out.items() if x}


def _operate(field: Field, rows, u_terms: dict, v_terms: dict, wedge: bool = True) -> dict:
    """_apply on blades, which are bitmasks inside the kernel."""
    out = _apply(_act, field, rows, u_terms, {_mask(b): c for b, c in v_terms.items()}, wedge)
    return {_blade(k): c for k, c in out.items()}


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


class CliffElt:
    """A normal-form element: finite map from increasing blades to scalars."""

    __slots__ = ("cctx", "terms")

    def __init__(self, cctx: CliffordContext, terms=None):
        self.cctx = cctx
        clean = {}
        if terms:
            for blade, coeff in terms.items():
                if coeff:
                    clean[blade] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, cctx: CliffordContext) -> "CliffElt":
        return cls(cctx)

    @classmethod
    def unit(cls, cctx: CliffordContext) -> "CliffElt":
        return cls(cctx, {(): cctx.field.one})

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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CliffElt):
            return NotImplemented
        return self.cctx == other.cctx and self.terms == other.terms

    def __add__(self, other: "CliffElt") -> "CliffElt":
        if self.cctx != other.cctx:
            raise ContextMismatch("elements of different Clifford contexts")
        out = dict(self.terms)
        for blade, coeff in other.terms.items():
            cur = out.get(blade)
            out[blade] = coeff if cur is None else cur + coeff
        return CliffElt(self.cctx, out)

    def __sub__(self, other: "CliffElt") -> "CliffElt":
        return self + (-other)

    def __neg__(self) -> "CliffElt":
        return CliffElt(self.cctx, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffElt):
            if self.cctx != other.cctx:
                raise ContextMismatch("elements of different Clifford contexts")
            return CliffElt(self.cctx, _operate(
                self.cctx.field, _chevalley(self.cctx.quadratic), self.terms, other.terms))
        if isinstance(other, (Scalar, int)):
            s = self.cctx.ctx.coerce(other)
            return CliffElt(self.cctx, {b: c * s for b, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def coeff(self, blade) -> Scalar:
        return self.terms.get(tuple(blade), self.cctx.field.zero)

    def grade_part(self, p: int) -> "CliffElt":
        return CliffElt(self.cctx, {b: c for b, c in self.terms.items() if len(b) == p})

    def grade_involution(self) -> "CliffElt":
        """Sign (-1)^p per blade cardinality; descends from the tensor
        algebra because the defining ideal is generated by even elements."""
        return CliffElt(self.cctx, {
            b: (c if len(b) % 2 == 0 else -c) for b, c in self.terms.items()})

    def reverse(self) -> "CliffElt":
        """The anti-automorphism reversing generator order: each blade
        read backwards, as a word acting on the unit."""
        return CliffElt(self.cctx, _operate(
            self.cctx.field, _chevalley(self.cctx.quadratic),
            {b[::-1]: c for b, c in self.terms.items()}, {(): self.cctx.field.one}))

    def __repr__(self):
        if not self.terms:
            return "CliffElt(0)"
        bits = []
        for b in sorted(self.terms, key=lambda t: (len(t), t)):
            bits.append(f"{self.terms[b]}*{{{','.join(map(str, b))}}}")
        return "CliffElt(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        blades = sorted(self.terms, key=lambda t: (len(t), t))
        return {"terms": [{"blade": list(b), "coeff": str(self.terms[b])} for b in blades]}

    @classmethod
    def from_json(cls, cctx: CliffordContext, data: dict) -> "CliffElt":
        out = {}
        for term in data["terms"]:
            blade = tuple(term["blade"])
            if any(isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= cctx.dim
                   for i in blade):
                raise ParseError(f"blade index out of range: {excerpt(list(blade))}")
            if any(blade[t] >= blade[t + 1] for t in range(len(blade) - 1)):
                raise ParseError(f"blade must be strictly increasing: {excerpt(list(blade))}")
            c = cctx.field.parse(term["coeff"])
            cur = out.get(blade)
            out[blade] = c if cur is None else cur + c
        return cls(cctx, out)


class DualElt:
    """An element of the exterior algebra of the dual space."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for subset, coeff in terms.items():
                if coeff:
                    clean[subset] = coeff
        self.terms = clean

    @classmethod
    def unit(cls, ctx: AlgebraContext) -> "DualElt":
        return cls(ctx, {(): ctx.field.one})

    @classmethod
    def from_linear(cls, f: LinearForm) -> "DualElt":
        return cls(f.ctx, {(i + 1,): c for i, c in enumerate(f.coeffs) if c})

    @classmethod
    def from_two_form(cls, astar: DualTwoForm) -> "DualElt":
        terms = {}
        n = astar.ctx.dim
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                c = astar.at(i, j)
                if c:
                    terms[(i, j)] = c
        return cls(astar.ctx, terms)

    def __add__(self, other: "DualElt") -> "DualElt":
        same_context(self.ctx, other.ctx)
        out = dict(self.terms)
        for s, c in other.terms.items():
            cur = out.get(s)
            out[s] = c if cur is None else cur + c
        return DualElt(self.ctx, out)

    def __neg__(self) -> "DualElt":
        return DualElt(self.ctx, {s: -c for s, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            s = self.ctx.coerce(other)
            return DualElt(self.ctx, {b: s * c for b, c in self.terms.items()})
        return NotImplemented

    def __mul__(self, other):
        """Wedge product."""
        if isinstance(other, (Scalar, int)):
            return self.__rmul__(other)
        if not isinstance(other, DualElt):
            return NotImplemented
        same_context(self.ctx, other.ctx)
        n = self.ctx.dim
        return DualElt(self.ctx, _operate(self.ctx.field, [[0] * n] * n, self.terms, other.terms))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DualElt):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __repr__(self):
        return f"DualElt({self.terms})"


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
    unit through the form G_Q + F:
    deform(x w) = x deform(w) + contraction_x(deform(w)).
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
    return CliffElt(target, _operate(target.field, rows, w.terms, {(): target.field.one}))


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


def interior(ustar: DualElt, w: CliffElt) -> CliffElt:
    """The action of the exterior algebra of the dual: a wedge of linear
    forms acts as the composition of their contractions (leftmost form
    outermost), extended linearly.  That is the word action with the
    identity rows and no wedge part."""
    same_context(ustar.ctx, w.cctx.ctx)
    n = w.cctx.dim
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return CliffElt(w.cctx, _operate(w.cctx.field, identity, ustar.terms, w.terms, wedge=False))


def exp_contract(astar: DualTwoForm, w: CliffElt) -> CliffElt:
    """Exponential of the interior action of a dual two-form: w acted
    on by the exponential of the two-form in the exterior algebra of
    the dual, whose series stops at half the dimension.  Needs
    characteristic 0 for the 1/k! weights; in characteristic p use
    deform with the corresponding alternating form instead."""
    same_context(astar.ctx, w.cctx.ctx)
    field = w.cctx.field
    if field.char != 0:
        raise CharacteristicError(
            "exponential of a contraction needs characteristic 0; "
            "use deform with the alternating form instead")
    op = DualElt.from_two_form(astar)
    series = power = DualElt.unit(astar.ctx)
    k = 1
    while power := (field.one / field(k)) * (power * op):
        series = series + power
        k += 1
    return interior(series, w)


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

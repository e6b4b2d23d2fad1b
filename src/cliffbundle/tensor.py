"""The tensor algebra on a based space, as sparse word-indexed elements.

Words are tuples over 1..n; the empty word is the unit.  The module
provides left multiplication by vectors, contraction by linear forms
(the grade-lowering antiderivation), the deformation operators attached
to a bilinear form, their divided-power pieces, and the grade involution
and reversal (anti-)automorphisms.

The deformations run on the integer kernel of clifford.py with words
as its keys: the letter i acts by e_i (x) plus the contraction by
F(e_i, .), which removes the letter at position t with the sign
(-1)^t.  deform is u acting on the unit, deform_apply is u acting on v,
and a divided power is a grade part of deform.
"""

from __future__ import annotations

from .clifford import _act_word, _apply
from .errors import CapExceeded, FormError, ParseError
from .forms import AlgebraContext, BilinearForm, LinearForm, Vector, same_context
from .scalars import Scalar, excerpt, raw_rows, shaped


def _check_grade(ctx: AlgebraContext, length: int):
    if length > ctx.grade_cap:
        raise CapExceeded(f"word of length {length} exceeds the grade cap {ctx.grade_cap}")


class TensorElt:
    """A sparse element of the tensor algebra: finite map word -> scalar."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[word] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "TensorElt":
        return cls(ctx)

    @classmethod
    def unit(cls, ctx: AlgebraContext) -> "TensorElt":
        return cls(ctx, {(): ctx.field.one})

    @classmethod
    def from_word(cls, ctx: AlgebraContext, word, coeff=1) -> "TensorElt":
        word = tuple(word)
        for i in word:
            if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= ctx.dim:
                raise FormError(f"word index {excerpt(i)} out of range 1..{ctx.dim}")
        _check_grade(ctx, len(word))
        return cls(ctx, {word: ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, x: Vector) -> "TensorElt":
        return cls(x.ctx, {(i + 1,): c for i, c in enumerate(x.coeffs) if c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorElt):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __add__(self, other: "TensorElt") -> "TensorElt":
        same_context(self.ctx, other.ctx)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            cur = out.get(word)
            out[word] = coeff if cur is None else cur + coeff
        return TensorElt(self.ctx, out)

    def __sub__(self, other: "TensorElt") -> "TensorElt":
        return self + (-other)

    def __neg__(self) -> "TensorElt":
        return TensorElt(self.ctx, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorElt):
            same_context(self.ctx, other.ctx)
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    word = wa + wb
                    _check_grade(self.ctx, len(word))
                    c = ca * cb
                    cur = out.get(word)
                    out[word] = c if cur is None else cur + c
            return TensorElt(self.ctx, out)
        if isinstance(other, (Scalar, int)):
            s = self.ctx.coerce(other)
            return TensorElt(self.ctx, {w: c * s for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def coeff(self, word) -> Scalar:
        return self.terms.get(tuple(word), self.ctx.field.zero)

    def grade_part(self, p: int) -> "TensorElt":
        return TensorElt(self.ctx, {w: c for w, c in self.terms.items() if len(w) == p})

    def max_grade(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def grade_involution(self) -> "TensorElt":
        """Sign (-1)^p on each grade-p component."""
        return TensorElt(self.ctx, {
            w: (c if len(w) % 2 == 0 else -c) for w, c in self.terms.items()})

    def reverse(self) -> "TensorElt":
        """Word reversal, the involutive anti-automorphism."""
        out = {}
        for w, c in self.terms.items():
            rw = w[::-1]
            cur = out.get(rw)
            out[rw] = c if cur is None else cur + c
        return TensorElt(self.ctx, out)

    def __repr__(self):
        if not self.terms:
            return "TensorElt(0)"
        bits = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            bits.append(f"{self.terms[w]}*{list(w)}")
        return "TensorElt(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        words = sorted(self.terms, key=lambda t: (len(t), t))
        return {"terms": [{"word": list(w), "coeff": str(self.terms[w])} for w in words]}

    @classmethod
    def from_json(cls, ctx: AlgebraContext, data: dict) -> "TensorElt":
        out = cls.zero(ctx)
        for term in shaped(shaped(data, dict, "element")["terms"], list, "terms"):
            shaped(term, dict, "terms entry")
            try:
                word = cls.from_word(ctx, shaped(term["word"], list, "word"),
                                     ctx.field.parse(term["coeff"]))
            except FormError as exc:
                raise ParseError(str(exc)) from None
            out = out + word
        return out


def left_mul(x: Vector, u: TensorElt) -> TensorElt:
    """Left multiplication by a vector: u -> x (x) u."""
    same_context(x.ctx, u.ctx)
    out = {}
    for i, xc in enumerate(x.coeffs):
        if not xc:
            continue
        for word, c in u.terms.items():
            nw = (i + 1,) + word
            _check_grade(u.ctx, len(nw))
            t = xc * c
            cur = out.get(nw)
            out[nw] = t if cur is None else cur + t
    return TensorElt(u.ctx, out)


def contract(f: LinearForm, u: TensorElt) -> TensorElt:
    """The antiderivation attached to a linear form: kills the unit,
    satisfies i_f(x (x) u) = f(x) u - x (x) i_f(u), lowers grade by 1."""
    same_context(f.ctx, u.ctx)
    out = {}
    for word, c in u.terms.items():
        for pos, idx in enumerate(word):
            fv = f.coeffs[idx - 1]
            if not fv:
                continue
            t = c * fv if pos % 2 == 0 else -(c * fv)
            rest = word[:pos] + word[pos + 1:]
            cur = out.get(rest)
            out[rest] = t if cur is None else cur + t
    return TensorElt(u.ctx, out)


def contract_vec(F: BilinearForm, x: Vector, u: TensorElt) -> TensorElt:
    """Contraction by the linear form F(x, .)."""
    return contract(F.partial_left(x), u)


def deform_apply(F: BilinearForm, u: TensorElt, v: TensorElt) -> TensorElt:
    """The deformation operator of F evaluated at u, applied to v: u
    acting on v, where a letter i acts by left multiplication by e_i
    plus the contraction by F(e_i, .)."""
    same_context(F.ctx, u.ctx)
    same_context(F.ctx, v.ctx)
    if u.max_grade() and v.terms:  # the longest word built: u's longest word on v's
        _check_grade(v.ctx, u.max_grade() + v.max_grade())
    return TensorElt(v.ctx, _apply(_act_word, v.ctx.field, raw_rows(F.rows), u.terms, v.terms))


def deform(F: BilinearForm, u: TensorElt) -> TensorElt:
    """Deformation of u by F: u acting on the unit, that is the word
    recursion deform(x (x) w) = x (x) deform(w) + contraction_x(deform(w)).
    Parity-preserving linear bijection; inverse is deform(-F, .)."""
    return deform_apply(F, u, TensorElt.unit(u.ctx))


def divided_power(F: BilinearForm, k: int, u: TensorElt) -> TensorElt:
    """The piece of the deformation with exactly k contraction factors.

    A word of length p deforms into words of length p - 2j, j the number
    of contractions, so this is the grade p - 2k part of the deformation
    of the grade-p part of u, summed over p.  For a word it is the sum
    over the choices of k disjoint position pairs (i, j), i < j, of the
    product of the F values on the pairs, times the sign of the
    permutation (i_1, j_1, ..., i_k, j_k, rest ascending), times the
    word on the remaining positions.  Defined in every characteristic;
    the k-th power of the k=1 piece equals k! times it.
    """
    if k < 0:
        raise FormError("divided power index must be >= 0")
    same_context(F.ctx, u.ctx)
    if k == 0:
        return TensorElt(u.ctx, dict(u.terms))
    rows = raw_rows(F.rows)
    unit = {(): u.ctx.field.one}
    out = {}
    for grade in {len(w) for w in u.terms if len(w) >= 2 * k}:
        part = {w: c for w, c in u.terms.items() if len(w) == grade}
        out.update((w, c) for w, c in _apply(_act_word, u.ctx.field, rows, part, unit).items()
                   if len(w) == grade - 2 * k)
    return TensorElt(u.ctx, out)

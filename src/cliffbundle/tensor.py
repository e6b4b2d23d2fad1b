"""The tensor algebra on a based space, as sparse word-indexed elements.

Words are tuples over 1..n; the empty word is the unit.  The module
provides left multiplication by vectors, contraction by linear forms
(the grade-lowering antiderivation), the deformation operators attached
to a bilinear form, their divided-power pieces, and the grade involution
and reversal (anti-)automorphisms.

The operators run on the integer kernel of clifford.py with words as
its keys: the letter i acts by e_i (x) plus the contraction by
F(e_i, .), which removes the letter at position t with the sign
(-1)^t.  contract is the letter 1 acting with f as the only row of F
and no e_i (x) part, deform is u acting on the unit, deform_apply is u
acting on v, and a divided power is a grade part of deform; left_mul
is the tensor product with x's one-letter words.  The elements share
their sparse arithmetic with CliffElt.
"""

from __future__ import annotations

from .clifford import _Sparse, _apply
from .errors import CapExceeded, FormError, ParseError
from .forms import AlgebraContext, BilinearForm, LinearForm, Vector, same_context
from .scalars import excerpt, raw_rows, shaped


def _check_grade(ctx: AlgebraContext, length: int):
    if length > ctx.grade_cap:
        raise CapExceeded(f"word of length {length} exceeds the grade cap {ctx.grade_cap}")


def _checked_word(ctx: AlgebraContext, word) -> tuple:
    """word as a tuple, if its letters are in 1..n and its length is
    within the grade cap."""
    word = tuple(word)
    for i in word:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= ctx.dim:
            raise FormError(f"word index {excerpt(i)} out of range 1..{ctx.dim}")
    _check_grade(ctx, len(word))
    return word


class TensorElt(_Sparse):
    """A sparse element of the tensor algebra: finite map word -> scalar."""

    __slots__ = ()
    ctx = _Sparse._home
    _key_text = ("[", ", ", "]")

    def _same(self, other: "TensorElt"):
        same_context(self.ctx, other.ctx)

    @classmethod
    def from_word(cls, ctx: AlgebraContext, word, coeff=1) -> "TensorElt":
        return cls(ctx, {_checked_word(ctx, word): ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, x: Vector) -> "TensorElt":
        return cls(x.ctx, {(i + 1,): c for i, c in enumerate(x.coeffs) if c})

    def __mul__(self, other):
        if isinstance(other, TensorElt):
            self._same(other)
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    word = wa + wb
                    _check_grade(self.ctx, len(word))
                    c = ca * cb
                    cur = out.get(word)
                    out[word] = c if cur is None else cur + c
            return TensorElt(self.ctx, out)
        return super().__mul__(other)

    def max_grade(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def reverse(self) -> "TensorElt":
        """Word reversal, the involutive anti-automorphism."""
        out = {}
        for w, c in self.terms.items():
            rw = w[::-1]
            cur = out.get(rw)
            out[rw] = c if cur is None else cur + c
        return TensorElt(self.ctx, out)

    def to_json(self) -> dict:
        return {"terms": [{"word": list(w), "coeff": str(self.terms[w])}
                          for w in self._sorted_keys()]}

    @classmethod
    def from_json(cls, ctx: AlgebraContext, data: dict) -> "TensorElt":
        out = {}
        for term in shaped(shaped(data, dict, "element")["terms"], list, "terms"):
            shaped(term, dict, "terms entry")
            word = shaped(term["word"], list, "word")
            c = ctx.field.parse(term["coeff"])
            try:
                word = _checked_word(ctx, word)
            except FormError as exc:
                raise ParseError(str(exc)) from None
            cur = out.get(word)
            out[word] = c if cur is None else cur + c
        return cls(ctx, out)


def left_mul(x: Vector, u: TensorElt) -> TensorElt:
    """Left multiplication by a vector, u -> x (x) u: the tensor product
    of x's one-letter words with u, over u's context and grade cap."""
    same_context(x.ctx, u.ctx)
    return TensorElt(u.ctx, {(i + 1,): c for i, c in enumerate(x.coeffs) if c}) * u


def contract(f: LinearForm, u: TensorElt) -> TensorElt:
    """The antiderivation attached to a linear form: kills the unit,
    satisfies i_f(x (x) u) = f(x) u - x (x) i_f(u), lowers grade by 1.
    That is the word (1,) acting with f as its only row and no wedge
    part."""
    same_context(f.ctx, u.ctx)
    return TensorElt(u.ctx, _apply(u.ctx.field, raw_rows((f.coeffs,)),
                                   {(1,): u.ctx.field.one}, u.terms, wedge=False))


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
    return TensorElt(v.ctx, _apply(v.ctx.field, raw_rows(F.rows), u.terms, v.terms))


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
        out.update((w, c) for w, c in _apply(u.ctx.field, rows, part, unit, pairs=k).items()
                   if len(w) == grade - 2 * k)
    return TensorElt(u.ctx, out)

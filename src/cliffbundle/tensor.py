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

from .clifford import _Sparse, _data_of, _operate
from .errors import CapExceeded, FormError, ParseError
from .forms import AlgebraContext, BilinearForm, LinearForm, Vector, same_context
from .scalars import excerpt, ints_of, shaped


# the longest word an operation may build, a guard against runaway products
_GRADE_CAP = 16


def _check_grade(length: int):
    if length > _GRADE_CAP:
        raise CapExceeded(f"word of length {length} exceeds the grade cap {_GRADE_CAP}")


def _checked_word(ctx: AlgebraContext, word: tuple) -> tuple:
    """word, if it is a tuple of letters in 1..n."""
    if not isinstance(word, tuple):
        raise FormError(f"word {excerpt(word)} is not a tuple of letters in 1..{ctx.dim}")
    for i in word:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= ctx.dim:
            raise FormError(f"word index {excerpt(i)} out of range 1..{ctx.dim}")
    return word


class TensorElt(_Sparse):
    """A sparse element of the tensor algebra: a finite linear
    combination of words, held by them (see _Sparse)."""

    __slots__ = ()
    ctx = _Sparse._home
    _key_text = ("[", ", ", "]")
    _unit_key = ()
    _grade = staticmethod(len)

    def __init__(self, ctx: AlgebraContext, terms=None):
        """terms maps words to Scalars of ctx's field.  A key that is not
        a tuple of letters in 1..n raises FormError, zero or not."""
        terms = terms or {}
        for word in terms:
            _checked_word(ctx, word)
        self._home = ctx
        self.data, self.den = _data_of(ctx.field, terms, terms.values())

    def _same(self, other: "TensorElt"):
        same_context(self.ctx, other.ctx)

    def _key(self, word) -> tuple:
        return _checked_word(self.ctx, word)

    def _keys(self):
        return self.data

    @classmethod
    def from_word(cls, ctx: AlgebraContext, word, coeff=1) -> "TensorElt":
        # a word that is not iterable goes to _checked_word, which refuses it
        word = _checked_word(ctx, tuple(word) if hasattr(word, "__iter__") else word)
        _check_grade(len(word))
        return cls(ctx, {word: ctx.coerce(coeff)})

    @classmethod
    def from_vector(cls, x: Vector) -> "TensorElt":
        return cls._of(x.ctx, *_data_of(x.ctx.field, [(i + 1,) for i in range(x.ctx.dim)],
                                        x.coeffs))

    def __mul__(self, other):
        if isinstance(other, TensorElt):
            self._same(other)
            out = {}
            get = out.get
            for wa, ca in self.data.items():
                for wb, cb in other.data.items():
                    word = wa + wb
                    _check_grade(len(word))
                    out[word] = get(word, 0) + ca * cb
            return self._made(self.ctx, out, out.values(), self.den * other.den)
        return super().__mul__(other)

    def max_grade(self) -> int:
        return max(map(len, self.data), default=0)

    def reverse(self) -> "TensorElt":
        """Word reversal, the involutive anti-automorphism."""
        return self._of(self.ctx, {w[::-1]: c for w, c in self.data.items()}, self.den)

    def to_json(self) -> dict:
        return {"terms": [{"word": list(w), "coeff": str(c)} for w, c in self._sorted_terms()]}

    @classmethod
    def from_json(cls, ctx: AlgebraContext, data: dict) -> "TensorElt":
        out = {}
        for term in shaped(shaped(data, dict, "element")["terms"], list, "terms"):
            shaped(term, dict, "terms entry")
            word = shaped(term["word"], list, "word")
            c = ctx.field.parse(term["coeff"])
            try:
                word = _checked_word(ctx, tuple(word))
            except FormError as exc:
                raise ParseError(str(exc)) from None
            _check_grade(len(word))
            cur = out.get(word)
            out[word] = c if cur is None else cur + c
        return cls(ctx, out)


def left_mul(x: Vector, u: TensorElt) -> TensorElt:
    """Left multiplication by a vector, u -> x (x) u: the tensor product
    of x's one-letter words with u."""
    same_context(x.ctx, u.ctx)
    return TensorElt.from_vector(x) * u


def contract(f: LinearForm, u: TensorElt) -> TensorElt:
    """The antiderivation attached to a linear form: kills the unit,
    satisfies i_f(x (x) u) = f(x) u - x (x) i_f(u), lowers grade by 1.
    That is the word (1,) acting with f as its only row and no wedge
    part."""
    same_context(f.ctx, u.ctx)
    return TensorElt._of(u.ctx, *_operate(u.ctx.field.char, f.ctx.dim, ints_of(
        f.ctx.field, f.coeffs), ({(1,): 1}, 1), (u.data, u.den), wedge=False))


def contract_vec(F: BilinearForm, x: Vector, u: TensorElt) -> TensorElt:
    """Contraction by the linear form F(x, .)."""
    return contract(F.partial_left(x), u)


def deform_apply(F: BilinearForm, u: TensorElt, v: TensorElt) -> TensorElt:
    """The deformation operator of F evaluated at u, applied to v: u
    acting on v, where a letter i acts by left multiplication by e_i
    plus the contraction by F(e_i, .)."""
    same_context(F.ctx, u.ctx)
    same_context(F.ctx, v.ctx)
    if u.max_grade() and v.data:  # the longest word built: u's longest word on v's
        _check_grade(u.max_grade() + v.max_grade())
    return TensorElt._of(v.ctx, *_operate(v.ctx.field.char, v.ctx.dim, (F.nums, F.den),
                                          (u.data, u.den), (v.data, v.den)))


def deform(F: BilinearForm, u: TensorElt) -> TensorElt:
    """Deformation of u by F: u acting on the unit, that is the word
    recursion deform(x (x) w) = x (x) deform(w) + contraction_x(deform(w)).
    Parity-preserving linear bijection; inverse is deform(-F, .)."""
    return deform_apply(F, u, TensorElt.unit(u.ctx))


def divided_power(F: BilinearForm, k: int, u: TensorElt) -> TensorElt:
    """The piece of the deformation with exactly k contraction factors.

    A word of length p deforms into words of length p - 2j, j the number
    of contractions, so this is the grade p - 2k part of the whole
    deformation of the grade-p part of u, summed over p.  For a word it is the sum
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
        return u
    p, n, rows, unit = u.ctx.field.char, u.ctx.dim, (F.nums, F.den), ({(): 1}, 1)
    out = TensorElt.zero(u.ctx)
    for grade in {len(w) for w in u.data if len(w) >= 2 * k}:
        part = {w: c for w, c in u.data.items() if len(w) == grade}
        image = TensorElt._of(u.ctx, *_operate(p, n, rows, (part, u.den), unit))
        out = out + image.grade_part(grade - 2 * k)
    return out

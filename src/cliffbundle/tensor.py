"""The tensor algebra on a based space, as sparse word-indexed elements.

Words are tuples over 1..n; the empty word is the unit.  The module
provides left multiplication by vectors, contraction by linear forms
(the grade-lowering antiderivation), the deformation operators attached
to a bilinear form, their divided-power pieces, and the grade involution
and reversal (anti-)automorphisms.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapExceeded, FormError, ParseError
from .forms import AlgebraContext, BilinearForm, LinearForm, Vector, same_context
from .scalars import Scalar, excerpt


def _check_word(ctx: AlgebraContext, word):
    if len(word) > ctx.grade_cap:
        raise CapExceeded(
            f"word of length {len(word)} exceeds the grade cap {ctx.grade_cap}")


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
        _check_word(ctx, word)
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
                    _check_word(self.ctx, word)
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
        for term in data["terms"]:
            try:
                word = cls.from_word(ctx, term["word"], ctx.field.parse(term["coeff"]))
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
            _check_word(u.ctx, nw)
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
    """The deformation operator of F evaluated at u, applied to v.

    On a vector it is left multiplication plus contraction; on longer
    words it is the corresponding operator product.
    """
    same_context(F.ctx, u.ctx)
    same_context(F.ctx, v.ctx)
    out = TensorElt.zero(v.ctx)
    for word, c in u.terms.items():
        acc = v
        for idx in reversed(word):
            x = Vector.basis(u.ctx, idx)
            acc = left_mul(x, acc) + contract(F.row_form(idx), acc)
        out = out + c * acc
    return out


def deform(F: BilinearForm, u: TensorElt) -> TensorElt:
    """Deformation of u by F: evaluate the deformation operator at the
    unit.  Parity-preserving linear bijection; inverse is deform(-F, .).

    Computed by the word recursion
        deform(x (x) w) = x (x) deform(w) + contraction_x(deform(w)),
    with results cached per word inside one call.
    """
    same_context(F.ctx, u.ctx)
    cache = {(): TensorElt.unit(u.ctx)}

    def lam(word):
        got = cache.get(word)
        if got is not None:
            return got
        tail = lam(word[1:])
        idx = word[0]
        res = left_mul(Vector.basis(u.ctx, idx), tail) + contract(F.row_form(idx), tail)
        cache[word] = res
        return res

    out = TensorElt.zero(u.ctx)
    for word, c in u.terms.items():
        out = out + c * lam(word)
    return out


def _matchings(positions):
    """All ways to split the sorted positions into ordered pairs, each
    pair (i, j) with i < j, pairs listed by increasing first element."""
    if not positions:
        yield ()
        return
    i0 = positions[0]
    for t in range(1, len(positions)):
        j = positions[t]
        rest = positions[1:t] + positions[t + 1:]
        for tail in _matchings(rest):
            yield ((i0, j),) + tail


def _inversions(seq) -> int:
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return inv


def divided_power(F: BilinearForm, k: int, u: TensorElt) -> TensorElt:
    """The piece of the deformation with exactly k contraction factors.

    For a word x_1 ... x_p, sums over all choices of k disjoint position
    pairs (i, j), i < j: the product of the F values on the pairs, times
    the sign of the permutation (i_1, j_1, ..., i_k, j_k, rest ascending),
    times the word on the remaining positions.  Defined in every
    characteristic; the k-th power of the k=1 piece equals k! times it.
    """
    if k < 0:
        raise FormError("divided power index must be >= 0")
    same_context(F.ctx, u.ctx)
    if k == 0:
        return TensorElt(u.ctx, dict(u.terms))
    zero = u.ctx.field.zero
    out = {}
    for word, c in u.terms.items():
        p = len(word)
        if p < 2 * k:
            continue
        for chosen in combinations(range(p), 2 * k):
            for pairs in _matchings(chosen):
                coeff = c
                for (a, b) in pairs:
                    fv = F.at(word[a], word[b])
                    if not fv:
                        coeff = zero
                        break
                    coeff = coeff * fv
                if not coeff:
                    continue
                chosen_set = set(chosen)
                remaining = tuple(q for q in range(p) if q not in chosen_set)
                seq = tuple(q for pair in pairs for q in pair) + remaining
                if _inversions(seq) % 2:
                    coeff = -coeff
                rest_word = tuple(word[q] for q in remaining)
                cur = out.get(rest_word)
                out[rest_word] = coeff if cur is None else cur + coeff
    return TensorElt(u.ctx, out)

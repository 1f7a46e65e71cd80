"""Truncated universal enveloping algebra with PBW normal form.

Elements are finite sums of PBW-normal words (non-decreasing index
sequences) with exact rational coefficients; words longer than the
truncation grade N are discarded after full normalization, so every
identity that stays within total degree N holds exactly.  On top of the
plain product live the full Hopf structure (unshuffle coproduct, counit,
antipode), the lift of a bilinear g-product to words, the associated star
product with its own antipode, a check of the identities of both Hopf
structures, the word-to-star isomorphism phi and its inverse (valued in
the enveloping algebra of the derived Lie algebra g-bar that
products.derived_algebra reads off the rows of C and T), and the r-matrix
linearization map built from R_pm.

Float mode is rejected throughout: the identities checked here are exact
statements.

A word is stored as bytes, one byte per letter index: a bytes object keeps
its hash once computed and compares by memcmp, where a tuple of ints
hashes again on every dict lookup, and bytes order is the order of the
index tuples.  So an algebra takes at most 256 basis elements here.  The
public constructors take raw words as any sequence of int indices.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, groupby
from operator import itemgetter
from math import comb, factorial

from . import scalars
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InvalidInput,
    ModeMismatch,
    NotInAugmentationIdeal,
    NotUnitNormalized,
    OrderMismatch,
)
from .liealg import _check_order, _entries, _same_algebra
from .products import derived_algebra


def _require_exact(L):
    if L.mode != scalars.EXACT:
        raise ModeMismatch(
            "enveloping-algebra computations require an exact-mode algebra"
        )
    if L.dim > 256:
        raise DimensionMismatch(
            "enveloping-algebra words hold one byte per letter, so at most 256 "
            "basis elements (this algebra has %d)" % L.dim
        )
    return L


# ---------------------------------------------------------------------------
# PBW normalization (bubble rewriting of adjacent inversions, memoized)
# ---------------------------------------------------------------------------


def _nonzero(terms):
    return {w: c for w, c in terms.items() if c != 0}


def _bracket_index(L):
    """{(b, a): [(bytes((k,)), c), ...]} for b > a with [x_b, x_a] =
    sum c x_k != 0, read off C_rows on the algebra's first normalization and
    kept beside its PBW cache."""
    if L._bracket_index is None:
        index = {}
        for b, a, k, c in _entries(L.C_rows):
            if a < b:
                index.setdefault((b, a), []).append((bytes((k,)), c))
        L._bracket_index = index
    return L._bracket_index


def _normalize_terms(L, word):
    """Normal form of a raw index word as {normal word: coefficient}.

    Rewrites the first adjacent inversion x_b x_a (b > a) into
    x_a x_b + [x_b, x_a] and recurses; memoized on the algebra.  When x_a
    and x_b commute the word shares the swapped word's entry: entries are
    read and never changed.
    """
    cache = L._pbw_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    for i in range(len(word) - 1):
        b, a = word[i], word[i + 1]
        if b > a:
            out = _normalize_terms(L, word[:i] + bytes((a, b)) + word[i + 2 :])
            bracket = _bracket_index(L).get((b, a))
            if bracket is not None:
                out = dict(out)
                for k, ck in bracket:
                    for w, c in _normalize_terms(L, word[:i] + k + word[i + 2 :]).items():
                        out[w] = out.get(w, 0) + ck * c
                out = _nonzero(out)
            cache[word] = out
            return out
    cache[word] = {word: 1}
    return cache[word]


def _word_mul(L, order, w1, w2):
    """The product of two words in the truncated algebra: the normal form of
    w1 w2 without its words longer than order.  Normalization never
    lengthens a word, so for len(w1) + len(w2) <= order this is the PBW
    cache entry itself, to be read and not changed."""
    word = w1 + w2
    terms = _normalize_terms(L, word)
    if len(word) <= order:
        return terms
    return {w: c for w, c in terms.items() if len(w) <= order}


def _add_into(dst, src, c=1):
    """dst += c * src for term maps."""
    for w, v in src.items():
        dst[w] = dst.get(w, 0) + c * v


def _linear(word_map, terms):
    """The linear extension of a map of words to term maps."""
    out = {}
    for w, c in terms.items():
        _add_into(out, word_map(w), c)
    return out


def _bilinear(word_product, t1, t2):
    """The bilinear extension of a product of words to term maps."""
    out = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            _add_into(out, word_product(w1, w2), c1 * c2)
    return out


@lru_cache(maxsize=None)
def _weighted_unshuffles(word):
    """The unshuffles of a word as (left, right, weight); the word must be
    normal (sorted).  A letter with m copies puts k of them in the left leg
    and m - k in the right, in C(m, k) position subsets, so the Prod (m + 1)
    pairs carry Prod C(m, k) and the weights add up to 2^len(word).  On a
    normal word the pairs are distinct and both legs are normal; the first
    split is (b"", word, 1)."""
    splits = [(b"", b"", 1)]
    for a, run in groupby(word):
        m = len(tuple(run))
        splits = [
            (left + bytes((a,)) * k, right + bytes((a,)) * (m - k), weight * comb(m, k))
            for left, right, weight in splits
            for k in range(m + 1)
        ]
    return tuple(splits)


class _TermMap:
    """A finite sum of words or word pairs with coefficients, of total length
    <= order; an immutable value, equal iff type, order and terms are.  A
    word of another type than bytes would never meet the bytes word it
    spells, so it is refused."""

    __slots__ = ("algebra", "order", "terms")
    _words = staticmethod(iter)  # the words in the keys of a term map

    def __init__(self, algebra, order, terms):
        self.algebra = algebra
        self.order = order
        self.terms = _nonzero(terms)
        if not {*map(type, self._words(self.terms))} <= {bytes}:
            bad = next(w for w in self._words(self.terms) if type(w) is not bytes)
            raise InvalidInput(
                "%s word %r is not bytes, one byte per letter index"
                % (type(self).__name__, bad)
            )

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other):
        _check_pair(self, other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return type(self)(self.algebra, self.order, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = scalars.coerce(c, scalars.EXACT)
        return type(self)(self.algebra, self.order, {w: c * v for w, v in self.terms.items()})


class EnvElement(_TermMap):
    """A finite sum of PBW-normal words of length <= order, as
    {word: coefficient} with each word bytes, one byte per letter index:
    b"" is the unit and bytes((k,)) the letter x_k."""

    __slots__ = ()

    def coefficient(self, word):
        return self.terms.get(bytes(_letter_index(self.algebra, i) for i in word), 0)

    def counit(self):
        return self.terms.get(b"", 0)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        return env_mul(self, other)

    def __repr__(self):
        return "EnvElement(%s)" % (render(self),)


def _check_pair(A, B):
    if not _same_algebra(A.algebra, B.algebra):
        raise AlgebraMismatch("elements live over different algebras")
    if A.order != B.order:
        raise OrderMismatch("truncation grades differ: %d vs %d" % (A.order, B.order))


def unit(L, order):
    _require_exact(L)
    _check_order(order, 0)
    return EnvElement(L, order, {b"": 1})


def _letter_index(L, i):
    """i, if it is an int (not a bool) in 0..dim-1."""
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < L.dim:
        raise DimensionMismatch("letter index %r is not an int in 0..%d" % (i, L.dim - 1))
    return i


def letter(L, order, i):
    return env_element(L, order, {(i,): 1})


def from_g_vector(L, order, x):
    _require_exact(L)
    return env_element(L, order, {(k,): c for k, c in enumerate(L.check_vector(x))})


def env_element(L, order, raw_terms):
    """Build an element from {raw index word: coefficient}, normalizing."""
    _require_exact(L)
    _check_order(order, 0)
    out = {}
    for word, c in raw_terms.items():
        word = bytes(_letter_index(L, i) for i in word)
        _add_into(out, _word_mul(L, order, word, b""), scalars.coerce(c, scalars.EXACT))
    return EnvElement(L, order, out)


def pbw_normalize(L, raw_word, order):
    """Normal form of one raw word as an element (unit coefficient)."""
    return env_element(L, order, {tuple(raw_word): 1})


def env_mul(A, B):
    """Concatenate-then-normalize product; words longer than N are dropped
    only after full normalization."""
    _check_pair(A, B)
    out = _bilinear(partial(_word_mul, A.algebra, A.order), A.terms, B.terms)
    return EnvElement(A.algebra, A.order, out)


def word_of_vectors(L, order, vectors):
    """The product v_1 ... v_m of g-vectors, expanded multilinearly."""
    acc = unit(L, order)
    for v in vectors:
        acc = env_mul(acc, from_g_vector(L, order, v))
    return acc


# ---------------------------------------------------------------------------
# Hopf structure: coproduct, counit, antipode
# ---------------------------------------------------------------------------


class TensorSquareElement(_TermMap):
    """Finite sum of word pairs with total length <= order."""

    __slots__ = ()
    _words = staticmethod(chain.from_iterable)

    def __repr__(self):
        return "TensorSquareElement(%d terms)" % (len(self.terms),)


class _GradedEnv(_TermMap):
    """A t-graded series of enveloping-algebra elements: the terms are keyed
    by (degree, normal word), degrees 0..N; exact under the grading, since
    a word of degree m has length <= m."""

    __slots__ = ()
    _words = staticmethod(partial(map, itemgetter(1)))

    @classmethod
    def unit(cls, algebra, order):
        return cls(algebra, order, {(0, b""): 1})

    @classmethod
    def from_graded_vector(cls, x):
        return cls(x.algebra, x.order, {
            (m, bytes((k,))): c for m, v in enumerate(x.coeffs) for k, c in enumerate(v)
        })

    def mul(self, other, star=None):
        L, order = self.algebra, self.order
        if star is None:
            word_mul = partial(_word_mul, L, order)
        else:
            word_mul = lifted(L, star, order).star_word

        def graded(a, b):
            if a[0] + b[0] > order:
                return {}
            return {(a[0] + b[0], w): c for w, c in word_mul(a[1], b[1]).items()}

        return _GradedEnv(L, order, _bilinear(graded, self.terms, other.terms))

    def exp(self, star=None):
        """Exponential of a series with zero degree-0 part (exact: the n-th
        power only reaches degrees >= n)."""
        if any(d == 0 for d, _ in self.terms):
            raise InvalidInput("graded exp needs a series without degree-0 part")
        one = _GradedEnv.unit(self.algebra, self.order)
        return _exp_series(self, one, lambda a, b: a.mul(b, star=star))


def _tensor_terms(out, t1, t2, order):
    """out += t1 (x) t2 over word pairs, truncating total length; returns out."""
    for w1, c1 in t1.items():
        room = order - len(w1)
        for w2, c2 in t2.items():
            if len(w2) <= room:
                out[w1, w2] = out.get((w1, w2), 0) + c1 * c2
    return out


def _tensor_square_mul(T1, T2, word_product):
    """(a x b)(c x d) = ac x bd for a product of words, truncated at total
    length > order: both operands grouped by left leg, one product ac per
    pair of left legs, times the product of the right legs beside them, of
    which only the words that fit beside the shortest word of ac are
    added."""
    _check_pair(T1, T2)
    order = T1.order
    groups1, groups2 = {}, {}
    for terms, groups in ((T1.terms, groups1), (T2.terms, groups2)):
        for (w1, w2), v in terms.items():
            groups.setdefault(w1, {})[w2] = v
    out = {}
    for a, rights1 in groups1.items():
        for c, rights2 in groups2.items():
            left = word_product(a, c)
            if not left:
                continue
            room = order - min(map(len, left))
            right = {}
            for b, v1 in rights1.items():
                for d, v2 in rights2.items():
                    v12 = v1 * v2
                    for w, v in word_product(b, d).items():
                        if len(w) <= room:
                            right[w] = right.get(w, 0) + v12 * v
            if right:
                _tensor_terms(out, left, right, order)
    return TensorSquareElement(T1.algebra, order, out)


def tensor_mul(T1, T2):
    """(a x b)(c x d) = ac x bd, truncated at total length > order."""
    L = T1.algebra
    return _tensor_square_mul(T1, T2, lambda a, b: _normalize_terms(L, a + b))


def tensor_star_mul(T1, T2, product):
    """Componentwise star product on tensor squares:
    (a x b) * (c x d) = (a*c) x (b*d), truncated at total length."""
    ctx = lifted(T1.algebra, product, T1.order)
    return _tensor_square_mul(T1, T2, ctx.star_word)


def tensor_of(A, B):
    """A (x) B as a TensorSquareElement, truncating total length."""
    _check_pair(A, B)
    terms = _tensor_terms({}, A.terms, B.terms, A.order)
    return TensorSquareElement(A.algebra, A.order, terms)


def _coproduct_word(word):
    """The unshuffle coproduct of a normal word as {(left, right): count}:
    each distinct split weighted by the position subsets that give it."""
    return {(left, right): k for left, right, k in _weighted_unshuffles(word)}


def coproduct(A):
    """The unshuffle coproduct; coassociative and an algebra morphism."""
    return TensorSquareElement(A.algebra, A.order, _linear(_coproduct_word, A.terms))


def _antipode_word(L, w):
    """S(w) = (-1)^n w reversed, re-normalized, for a word w of length n;
    normalization never lengthens a word, so S(w) needs no truncation."""
    sign = -1 if len(w) % 2 else 1
    return {v: sign * c for v, c in _normalize_terms(L, w[::-1]).items()}


def antipode(A):
    """S(x_{i1}...x_{in}) = (-1)^n x_{in}...x_{i1}, re-normalized."""
    L = A.algebra
    return EnvElement(L, A.order, _linear(partial(_antipode_word, L), A.terms))


def is_primitive(A):
    """Delta(A) = A (x) 1 + 1 (x) A."""
    U = unit(A.algebra, A.order)
    return (coproduct(A) - tensor_of(A, U) - tensor_of(U, A)).is_zero()


def is_grouplike(A):
    """A != 0 and Delta(A) = A (x) A (compared at the common truncation)."""
    if A.is_zero():
        return False
    return (coproduct(A) - tensor_of(A, A)).is_zero()


# ---------------------------------------------------------------------------
# the lifted product, star product, and the associated maps
# ---------------------------------------------------------------------------


class LiftedProduct:
    """Memo context for the word-level extension of a bilinear g-product.

    The extension rules are: 1 |> A = A;  x.A |> y = x |> (A |> y)
    - (x |> A) |> y;  A |> B.C = sum (A1 |> B)(A2 |> C) over the coproduct
    of A; A |> 1 = counit(A).  So a g-vector X acts on words as the
    derivation that extends y -> X |> y, and vector_lift is the one place
    that acts so.  All internal maps are {normal word: coeff} dictionaries
    of words of length <= the context's grade, each word bytes as in
    EnvElement: every product of words goes through _word_mul, which drops
    the longer ones.  The memo keys are ("t", A, w) for A |> w, ("s", A, B)
    for A * B, ("a", w) for the star antipode, with A, B and w bytes words,
    and ("v", frozenset of X's terms) for a g-vector X: there one dict
    {normal word w: X |> w}, seeded with the letters.  The "t" entry of
    x.A' is read off the "v" entry of the letter x, whose key is
    ("v", frozenset({(bytes((x,)), 1)})), and "t" entries of shorter words.
    """

    def __init__(self, algebra, product, order):
        _require_exact(algebra)
        if not _same_algebra(product.algebra, algebra):
            raise AlgebraMismatch("the product lives over another algebra")
        self.algebra = algebra
        # the rows, not the product: the product keys this context in
        # _lift_contexts, and a strong reference would keep the entry alive
        self.rows = product.T_rows
        self.order = order
        self.mul = partial(_word_mul, algebra, order)
        self._memo = {}

    # -- the triangle lift --------------------------------------------------

    def tri_word(self, A, w):
        """A |> w for normal words A, w, by recursion on the first letter x
        of A: 1 |> w = w and x.A' |> w = x |> (A' |> w) - (x |> A') |> w,
        where x acts through vector_lift.  A letter x with an empty product
        row acts by zero, and then so does every word that starts with x."""
        if not A:
            return {w: 1} if len(w) <= self.order else {}
        if not w or not self.rows[A[0]]:
            return {}
        key = ("t", A, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        x, rest = {A[:1]: 1}, A[1:]
        out = self.vector_lift(x, self.tri_word(rest, w))
        for ww, c in self.vector_lift(x, {rest: 1}).items():
            _add_into(out, self.tri_word(ww, w), -c)
        out = _nonzero(out)
        self._memo[key] = out
        return out

    # -- star product ---------------------------------------------------------

    def star_word(self, A, B):
        """A * B = sum A1 . (A2 |> B) over the coproduct of A, for normal
        words A, B; A is split with _weighted_unshuffles, which needs a
        normal word."""
        key = ("s", A, B)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        # the split with an empty left leg adds A |> B, already normal words
        # within the grade
        out = dict(self.tri_word(A, B))
        for left, right, k in _weighted_unshuffles(A)[1:]:
            for w, c in self.tri_word(right, B).items():
                _add_into(out, self.mul(left, w), k * c)
        out = _nonzero(out)
        self._memo[key] = out
        return out

    def star_elem(self, tA, tB):
        """The star product of two term maps, unfiltered."""
        return _bilinear(self.star_word, tA, tB)

    def vector_lift(self, X, tB):
        """X |> B for a g-vector X (a term map of letters): the rows are
        summed once per vector into the letter map y -> X |> y, which acts
        on words as the derivation X |> y.w' = (X |> y).w' + y.(X |> w')."""
        key = ("v", frozenset(X.items()))
        acts = self._memo.get(key)
        if acts is None:
            acts = {}
            for (x,), cx in X.items():
                for j, k, c in self.rows[x]:
                    _add_into(acts.setdefault(bytes((j,)), {}), {bytes((k,)): c}, cx)
            acts = self._memo[key] = {y: _nonzero(t) for y, t in acts.items()}
        return _linear(partial(self._derive, acts), tB)

    def vector_star(self, X, tB):
        """X * B = X.B + X |> B for a g-vector X."""
        out = self.vector_lift(X, tB)
        _add_into(out, _bilinear(self.mul, X, tB))
        return out

    def _derive(self, acts, w):
        hit = acts.get(w)
        if hit is not None or len(w) <= 1:
            return hit or {}
        head, rest = w[:1], w[1:]
        out = _linear(partial(self.mul, head), self._derive(acts, rest))
        for y, c in acts.get(head, {}).items():
            _add_into(out, self.mul(y, rest), c)
        acts[w] = out = _nonzero(out)
        return out

    # -- star antipode ----------------------------------------------------------

    def star_antipode_word(self, w):
        """Solve the star antipode axiom: S(w) = -w - sum over proper
        nonempty position subsets of w_S * S(w_rest)."""
        if not w:
            return {b"": 1}
        key = ("a", w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = {w: -1} if len(w) <= self.order else {}
        for left, right, k in _weighted_unshuffles(w):
            if left and right:
                inner = self.star_antipode_word(right)
                _add_into(out, self.star_elem({left: 1}, inner), -k)
        out = _nonzero(out)
        self._memo[key] = out
        return out


_lift_contexts = weakref.WeakKeyDictionary()


def lifted(algebra, product, order):
    """Shared memo context per (algebra, product tensor, grade)."""
    table = _lift_contexts.setdefault(product, {})
    key = (id(algebra), order)
    ctx = table.get(key)
    if ctx is None:
        ctx = LiftedProduct(algebra, product, order)
        table[key] = ctx
    return ctx


def _is_vector(terms):
    return all(len(w) == 1 for w in terms)


def triangle_lift(A, B, product):
    """The lifted product A |> B; a g-vector A acts by one derivation."""
    _check_pair(A, B)
    ctx = lifted(A.algebra, product, A.order)
    lift = ctx.vector_lift if _is_vector(A.terms) else partial(_bilinear, ctx.tri_word)
    return EnvElement(A.algebra, A.order, lift(A.terms, B.terms))


def star_mul(A, B, product):
    """A * B = sum A1 . (A2 |> B), A.B + A |> B for a g-vector A; associative with unit 1."""
    _check_pair(A, B)
    ctx = lifted(A.algebra, product, A.order)
    star = ctx.vector_star if _is_vector(A.terms) else ctx.star_elem
    return EnvElement(A.algebra, A.order, star(A.terms, B.terms))


def star_antipode(A, product):
    """The antipode of the star Hopf structure (recursively from its axiom)."""
    ctx = lifted(A.algebra, product, A.order)
    return EnvElement(A.algebra, A.order, _linear(ctx.star_antipode_word, A.terms))


HOPF_IDENTITIES = (
    "coassociativity",
    "counit",
    "antipode",
    "coproduct_multiplicative",
    "star_antipode",
    "star_coproduct_multiplicative",
)


def hopf_identity_failures(A, B, product):
    """The names, in HOPF_IDENTITIES order, of the identities of the two Hopf
    structures that fail on A and B: coassociativity and counit of the
    coproduct at A; m(S x id)Delta(A) = counit(A) for the plain antipode and
    for the star antipode; Delta(AB) = Delta(A)Delta(B) for the plain and for
    the star product.  The star identities assume a right-handed post-Lie
    product such as [R_- x, y]; the left-handed [R_+ x, y] fails them."""
    _check_pair(A, B)
    L, order = A.algebra, A.order
    ctx = lifted(L, product, order)
    D = coproduct(A)
    # (Delta x id)Delta(A), (id x Delta)Delta(A), the legs beside an empty
    # word, and the two antipode sums, all as term maps
    left, right, lefts, rights, plain, star = {}, {}, {}, {}, {}, {}
    for (a, b), c in D.terms.items():
        for (u, v), k in _coproduct_word(a).items():
            left[u, v, b] = left.get((u, v, b), 0) + c * k
        for (u, v), k in _coproduct_word(b).items():
            right[a, u, v] = right.get((a, u, v), 0) + c * k
        if not b:
            lefts[a] = lefts.get(a, 0) + c
        if not a:
            rights[b] = rights.get(b, 0) + c
        for w, s in _antipode_word(L, a).items():
            _add_into(plain, ctx.mul(w, b), c * s)
        for w, s in ctx.star_antipode_word(a).items():
            _add_into(star, ctx.star_word(w, b), c * s)
    counit = _nonzero({b"": A.counit()})
    DB = coproduct(B)
    failed = {
        "coassociativity": _nonzero(left) != _nonzero(right),
        "counit": _nonzero(lefts) != A.terms or _nonzero(rights) != A.terms,
        "antipode": _nonzero(plain) != counit,
        "coproduct_multiplicative": coproduct(env_mul(A, B)) != tensor_mul(D, DB),
        "star_antipode": _nonzero(star) != counit,
        "star_coproduct_multiplicative":
            coproduct(star_mul(A, B, product)) != tensor_star_mul(D, DB, product),
    }
    return [name for name in HOPF_IDENTITIES if failed[name]]


# ---------------------------------------------------------------------------
# the word-to-star isomorphism and its inverse
# ---------------------------------------------------------------------------


def _as_vector_letters(L, word):
    """The letters of a raw word as g-vectors: a sequence other than a str
    is a vector, any other letter a basis index."""
    return [
        L.check_vector(x) if hasattr(x, "__len__") and not isinstance(x, str)
        else L.basis(_letter_index(L, x))
        for x in word
    ]


def phi(L, word, product, order):
    """Image of the word x_1 ... x_n under the unique algebra morphism
    sending letters to letters and the free product to the star product:
    phi(x_1 ... x_n) = x_1 * (x_2 * (... * x_n)).

    Letters may be basis indices or g-vectors; the input is a raw word (it
    is *not* normalized first).  A word longer than the grade is evaluated
    at its own length, where nothing is truncated, and only then cut to
    the grade: normalizing a long word can give shorter words.
    """
    _check_order(order, 0)
    letters = _as_vector_letters(L, word)
    ctx = lifted(L, product, max(order, len(letters)))
    acc = {b"": 1}
    for v in reversed(letters):
        acc = ctx.vector_star({bytes((k,)): c for k, c in enumerate(v) if c != 0}, acc)
    return EnvElement(L, order, {w: c for w, c in acc.items() if len(w) <= order})


def phi_term_count(n):
    """Number of summands in the closed set-partition formula of phi on n
    letters: the Bell number B_n, read off the Bell triangle (each row
    starts with the last entry of the row above, and each further entry
    adds the entry above it to its left neighbour; B_n starts row n)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def phi_inverse(L, word, product, order):
    """Inverse of phi on a raw word, valued in the enveloping algebra of
    the star-commutator Lie algebra (available as the result's .algebra).
    A letter x has x * W = x.W + x |> W and acts on W = y_1 ... y_m by
    derivations, so phi^{-1}(1) = 1 and
    phi^{-1}(x.W) = x phi^{-1}(W) - sum_i phi^{-1}(y_1 ... (x |> y_i) ... y_m).
    A word longer than the grade is evaluated and cut as phi does it."""
    _check_order(order, 0)
    bar = derived_algebra(product)
    letters = _as_vector_letters(L, word)
    full = _phi_inverse_letters(bar, letters, product, max(order, len(letters)))
    return EnvElement(bar, order, {w: c for w, c in full.terms.items() if len(w) <= order})


def _phi_inverse_letters(bar, letters, product, order):
    if not letters:
        return unit(bar, order)
    x, rest = letters[0], letters[1:]
    total = env_mul(from_g_vector(bar, order, x), _phi_inverse_letters(bar, rest, product, order))
    for i, y in enumerate(rest):
        acted = rest[:i] + [product.apply(x, y)] + rest[i + 1 :]
        total = total - _phi_inverse_letters(bar, acted, product, order)
    return total


# ---------------------------------------------------------------------------
# the r-matrix linearization map F and the induced product identity
# ---------------------------------------------------------------------------


def _sts_sum(a, B, ctx):
    """sum R+(a1) . B . S(R-(a2)) over the unshuffles a1 (x) a2 of every
    word of a: R+ is pushed through the left leg and R- through the right
    leg letter-wise, and S is the antipode."""
    Rp, Rm = ctx.r_plus_minus()
    L = ctx.algebra
    order = B.order
    total = EnvElement(L, order, {})
    for w, c in a.terms.items():
        for left, right, k in _weighted_unshuffles(w):
            plus = word_of_vectors(L, order, [Rp.apply(L.basis(i)) for i in left])
            minus = word_of_vectors(L, order, [Rm.apply(L.basis(i)) for i in right])
            total = total + env_mul(env_mul(plus, B), antipode(minus)).scale(k * c)
    return total


def F_map(A, ctx):
    """m . (id x S) . (R+ x R-) . Delta applied wordwise: the sum of
    R+(a1) . S(R-(a2)) over the unshuffles of each word, the B = 1 case of
    the sum sts_product_check evaluates."""
    return _sts_sum(A, unit(ctx.algebra, A.order), ctx)


def sts_product_check(a, B, ctx, product):
    """Verify F(a) * B = sum R+(a1) . B . S(R-(a2)) term by term.

    a is a word-form element read over the derived algebra; B lives in the
    base enveloping algebra; product is the g-level tensor the star product
    is built from.  Returns a report with the difference element.
    """
    lhs = star_mul(F_map(a, ctx), B, product)
    rhs = _sts_sum(a, B, ctx)
    diff = lhs - rhs
    return {"ok": diff.is_zero(), "difference": diff, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# exponential / logarithm (plain and star)
# ---------------------------------------------------------------------------


def _power_series(B, one, mul, acc, coefficient):
    """acc + sum_{1 <= n <= B.order} coefficient(n) B^n with the powers taken
    by mul, stopping at the first power that vanishes."""
    power = one
    for n in range(1, B.order + 1):
        power = mul(power, B)
        if power.is_zero():
            break
        acc = acc + power.scale(coefficient(n))
    return acc


def _exp_series(A, one, mul):
    """sum_{n <= A.order} A^n / n!."""
    return _power_series(A, one, mul, one, lambda n: Fraction(1, factorial(n)))


def _log_series(B, one, mul):
    """sum_{1 <= n <= B.order} (-1)^(n-1) B^n / n, the logarithm of one + B."""
    return _power_series(B, one, mul, one.scale(0), lambda n: Fraction((-1) ** (n - 1), n))


def exp(A):
    """Truncated exponential sum_{n<=N} A^n / n! for the grade N.  Requires
    counit(A) = 0.

    Note on truncation: words the normalization shortens can receive
    contributions from arbitrarily high powers, so the cut is exact only
    when such feedback terminates (graded situations, single basis
    letters)."""
    if A.counit() != 0:
        raise NotInAugmentationIdeal("exp needs a counit-free element")
    return _exp_series(A, unit(A.algebra, A.order), env_mul)


def log(A):
    """Truncated logarithm of 1 + (A - 1); requires counit(A) = 1."""
    if A.counit() != 1:
        raise NotUnitNormalized("log needs an element with unit coefficient 1")
    one = unit(A.algebra, A.order)
    return _log_series(A - one, one, env_mul)


def exp_star(A, product):
    """Exponential with star powers."""
    if A.counit() != 0:
        raise NotInAugmentationIdeal("exp_star needs a counit-free element")
    return _exp_series(A, unit(A.algebra, A.order), lambda P, Q: star_mul(P, Q, product))


def log_star(A, product):
    """Logarithm with star powers."""
    if A.counit() != 1:
        raise NotUnitNormalized("log_star needs an element with unit coefficient 1")
    one = unit(A.algebra, A.order)
    return _log_series(A - one, one, lambda P, Q: star_mul(P, Q, product))


# ---------------------------------------------------------------------------
# rendering (deterministic, for golden files)
# ---------------------------------------------------------------------------


def render(A):
    """Length-lex ordered textual form, e.g. '1 + e·f - 1/2*h'."""
    if not A.terms:
        return "0"
    labels = A.algebra.labels
    parts = []
    for w in sorted(A.terms, key=lambda w: (len(w), w)):
        c = A.terms[w]
        word_str = "·".join(labels[i] for i in w)
        neg = c < 0
        mag = -c if neg else c
        if not w:
            body = scalars.format_rational(mag)
        elif mag == 1:
            body = word_str
        else:
            body = "%s*%s" % (scalars.format_rational(mag), word_str)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)

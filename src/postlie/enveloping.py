"""Truncated universal enveloping algebra with PBW normal form.

Elements are finite sums of PBW-normal words (non-decreasing index
sequences) with exact rational coefficients; words longer than the
truncation grade N are discarded after full normalization, so every
identity that stays within total degree N holds exactly.  On top of the
plain product live the full Hopf structure (unshuffle coproduct, counit,
antipode), the lift of a bilinear g-product to words, the associated star
product with its own antipode, a check of the identities of both Hopf
structures, the word-to-star isomorphism and its inverse, and the r-matrix
linearization map built from R_pm.

Float mode is rejected throughout: the identities checked here are exact
statements.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from . import scalars
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    ModeMismatch,
    NotInAugmentationIdeal,
    NotUnitNormalized,
    OrderMismatch,
)
from .liealg import algebra_from_bracket
from .products import star_commutator


def _require_exact(L):
    if L.mode != scalars.EXACT:
        raise ModeMismatch(
            "enveloping-algebra computations require an exact-mode algebra"
        )
    return L


# ---------------------------------------------------------------------------
# PBW normalization (bubble rewriting of adjacent inversions, memoized)
# ---------------------------------------------------------------------------


def _nonzero(terms):
    return {w: c for w, c in terms.items() if c != 0}


def _normalize_terms(L, word):
    """Normal form of a raw index word as {normal word: coefficient}.

    Rewrites the first adjacent inversion x_b x_a (b > a) into
    x_a x_b + [x_b, x_a] and recurses; memoized on the algebra.
    """
    cache = L._pbw_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    for i in range(len(word) - 1):
        b, a = word[i], word[i + 1]
        if b > a:
            out = {}
            swapped = word[:i] + (a, b) + word[i + 2 :]
            for w, c in _normalize_terms(L, swapped).items():
                out[w] = out.get(w, 0) + c
            for j, k, ck in L.C_rows[b]:
                if j == a:
                    shorter = word[:i] + (k,) + word[i + 2 :]
                    for w, c in _normalize_terms(L, shorter).items():
                        out[w] = out.get(w, 0) + ck * c
            out = _nonzero(out)
            cache[word] = out
            return out
    cache[word] = {word: 1}
    return cache[word]


def _truncate(terms, order):
    return {w: c for w, c in terms.items() if len(w) <= order}


def _add_into(dst, src, c=1):
    """dst += c * src for term maps."""
    for w, v in src.items():
        dst[w] = dst.get(w, 0) + c * v


def _bilinear(word_product, t1, t2):
    """The bilinear extension of a product of words to term maps."""
    out = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            _add_into(out, word_product(w1, w2), c1 * c2)
    return out


@lru_cache(maxsize=None)
def _position_splits(n):
    """(subset, complement) of the positions 0..n-1 for every subset,
    ordered by subset size."""
    return tuple(
        (S, tuple(i for i in range(n) if i not in S))
        for k in range(n + 1)
        for S in combinations(range(n), k)
    )


def _unshuffles(word):
    """The (left, right) legs of every unshuffle of word: the letters at a
    position subset and at its complement, each in word order."""
    for S, T in _position_splits(len(word)):
        yield tuple(word[i] for i in S), tuple(word[i] for i in T)


class _TermMap:
    """A finite sum of words or word pairs with coefficients, of total length
    <= order; an immutable value, equal iff type, order and terms are."""

    __slots__ = ("algebra", "order", "terms")

    def __init__(self, algebra, order, terms):
        self.algebra = algebra
        self.order = order
        self.terms = _nonzero(terms)

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
        _check_pair(self, other)
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return type(self)(self.algebra, self.order, out)

    def scale(self, c):
        c = scalars.coerce(c, scalars.EXACT)
        return type(self)(self.algebra, self.order, {w: c * v for w, v in self.terms.items()})


class EnvElement(_TermMap):
    """A finite sum of PBW-normal words of length <= order."""

    __slots__ = ()

    def coefficient(self, word):
        return self.terms.get(tuple(word), 0)

    def counit(self):
        return self.terms.get((), 0)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        return env_mul(self, other)

    def __repr__(self):
        return "EnvElement(%s)" % (render(self),)


def _check_pair(A, B):
    if A.algebra is not B.algebra and A.algebra.C_rows != B.algebra.C_rows:
        raise AlgebraMismatch("elements live over different algebras")
    if A.order != B.order:
        raise OrderMismatch("truncation grades differ: %d vs %d" % (A.order, B.order))


def unit(L, order):
    _require_exact(L)
    return EnvElement(L, order, {(): 1})


def letter(L, order, i):
    _require_exact(L)
    if not 0 <= i < L.dim:
        raise DimensionMismatch("letter index %d out of range" % (i,))
    return EnvElement(L, order, {(i,): 1})


def from_g_vector(L, order, x):
    _require_exact(L)
    x = L.check_vector(x)
    return EnvElement(L, order, {(k,): c for k, c in enumerate(x) if c != 0})


def env_element(L, order, raw_terms):
    """Build an element from {raw index word: coefficient}, normalizing."""
    _require_exact(L)
    out = {}
    for word, c in raw_terms.items():
        word = tuple(int(i) for i in word)
        for i in word:
            if not 0 <= i < L.dim:
                raise DimensionMismatch("letter index %d out of range" % (i,))
        _add_into(out, _normalize_terms(L, word), scalars.coerce(c, scalars.EXACT))
    return EnvElement(L, order, _truncate(out, order))


def pbw_normalize(L, raw_word, order):
    """Normal form of one raw word as an element (unit coefficient)."""
    return env_element(L, order, {tuple(raw_word): 1})


def env_mul(A, B):
    """Concatenate-then-normalize product; words longer than N are dropped
    only after full normalization."""
    _check_pair(A, B)
    L = A.algebra
    out = _bilinear(lambda w1, w2: _normalize_terms(L, w1 + w2), A.terms, B.terms)
    return EnvElement(L, A.order, _truncate(out, A.order))


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

    def __repr__(self):
        return "TensorSquareElement(%d terms)" % (len(self.terms),)


def _tensor_terms(t1, t2, order):
    """t1 (x) t2 as a map over word pairs, truncating total length."""
    return {
        (w1, w2): c1 * c2
        for w1, c1 in t1.items()
        for w2, c2 in t2.items()
        if len(w1) + len(w2) <= order
    }


def _tensor_square_mul(T1, T2, word_product):
    """(a x b)(c x d) = ac x bd for a product of words, truncated at total
    length > order."""
    order = T1.order

    def pair_product(p, q):
        return _tensor_terms(word_product(p[0], q[0]), word_product(p[1], q[1]), order)

    return TensorSquareElement(
        T1.algebra, order, _bilinear(pair_product, T1.terms, T2.terms)
    )


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
    terms = _tensor_terms(A.terms, B.terms, A.order)
    return TensorSquareElement(A.algebra, A.order, terms)


def _coproduct_word(word):
    """Unshuffle a sorted word over position subsets; legs stay sorted."""
    out = {}
    for pair in _unshuffles(word):
        out[pair] = out.get(pair, 0) + 1
    return out


def coproduct(A):
    """The unshuffle coproduct; coassociative and an algebra morphism."""
    out = {}
    for w, c in A.terms.items():
        _add_into(out, _coproduct_word(w), c)
    return TensorSquareElement(A.algebra, A.order, out)


def _antipode_word(L, w):
    """S(w) = (-1)^n w reversed, re-normalized, for a word w of length n."""
    sign = -1 if len(w) % 2 else 1
    return {v: sign * c for v, c in _normalize_terms(L, w[::-1]).items()}


def antipode(A):
    """S(x_{i1}...x_{in}) = (-1)^n x_{in}...x_{i1}, re-normalized."""
    L = A.algebra
    out = {}
    for w, c in A.terms.items():
        _add_into(out, _antipode_word(L, w), c)
    return EnvElement(L, A.order, _truncate(out, A.order))


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
    of A; A |> 1 = counit(A).  All internal maps are {normal word: coeff}
    dictionaries truncated at the context's grade.
    """

    def __init__(self, algebra, product, order):
        _require_exact(algebra)
        if product.algebra.dim != algebra.dim:
            raise DimensionMismatch("product tensor does not match the algebra")
        self.algebra = algebra
        # the rows, not the product: the product keys this context in
        # _lift_contexts, and a strong reference would keep the entry alive
        self.rows = product.T_rows
        self.order = order
        self._memo = {}

    # -- dictionary plumbing ------------------------------------------------

    def _mul_words(self, w1, w2):
        key = ("m", w1, w2)
        hit = self._memo.get(key)
        if hit is None:
            hit = _truncate(_normalize_terms(self.algebra, w1 + w2), self.order)
            self._memo[key] = hit
        return hit

    # -- the triangle lift --------------------------------------------------

    def tri_letter(self, i, w):
        """x_i |> w for a normal word w."""
        if not w:
            return {}
        key = ("l", i, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        y, rest = w[0], w[1:]
        row = [(k, c) for j, k, c in self.rows[i] if j == y]
        if not rest:
            out = {(k,): c for k, c in row}
        else:
            out = {}
            for k, c in row:
                _add_into(out, self._mul_words((k,), rest), c)
            for ww, c in self.tri_letter(i, rest).items():
                _add_into(out, self._mul_words((y,), ww), c)
        out = _truncate(_nonzero(out), self.order)
        self._memo[key] = out
        return out

    def tri_word(self, A, w):
        """A |> w for normal words A, w."""
        if not A:
            return {w: 1} if len(w) <= self.order else {}
        if not w:
            return {}
        key = ("t", A, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = {}
        if len(w) == 1:
            x, rest = A[0], A[1:]
            for ww, c in self.tri_word(rest, w).items():
                _add_into(out, self.tri_letter(x, ww), c)
            for ww, c in self.tri_letter(x, rest).items():
                _add_into(out, self.tri_word(ww, w), -c)
        else:
            B, C = w[:1], w[1:]
            for left, right in _unshuffles(A):
                lval = self.tri_word(left, B)
                if not lval:
                    continue
                rval = self.tri_word(right, C)
                if not rval:
                    continue
                _add_into(out, _bilinear(self._mul_words, lval, rval))
        out = _truncate(_nonzero(out), self.order)
        self._memo[key] = out
        return out

    def tri_elem(self, tA, tB):
        out = _bilinear(self.tri_word, tA, tB)
        return _nonzero(out)

    # -- star product ---------------------------------------------------------

    def star_word(self, A, B):
        """A * B = sum A1 . (A2 |> B) over the coproduct of A."""
        key = ("s", A, B)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = {}
        for left, right in _unshuffles(A):
            for w, c in self.tri_word(right, B).items():
                _add_into(out, self._mul_words(left, w), c)
        out = _truncate(_nonzero(out), self.order)
        self._memo[key] = out
        return out

    def star_elem(self, tA, tB):
        out = _bilinear(self.star_word, tA, tB)
        return _nonzero(out)

    # -- star antipode ----------------------------------------------------------

    def star_antipode_word(self, w):
        """Solve the star antipode axiom: S(w) = -w - sum over proper
        nonempty position subsets of w_S * S(w_rest)."""
        if not w:
            return {(): 1}
        key = ("a", w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = {w: -1} if len(w) <= self.order else {}
        for left, right in _unshuffles(w):
            if left and right:
                inner = self.star_antipode_word(right)
                _add_into(out, self.star_elem({left: 1}, inner), -1)
        out = _truncate(_nonzero(out), self.order)
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


def triangle_lift(A, B, product):
    """The lifted product A |> B of two elements."""
    _check_pair(A, B)
    ctx = lifted(A.algebra, product, A.order)
    return EnvElement(A.algebra, A.order, ctx.tri_elem(A.terms, B.terms))


def star_mul(A, B, product):
    """A * B = sum A1 . (A2 |> B); associative with unit 1."""
    _check_pair(A, B)
    ctx = lifted(A.algebra, product, A.order)
    return EnvElement(A.algebra, A.order, ctx.star_elem(A.terms, B.terms))


def star_antipode(A, product):
    """The antipode of the star Hopf structure (recursively from its axiom)."""
    ctx = lifted(A.algebra, product, A.order)
    out = {}
    for w, c in A.terms.items():
        _add_into(out, ctx.star_antipode_word(w), c)
    return EnvElement(A.algebra, A.order, out)


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
            _add_into(plain, _normalize_terms(L, w + b), c * s)
        for w, s in ctx.star_antipode_word(a).items():
            _add_into(star, ctx.star_word(w, b), c * s)
    counit = _nonzero({(): A.counit()})
    DB = coproduct(B)
    failed = {
        "coassociativity": _nonzero(left) != _nonzero(right),
        "counit": _nonzero(lefts) != A.terms or _nonzero(rights) != A.terms,
        "antipode": _nonzero(_truncate(plain, order)) != counit,
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
    out = []
    for x in word:
        if isinstance(x, (int,)):
            out.append(L.basis(x))
        else:
            out.append(L.check_vector(x))
    return out


def phi(L, word, product, order):
    """Image of the word x_1 ... x_n under the unique algebra morphism
    sending letters to letters and the free product to the star product:
    phi(x_1 ... x_n) = x_1 * (x_2 * (... * x_n)).

    Letters may be basis indices or g-vectors; the input is a raw word (it
    is *not* normalized first).
    """
    ctx = lifted(L, product, order)
    acc = {(): 1}
    for v in reversed(_as_vector_letters(L, word)):
        acc = ctx.star_elem({(k,): c for k, c in enumerate(v) if c != 0}, acc)
    return EnvElement(L, order, acc)


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


def _block_vector(product, letters, block):
    idx = sorted(block)
    v = letters[idx[-1]]
    for i in reversed(idx[:-1]):
        v = product.apply(letters[i], v)
    return v


def _set_partitions(n):
    if n == 0:
        yield []
        return
    first, rest = 0, list(range(1, n))

    def rec(remaining):
        if not remaining:
            yield []
            return
        head, tail = remaining[0], remaining[1:]
        for sub in rec(tail):
            yield [[head]] + sub
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]

    yield from rec([first] + rest)


def derived_bracket_algebra(L, product):
    """The Lie algebra with bracket the star commutator
    [x,y] + x |> y - y |> x (validated)."""
    return algebra_from_bracket(L, lambda x, y: star_commutator(L, product, x, y))


def phi_inverse(L, word, product, order, bar=None):
    """Inverse of phi on a raw word, valued in the enveloping algebra of
    the star-commutator Lie algebra (available as the result's .algebra;
    pass `bar` to reuse one): subtract recursively the images of every
    coarser set partition from the plain product of the letters."""
    if bar is None:
        bar = derived_bracket_algebra(L, product)
    letters = _as_vector_letters(L, word)
    return _phi_inverse_letters(L, bar, letters, product, order)


def _phi_inverse_letters(L, bar, letters, product, order):
    n = len(letters)
    total = word_of_vectors(bar, order, letters)
    for part in _set_partitions(n):
        if len(part) == n:
            continue  # the all-singletons partition is the left side
        blocks = sorted(part, key=max)
        vectors = [_block_vector(product, letters, b) for b in blocks]
        total = total - _phi_inverse_letters(L, bar, vectors, product, order)
    return total


# ---------------------------------------------------------------------------
# the r-matrix linearization map F and the induced product identity
# ---------------------------------------------------------------------------


def _r_pm_legs(A, ctx):
    """(coefficient, R+ images of the left leg, R- images of the right leg)
    for every unshuffle of every word of A."""
    Rp, Rm = ctx.r_plus_minus()
    L = ctx.algebra
    for w, c in A.terms.items():
        for left, right in _unshuffles(w):
            yield (
                c,
                [Rp.apply(L.basis(i)) for i in left],
                [Rm.apply(L.basis(i)) for i in right],
            )


def F_map(A, ctx):
    """m . (id x S) . (R+ x R-) . Delta applied wordwise: unshuffle each
    word, push R+ through the left leg and R- through the right leg
    letter-wise, take the antipode of the right image, and multiply."""
    L = ctx.algebra
    order = A.order
    total = EnvElement(L, order, {})
    for c, left, right in _r_pm_legs(A, ctx):
        piece = env_mul(
            word_of_vectors(L, order, left),
            antipode(word_of_vectors(L, order, right)),
        )
        total = total + piece.scale(c)
    return total


def sts_product_check(a, B, ctx, product):
    """Verify F(a) * B = sum R+(a1) . B . S(R-(a2)) term by term.

    a is a word-form element read over the derived algebra; B lives in the
    base enveloping algebra; product is the g-level tensor the star product
    is built from.  Returns a report with the difference element.
    """
    L = ctx.algebra
    order = B.order
    lhs = star_mul(F_map(a, ctx), B, product)
    rhs = EnvElement(L, order, {})
    for c, left, right in _r_pm_legs(a, ctx):
        piece = env_mul(
            env_mul(word_of_vectors(L, order, left), B),
            antipode(word_of_vectors(L, order, right)),
        )
        rhs = rhs + piece.scale(c)
    diff = lhs - rhs
    return {"ok": diff.is_zero(), "difference": diff, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# exponential / logarithm (plain and star)
# ---------------------------------------------------------------------------


def _exp_series(A, one, mul, n_terms):
    """sum_{n <= n_terms} A^n / n! with the powers taken by mul, stopping at
    the first power that vanishes."""
    acc = power = one
    for n in range(1, n_terms + 1):
        power = mul(power, A)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, factorial(n)))
    return acc


def _log_series(B, one, mul, n_terms):
    """sum_{1 <= n <= n_terms} (-1)^(n-1) B^n / n, the logarithm of one + B,
    with the powers taken by mul."""
    acc = one.scale(0)
    power = one
    for n in range(1, n_terms + 1):
        power = mul(power, B)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (n - 1), n))
    return acc


def exp(A, terms=None):
    """Truncated exponential sum_{n<=terms} A^n / n! (terms defaults to the
    grade N).  Requires counit(A) = 0.

    Note on truncation: words the normalization shortens can receive
    contributions from arbitrarily high powers, so the cut is exact only
    when such feedback terminates (graded situations, nilpotent letters
    with a deepened `terms`, single basis letters)."""
    if A.counit() != 0:
        raise NotInAugmentationIdeal("exp needs a counit-free element")
    n_terms = A.order if terms is None else int(terms)
    return _exp_series(A, unit(A.algebra, A.order), env_mul, n_terms)


def log(A, terms=None):
    """Truncated logarithm of 1 + (A - 1); requires counit(A) = 1."""
    if A.counit() != 1:
        raise NotUnitNormalized("log needs an element with unit coefficient 1")
    n_terms = A.order if terms is None else int(terms)
    one = unit(A.algebra, A.order)
    return _log_series(A - one, one, env_mul, n_terms)


def exp_star(A, product, terms=None):
    """Exponential with star powers."""
    if A.counit() != 0:
        raise NotInAugmentationIdeal("exp_star needs a counit-free element")
    n_terms = A.order if terms is None else int(terms)
    return _exp_series(
        A, unit(A.algebra, A.order), lambda P, Q: star_mul(P, Q, product), n_terms
    )


def log_star(A, product, terms=None):
    """Logarithm with star powers."""
    if A.counit() != 1:
        raise NotUnitNormalized("log_star needs an element with unit coefficient 1")
    n_terms = A.order if terms is None else int(terms)
    one = unit(A.algebra, A.order)
    return _log_series(A - one, one, lambda P, Q: star_mul(P, Q, product), n_terms)


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

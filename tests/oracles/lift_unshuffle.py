"""The lift of a bilinear g-product to words as it was computed before every
letter acted through the one derivation per g-vector, kept only to
cross-check ``postlie.enveloping.LiftedProduct`` and the functions built on
it:

- ``UnshuffleLift.tri_word``: a letter acts on a letter by the product
  tensor itself, read off its row; a longer word x.A' acts on a letter by
  x |> (A' |> y) - (x |> A') |> y; any word A acts on a word y.w' of two
  or more letters by the unshuffle rule sum (A1 |> y)(A2 |> w') over the
  coproduct of A.  The package acts with a letter only through its
  derivation on words, and never splits A.
- ``star_word``, ``star_antipode_word`` and ``phi``: the star product
  sum A1.(A2 |> B), its antipode from the antipode axiom, and the letter
  map x_1 * (x_2 * (... * x_n)), all over that tri_word.

On a post-Lie product the two recursions are the same map, so the package
must agree with this one in value and in type.
"""

from functools import partial

from postlie.enveloping import _add_into, _bilinear, _nonzero, _weighted_unshuffles, _word_mul


class UnshuffleLift:
    """The word recursions of one (algebra, product, grade), each memoized
    on this object alone."""

    def __init__(self, algebra, product, order):
        self.rows = product.T_rows
        self.order = order
        self.mul = partial(_word_mul, algebra, order)
        self._memo = {}

    def tri_word(self, A, w):
        """A |> w for normal words A, w."""
        if not A:
            return {w: 1} if len(w) <= self.order else {}
        if not w or not self.rows[A[0]]:
            return {}
        key = ("t", A, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = {}
        if len(w) == 1:
            x, rest = A[0], A[1:]
            if not rest:
                out = {(k,): c for j, k, c in self.rows[x] if j == w[0]}
            else:
                for ww, c in self.tri_word(rest, w).items():
                    _add_into(out, self.tri_word((x,), ww), c)
                for ww, c in self.tri_word((x,), rest).items():
                    _add_into(out, self.tri_word(ww, w), -c)
        else:
            B, C = w[:1], w[1:]
            for left, right, k in _weighted_unshuffles(A):
                lval, rval = self.tri_word(left, B), self.tri_word(right, C)
                _add_into(out, _bilinear(self.mul, lval, rval), k)
        out = _nonzero(out)
        self._memo[key] = out
        return out

    def star_word(self, A, B):
        """A * B = sum A1.(A2 |> B) over the coproduct of A."""
        out = {}
        for left, right, k in _weighted_unshuffles(A):
            _add_into(out, _bilinear(self.mul, {left: 1}, self.tri_word(right, B)), k)
        return _nonzero(out)

    def star_antipode_word(self, w):
        """S(w) = -w - sum over proper nonempty position subsets of
        w_S * S(w_rest)."""
        if not w:
            return {(): 1}
        out = {w: -1} if len(w) <= self.order else {}
        for left, right, k in _weighted_unshuffles(w):
            if left and right:
                inner = self.star_antipode_word(right)
                _add_into(out, _bilinear(self.star_word, {left: 1}, inner), -k)
        return _nonzero(out)

    def phi(self, vectors):
        """x_1 * (x_2 * (... * x_n)) for g-vectors x_i, at this grade."""
        acc = {(): 1}
        for v in reversed(vectors):
            acc = _bilinear(self.star_word, {(k,): c for k, c in enumerate(v) if c != 0}, acc)
        return acc

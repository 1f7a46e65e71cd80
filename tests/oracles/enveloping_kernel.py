"""The PBW normal form and the tensor-square product as they were before the
bracket index, the shared entries and the length pruning, kept only to
cross-check ``postlie.enveloping``:

- ``_normalize_terms``: rewrites the first adjacent inversion by scanning
  the row ``C_rows[b]`` for [x_b, x_a], and stores one new, filtered dict
  per raw word, a copy also when the two letters commute.  It memoizes on
  ``L._pbw_cache``, so call it on a fresh algebra, never on one the package
  has normalized on.
- ``_tensor_square_mul``: multiplies the whole right-leg product of every
  pair of left legs and truncates each word pair by its total length.

Both are exact, so the package must agree with them in value and in type.
"""

from postlie.enveloping import TensorSquareElement, _bilinear, _nonzero, _tensor_terms


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
            swapped = word[:i] + bytes((a, b)) + word[i + 2 :]
            for w, c in _normalize_terms(L, swapped).items():
                out[w] = out.get(w, 0) + c
            for j, k, ck in L.C_rows[b]:
                if j == a:
                    shorter = word[:i] + bytes((k,)) + word[i + 2 :]
                    for w, c in _normalize_terms(L, shorter).items():
                        out[w] = out.get(w, 0) + ck * c
            out = _nonzero(out)
            cache[word] = out
            return out
    cache[word] = {word: 1}
    return cache[word]


def _tensor_square_mul(T1, T2, word_product):
    """(a x b)(c x d) = ac x bd for a product of words, truncated at total
    length > order: both operands grouped by left leg, one product ac per
    pair of left legs, times the product of the right legs beside them."""
    order = T1.order
    groups1, groups2 = {}, {}
    for terms, groups in ((T1.terms, groups1), (T2.terms, groups2)):
        for (w1, w2), v in terms.items():
            groups.setdefault(w1, {})[w2] = v
    out = {}
    for a, rights1 in groups1.items():
        for c, rights2 in groups2.items():
            left = word_product(a, c)
            if left:
                _tensor_terms(out, left, _bilinear(word_product, rights1, rights2), order)
    return TensorSquareElement(T1.algebra, order, out)

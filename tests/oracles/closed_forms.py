"""Closed-form second evaluations of five maps the package computes
another way, kept only to cross-check them:

- ``phi_partition``: the letter map phi by its set-partition formula
  (the package multiplies letters into a star product);
- ``F_map_explicit``: the linearization map F by its signed closed form
  (the package composes coproduct, R+ x R-, antipode and product);
- ``r_bracket_unhalved``: the R-bracket in its un-halved R+ form, equal to
  the package's ([Rx,y] + [x,Ry]) / 2 when (R, theta = 1) solves the
  modified Yang-Baxter equation;
- ``unshuffles``: the unshuffles of a word over all 2^n position subsets,
  one pair per subset (the package yields each distinct pair of a normal
  word once, with the number of subsets that give it as its weight);
- ``prelie_magnus_fixed_point``: the pre-Lie Magnus expansion by its
  fixed-point equation chi = sum_k (b_k/k!) l_chi^k (xt) (the package
  solves the post-Lie Magnus ODE, whose abelian-bracket case it is).

``phi_partition`` sums over ``set_partitions`` and ``F_map_explicit``
splits words with ``unshuffles``; what each evaluates independently is the
closed formula itself.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from postlie.enveloping import EnvElement, word_of_vectors
from postlie.liealg import LinearEndo, bracket, vsub
from postlie.magnus import bernoulli


def unshuffles(word):
    """The (left, right) legs of every unshuffle of word: the letters at a
    position subset and at its complement, each in word order, subsets taken
    by size."""
    n = len(word)
    for k in range(n + 1):
        for S in combinations(range(n), k):
            yield (
                tuple(word[i] for i in S),
                tuple(word[i] for i in range(n) if i not in S),
            )


def set_partitions(n):
    """The set partitions of 0..n-1, blocks ascending: each partition of
    1..n-1 (those of 0..n-2 shifted) with 0 as a new first block, then with
    0 put in front of each block in turn."""
    if n == 0:
        yield []
        return
    for sub in set_partitions(n - 1):
        sub = [[i + 1 for i in block] for block in sub]
        yield [[0]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[0] + sub[i]] + sub[i + 1 :]


def _block_vector(product, letters, block):
    """The left-nested product of the letters at the block's positions,
    taken in increasing order (block maximum last)."""
    idx = sorted(block)
    v = letters[idx[-1]]
    for i in reversed(idx[:-1]):
        v = product.apply(letters[i], v)
    return v


def phi_partition(L, word, product, order):
    """phi(x_1 ... x_n) as one summand per set partition of the letters:
    each block contributes the left-nested product on its increasingly
    ordered letters (block maximum last), and the blocks are multiplied in
    ascending order of their maxima.  Letters are basis indices or
    g-vectors."""
    letters = [L.basis(x) if isinstance(x, int) else L.check_vector(x) for x in word]
    total = EnvElement(L, order, {})
    for part in set_partitions(len(letters)):
        blocks = sorted(part, key=max)
        vectors = [_block_vector(product, letters, b) for b in blocks]
        total = total + word_of_vectors(L, order, vectors)
    return total


def F_map_explicit(A, ctx):
    """F(A) as, for each splitting of each word's positions, the R+ letters
    in order times the R- letters in reversed order, with sign
    (-1)^(number of R- letters)."""
    L = ctx.algebra
    Rp, Rm = ctx.r_plus_minus()
    total = EnvElement(L, A.order, {})
    for w, c in A.terms.items():
        for left, right in unshuffles(w):
            letters = [Rp.apply(L.basis(i)) for i in left]
            letters += [Rm.apply(L.basis(i)) for i in reversed(right)]
            sign = -1 if len(right) % 2 else 1
            total = total + word_of_vectors(L, A.order, letters).scale(sign * c)
    return total


def r_bracket_unhalved(L, R, x, y):
    """[R+ x, y] - [R+ y, x] - [x, y] with R+ = (R + id) / 2."""
    Rp = (R + LinearEndo.identity(L.dim)).scale(L.ratio(1, 2))
    out = vsub(bracket(L, Rp.apply(x), y), bracket(L, Rp.apply(y), x))
    return vsub(out, bracket(L, x, y))


def prelie_magnus_fixed_point(L, x, product, order):
    """chi_0..chi_order, Fraction vectors, of the chi solving
    chi = sum_k (b_k/k!) l_chi^k (xt) with l_a(b) = product.apply(a, b), order
    by order: l_chi^k (xt) starts at degree k + 1, so its degree m reads
    only chi_1..chi_{m-1}.  powers[k][d] is degree d of l_chi^k (xt)."""
    zero = (Fraction(0),) * L.dim
    chi = [zero, tuple(Fraction(c) for c in x)]
    powers = [[zero, chi[1]]] + [[zero, zero] for _ in range(1, order)]
    coeffs = [b / factorial(k) for k, b in enumerate(bernoulli(order))]
    for m in range(2, order + 1):
        powers[0].append(zero)
        for k in range(1, order):
            terms = [product.apply(chi[i], powers[k - 1][m - i]) for i in range(1, m)]
            powers[k].append(tuple(map(sum, zip(zero, *terms))))
        terms = [[coeffs[k] * c for c in powers[k][m]] for k in range(order)]
        chi.append(tuple(map(sum, zip(zero, *terms))))
    return chi

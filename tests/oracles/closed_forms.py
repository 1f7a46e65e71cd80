"""Closed-form second evaluations of three maps the package computes
another way, kept only to cross-check them:

- ``phi_partition``: the letter map phi by its set-partition formula
  (the package multiplies letters into a star product);
- ``F_map_explicit``: the linearization map F by its signed closed form
  (the package composes coproduct, R+ x R-, antipode and product);
- ``r_bracket_unhalved``: the R-bracket in its un-halved R+ form, equal to
  the package's ([Rx,y] + [x,Ry]) / 2 when (R, theta = 1) solves the
  modified Yang-Baxter equation.

They reuse the package's set-partition and unshuffle enumerations; what
they evaluate independently is the closed formula itself.
"""

from postlie.enveloping import (
    EnvElement,
    _block_vector,
    _r_pm_legs,
    _set_partitions,
    word_of_vectors,
)
from postlie.liealg import LinearEndo, bracket, vsub


def phi_partition(L, word, product, order):
    """phi(x_1 ... x_n) as one summand per set partition of the letters:
    each block contributes the left-nested product on its increasingly
    ordered letters (block maximum last), and the blocks are multiplied in
    ascending order of their maxima.  Letters are basis indices or
    g-vectors."""
    letters = [L.basis(x) if isinstance(x, int) else L.check_vector(x) for x in word]
    total = EnvElement(L, order, {})
    for part in _set_partitions(len(letters)):
        blocks = sorted(part, key=max)
        vectors = [_block_vector(product, letters, b) for b in blocks]
        total = total + word_of_vectors(L, order, vectors)
    return total


def F_map_explicit(A, ctx):
    """F(A) as, for each splitting of each word's positions, the R+ letters
    in order times the R- letters in reversed order, with sign
    (-1)^(number of R- letters)."""
    L = ctx.algebra
    order = A.order
    total = EnvElement(L, order, {})
    for c, left, right in _r_pm_legs(A, ctx):
        sign = -1 if len(right) % 2 else 1
        piece = word_of_vectors(L, order, left + list(reversed(right)))
        total = total + piece.scale(sign * c)
    return total


def r_bracket_unhalved(L, R, x, y):
    """[R+ x, y] - [R+ y, x] - [x, y] with R+ = (R + id) / 2."""
    Rp = (R + LinearEndo.identity(L.dim)).scale(L.ratio(1, 2))
    out = vsub(bracket(L, Rp.apply(x), y), bracket(L, Rp.apply(y), x))
    return vsub(out, bracket(L, x, y))

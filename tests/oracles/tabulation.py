"""Dense tabulation: a tensor read off a bilinear function of basis vectors.

The package reads every rank-3 tensor off sparse entries or off the rows of
other tensors; these evaluate a callable on every pair of basis vectors
instead, and are the reference the derived structures of the products
module are compared with:

- ``tabulate``: the entries (i, j, k, c) of f(x_i, x_j) = sum_k c x_k;
- ``algebra_from_bracket``: the validated algebra whose bracket of basis
  vectors i < j is f;
- ``product_from_function``: the product whose value on basis vectors is f.
"""

from itertools import product as index_product

from postlie.liealg import new_lie_algebra
from postlie.products import BilinearProduct


def tabulate(L, f, pairs):
    """The entries (i, j, k, c) of f(x_i, x_j) = sum_k c x_k over the index
    pairs (i, j), zero values left out."""
    return [
        (i, j, k, c)
        for i, j in pairs
        for k, c in enumerate(f(L.basis(i), L.basis(j)))
        if c != 0
    ]


def algebra_from_bracket(L, f):
    """The validated algebra on L's basis, labels and mode whose bracket of
    basis vectors is f, tabulated over the basis pairs i < j."""
    pairs = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    return new_lie_algebra(L.dim, list(L.labels), tabulate(L, f, pairs), None, L.mode)


def product_from_function(algebra, f):
    """Tabulate f(x_i, x_j) over all basis pairs into a product."""
    pairs = index_product(range(algebra.dim), repeat=2)
    return BilinearProduct(algebra, tabulate(algebra, f, pairs))

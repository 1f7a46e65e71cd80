"""Post-Lie and pre-Lie structures given by explicit bilinear product tensors.

A BilinearProduct stores x_i o x_j = sum_k T[i][j][k] x_k over a fixed
algebra as the rows of the nonzero entries of T; a PostLieStructure pairs such a product with a Lie bracket and an
explicit handedness.  Axiom checks run over basis triples (bilinearity
extends them), and the derived bracket / right-conversion / Lie-admissible
companion follow the left-handed conventions, with right-handed structures
handled by their own axiom set.
"""

from __future__ import annotations

from itertools import product as index_product

from . import scalars
from .errors import DimensionMismatch, InvalidInput
from .liealg import (
    algebra_from_bracket,
    bracket,
    contract,
    defect_scan,
    nonzero_rows,
    vadd,
    vscale,
    vsub,
)

LEFT = "left"
RIGHT = "right"


class BilinearProduct:
    """A bilinear product as a rank-3 tensor T over an algebra's basis, given
    densely and stored as T_rows = nonzero_rows(T)."""

    def __init__(self, algebra, T):
        n = algebra.dim
        mode = algebra.mode
        native = scalars.NATIVE[mode]
        # a row of its mode's own types needs no coercion, so a product
        # built from coerced values makes no call per entry
        T = tuple(
            tuple(
                row if native.issuperset(map(type, row))
                else tuple(scalars.coerce(v, mode) for v in row)
                for row in map(tuple, plane)
            )
            for plane in T
        )
        if len(T) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in T
        ):
            raise DimensionMismatch("product tensor must be %d^3" % (n,))
        self.algebra = algebra
        self.T_rows = nonzero_rows(T)

    @classmethod
    def from_function(cls, algebra, f):
        """Tabulate f(x_i, x_j) over the basis into a tensor."""
        n = algebra.dim
        return cls(
            algebra,
            tuple(
                tuple(tuple(f(algebra.basis(i), algebra.basis(j))) for j in range(n))
                for i in range(n)
            ),
        )

    def apply(self, x, y):
        L = self.algebra
        return contract(self.T_rows, L.check_vector(x), L.check_vector(y))

    __call__ = apply

    def __repr__(self):
        return "BilinearProduct(dim=%d)" % (self.algebra.dim,)


def from_rmatrix(ctx, sign):
    """The product x |>_sign y = [R_sign x, y] as the tensor
    T[i] = sum_a R_sign[a][i] C[a], composed from the rows of C.  Each entry
    adds its terms in increasing a, as the contraction of R_sign e_i with
    e_j does, so T[i][j] equals that bracket to the last bit."""
    L = ctx.algebra
    Rs = ctx.r_sign(sign).matrix
    zero = scalars.coerce(0, L.mode)
    T = [[[zero] * L.dim for _ in range(L.dim)] for _ in range(L.dim)]
    for i, plane in enumerate(T):
        for a, row in enumerate(L.C_rows):
            r = Rs[a][i]
            if r != 0:
                for j, k, c in row:
                    plane[j][k] += r * c
    return BilinearProduct(L, T)


def star_commutator(L, product, x, y):
    """[x,y] + x o y - y o x: the bracket of the Lie algebra a post-Lie
    product derives from the bracket of L, contracted on the rows of both.
    Unchecked, like contract: x and y must be vectors of L in its mode."""
    T = product.T_rows
    return vadd(contract(L.C_rows, x, y), vsub(contract(T, x, y), contract(T, y, x)))


def _associator(prod, x, y, z):
    """(x o y) o z - x o (y o z)."""
    return vsub(prod.apply(prod.apply(x, y), z), prod.apply(x, prod.apply(y, z)))


def check_postlie(product, bracket_algebra, handedness):
    """Evaluate both post-Lie axioms on all basis triples.

    Left axioms:   x o [y,z] = [x o y, z] + [y, x o z]
                   [x,y] o z = a(x,y,z) - a(y,x,z)
    Right axioms:  x o [y,z] = [x o y, z] + [y, x o z]
                   [x,y] o z = a(y,x,z) - a(x,y,z)
    where a is the associator of o.  Returns a report with the worst defect
    per axiom instead of raising.
    """
    if handedness not in (LEFT, RIGHT):
        raise InvalidInput("handedness must be 'left' or 'right'")
    L = bracket_algebra
    if product.algebra.dim != L.dim or product.algebra.mode != L.mode:
        raise DimensionMismatch("product tensor and bracket algebra disagree")

    def derivation_defect(x, y, z):
        return vsub(
            product.apply(x, bracket(L, y, z)),
            vadd(bracket(L, product.apply(x, y), z), bracket(L, y, product.apply(x, z))),
        )

    def bracket_defect(x, y, z):
        p, q = (x, y) if handedness == LEFT else (y, x)
        rhs = vsub(_associator(product, p, q, z), _associator(product, q, p, z))
        return vsub(product.apply(bracket(L, x, y), z), rhs)

    derivation = _triple_report(L, derivation_defect)
    bracket_axiom = _triple_report(L, bracket_defect)
    return {
        "ok": derivation["ok"] and bracket_axiom["ok"],
        "derivation_axiom": derivation,
        "bracket_axiom": bracket_axiom,
    }


def _triple_report(L, defect):
    """{ok, worst_defect_norm, worst_triple} of defect(x_i, x_j, x_k) over all
    basis triples (i, j, k)."""
    b = L.basis
    ok, worst, where = defect_scan(
        L, lambda i, j, k: defect(b(i), b(j), b(k)), index_product(range(L.dim), repeat=3)
    )
    return {"ok": ok, "worst_defect_norm": worst, "worst_triple": where}


class PostLieStructure:
    """A product tensor plus bracket algebra with explicit handedness.

    Validated on construction: the stated axioms must hold on all basis
    triples (pass validate=False only when the caller just checked them).
    """

    def __init__(self, product, bracket_algebra, handedness, validate=True):
        if handedness not in (LEFT, RIGHT):
            raise InvalidInput("handedness must be 'left' or 'right'")
        if product.algebra.dim != bracket_algebra.dim:
            raise DimensionMismatch("product tensor and bracket algebra disagree")
        self.product = product
        self.bracket_algebra = bracket_algebra
        self.handedness = handedness
        if validate:
            report = check_postlie(product, bracket_algebra, handedness)
            if not report["ok"]:
                raise InvalidInput(
                    "the %s post-Lie axioms fail (derivation axiom ok=%s, "
                    "bracket axiom ok=%s)"
                    % (
                        handedness,
                        report["derivation_axiom"]["ok"],
                        report["bracket_axiom"]["ok"],
                    )
                )

    def __repr__(self):
        return "PostLieStructure(dim=%d, handedness=%s)" % (
            self.bracket_algebra.dim,
            self.handedness,
        )


def derived_bracket(pl):
    """The bracket <<x,y>> = x o y - y o x - [x,y] of a left structure,
    returned as a validated LieAlgebra."""
    if pl.handedness != LEFT:
        raise InvalidInput("derived_bracket is defined for left structures; convert first")
    L = pl.bracket_algebra
    return algebra_from_bracket(
        L,
        lambda x, y: vsub(
            vsub(pl.product.apply(x, y), pl.product.apply(y, x)), bracket(L, x, y)
        ),
    )


def to_right(pl):
    """Convert a left structure to the right structure x o' y = x o y - [x,y]."""
    if pl.handedness != LEFT:
        raise InvalidInput("to_right expects a left structure")
    L = pl.bracket_algebra
    prod = BilinearProduct.from_function(
        pl.product.algebra, lambda x, y: vsub(pl.product.apply(x, y), bracket(L, x, y))
    )
    return PostLieStructure(prod, L, RIGHT, validate=False)


def lie_admissible(pl):
    """The companion product x > y = x o y + [x,y]/2.

    Its antisymmetrization is x o y - y o x + [x,y].  For a right-handed
    structure that expression is the derived Lie bracket (for the product
    [R_minus x, y] of an r-matrix it recovers the R-bracket, and the
    companion itself collapses to [Rx/2, y]); for a left-handed structure it
    exceeds the derived bracket by 2[x,y] and need not satisfy Jacobi.  Both
    handednesses are accepted since the right case is the useful one for
    r-matrix products while zero-product structures are naturally left.
    """
    L = pl.bracket_algebra
    half = L.ratio(1, 2)
    return BilinearProduct.from_function(
        pl.product.algebra,
        lambda x, y: vadd(pl.product.apply(x, y), vscale(half, bracket(L, x, y))),
    )


def check_prelie(product):
    """Left pre-Lie identity a(x,y,z) = a(y,x,z) on all basis triples."""
    return _triple_report(
        product.algebra,
        lambda x, y, z: vsub(_associator(product, x, y, z), _associator(product, y, x, z)),
    )


# ---------------------------------------------------------------------------
# JSON interchange (same sparse shape as the structure-constant files)
# ---------------------------------------------------------------------------


def product_to_json(product):
    entries = [
        [i, j, k, scalars.to_text(v)]
        for i, row in enumerate(product.T_rows)
        for j, k, v in row
    ]
    return {"dim": product.algebra.dim, "product": entries}


def product_from_json(L, data):
    try:
        n = int(data["dim"])
        entries = [(int(i), int(j), int(k), v) for (i, j, k, v) in data["product"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("malformed product JSON: %s" % (exc,))
    if n != L.dim:
        raise DimensionMismatch("product file has dim %d, algebra has %d" % (n, L.dim))
    T = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in entries:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise DimensionMismatch("product entry out of range")
        T[i][j][k] = scalars.coerce(v, L.mode)
    return BilinearProduct(L, T)


def load_product(L, path):
    return product_from_json(L, scalars.read_json(path))

"""Post-Lie and pre-Lie structures given by explicit bilinear product tensors.

A BilinearProduct is given x_i o x_j = sum_k T[i][j][k] x_k over a fixed
algebra as sparse entries (i, j, k, T[i][j][k]), as the structure constants
of an algebra are, and stores only the rows liealg.tensor_rows builds from
them; it is post-Lie over the bracket of that same algebra.  Axiom checks
run over basis triples (bilinearity extends them) for an explicit
handedness.  The derived bracket and the right-conversion follow the
left-handed conventions and check the left axioms first; right-handed
products have their own axiom set.
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
    tabulate,
    tensor_rows,
    vadd,
    vscale,
    vsub,
)

LEFT = "left"
RIGHT = "right"


class BilinearProduct:
    """A bilinear product as a rank-3 tensor T over an algebra's basis, given
    as entries (i, j, k, value), repeated (i, j, k) summed, and stored as
    T_rows = tensor_rows(algebra.dim, entries, algebra.mode)."""

    def __init__(self, algebra, entries):
        self.algebra = algebra
        self.T_rows = tensor_rows(algebra.dim, entries, algebra.mode)

    @classmethod
    def from_function(cls, algebra, f):
        """Tabulate f(x_i, x_j) over all basis pairs into a tensor."""
        pairs = index_product(range(algebra.dim), repeat=2)
        return cls(algebra, tabulate(algebra, f, pairs))

    def apply(self, x, y):
        L = self.algebra
        return contract(self.T_rows, L.check_vector(x), L.check_vector(y))

    __call__ = apply

    def __repr__(self):
        return "BilinearProduct(dim=%d)" % (self.algebra.dim,)


def from_rmatrix(ctx, sign):
    """The product x |>_sign y = [R_sign x, y] as the tensor
    T[i] = sum_a R_sign[a][i] C[a], composed from the rows of C and the
    nonzero entries of R_sign.  Its entries come in increasing a, so each
    T[i][j][k] adds its terms in the order the contraction of R_sign e_i
    with e_j does and equals that bracket to the last bit."""
    L = ctx.algebra
    entries = (
        (i, j, k, r * c)
        for i, column in enumerate(ctx.r_sign_columns(sign))
        for a, r in column
        for j, k, c in L.C_rows[a]
    )
    return BilinearProduct(L, entries)


def star_commutator(C_rows, T_rows, x, y):
    """[x,y] + x o y - y o x: the bracket of the Lie algebra a post-Lie
    product derives from the bracket, contracted on the rows of both (the
    structure constants and the product).  Unchecked, like contract."""
    return vadd(contract(C_rows, x, y), vsub(contract(T_rows, x, y), contract(T_rows, y, x)))


def _associator(prod, x, y, z):
    """(x o y) o z - x o (y o z)."""
    return vsub(prod.apply(prod.apply(x, y), z), prod.apply(x, prod.apply(y, z)))


def check_postlie(product, handedness):
    """Evaluate both post-Lie axioms on all basis triples, with the bracket
    of product.algebra.

    Left axioms:   x o [y,z] = [x o y, z] + [y, x o z]
                   [x,y] o z = a(x,y,z) - a(y,x,z)
    Right axioms:  x o [y,z] = [x o y, z] + [y, x o z]
                   [x,y] o z = a(y,x,z) - a(x,y,z)
    where a is the associator of o.  Returns a report with the worst defect
    per axiom instead of raising.
    """
    if handedness not in (LEFT, RIGHT):
        raise InvalidInput("handedness must be 'left' or 'right'")
    L = product.algebra

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


def _require_left(product, name):
    """Raise InvalidInput unless the left post-Lie axioms hold."""
    report = check_postlie(product, LEFT)
    if not report["ok"]:
        raise InvalidInput(
            "%s needs a left post-Lie product (derivation axiom ok=%s, "
            "bracket axiom ok=%s)"
            % (name, report["derivation_axiom"]["ok"], report["bracket_axiom"]["ok"])
        )


def derived_bracket(product):
    """The bracket <<x,y>> = x o y - y o x - [x,y] of a left post-Lie
    product, returned as a validated LieAlgebra."""
    _require_left(product, "derived_bracket")
    L = product.algebra
    return algebra_from_bracket(
        L, lambda x, y: vsub(vsub(product.apply(x, y), product.apply(y, x)), bracket(L, x, y))
    )


def to_right(product):
    """Convert a left post-Lie product to the right post-Lie product
    x o' y = x o y - [x,y]."""
    _require_left(product, "to_right")
    L = product.algebra
    return BilinearProduct.from_function(
        L, lambda x, y: vsub(product.apply(x, y), bracket(L, x, y))
    )


def lie_admissible(product):
    """The companion product x > y = x o y + [x,y]/2.

    Its antisymmetrization is x o y - y o x + [x,y].  For a right-handed
    product that expression is the derived Lie bracket (for the product
    [R_minus x, y] of an r-matrix it recovers the R-bracket, and the
    companion itself collapses to [Rx/2, y]); for a left-handed product it
    exceeds the derived bracket by 2[x,y] and need not satisfy Jacobi.  Both
    handednesses are accepted since the right case is the useful one for
    r-matrix products while zero products are naturally left.
    """
    L = product.algebra
    half = L.ratio(1, 2)
    return BilinearProduct.from_function(
        L, lambda x, y: vadd(product.apply(x, y), vscale(half, bracket(L, x, y)))
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
    return BilinearProduct(L, entries)


def load_product(L, path):
    return scalars.read_json(path, lambda data: product_from_json(L, data))

"""Post-Lie and pre-Lie structures given by explicit bilinear product tensors.

A BilinearProduct is given x_i o x_j = sum_k T[i][j][k] x_k over a fixed
algebra as sparse entries (i, j, k, T[i][j][k]), as the structure constants
of an algebra are, and stores only the rows liealg.tensor_rows builds from
them; it is post-Lie over the bracket of that same algebra.  Axiom checks
run over basis triples (bilinearity extends them) for an explicit
handedness.  The structures a product derives are linear in the rows of C
and T and are read off them: the Lie algebra of the star commutator
[x,y] + x o y - y o x of a right post-Lie product, the right-conversion
x o y - [x,y] of a left one and the companion x o y + [x,y]/2.
"""

from __future__ import annotations

from itertools import chain, product as index_product

from . import scalars
from .errors import DimensionMismatch, InvalidInput, JacobiViolation
from .liealg import (
    _entries,
    _index,
    bracket,
    contract,
    defect_scan,
    new_lie_algebra,
    tensor_rows,
    vadd,
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


def derived_algebra(product):
    """The validated Lie algebra of the star commutator [x,y] + x o y - y o x,
    its entries i < j read off the rows of C and T as c + (t - t'),
    t' = T[j][i][k], added as star_commutator adds them.  A product whose star
    commutator fails Jacobi is not right post-Lie: InvalidInput names the triple."""
    L = product.algebra
    C = {(i, j, k): c for i, j, k, c in _entries(L.C_rows) if i < j}
    T = {(i, j, k): t for i, j, k, t in _entries(product.T_rows)}
    entries = [(i, j, k, C.get((i, j, k), 0) + (T.get((i, j, k), 0) - T.get((j, i, k), 0)))
               for i, j, k in C.keys() | {(min(i, j), max(i, j), k) for i, j, k in T if i != j}]
    try:
        return new_lie_algebra(L.dim, L.labels, entries, None, L.mode)
    except JacobiViolation as exc:
        raise InvalidInput(
            "the product is not right post-Lie (for an r-matrix, [R_minus x, y] is the "
            "right-handed one): in its star commutator [x,y] + x o y - y o x, %s" % exc
        ) from exc


def _plus_bracket(product, s):
    """x o y + s[x,y] from the entries of T, then of s C: tensor_rows sums each
    to t + s c, as the pointwise sum adds it."""
    L = product.algebra
    C = ((i, j, k, s * c) for i, j, k, c in _entries(L.C_rows))
    return BilinearProduct(L, chain(_entries(product.T_rows), C))


def to_right(product):
    """Convert a left post-Lie product to the right post-Lie product
    x o' y = x o y - [x,y]."""
    report = check_postlie(product, LEFT)
    if not report["ok"]:
        raise InvalidInput(
            "to_right needs a left post-Lie product (derivation axiom ok=%s, bracket axiom "
            "ok=%s)" % (report["derivation_axiom"]["ok"], report["bracket_axiom"]["ok"])
        )
    return _plus_bracket(product, -1)


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
    return _plus_bracket(product, product.algebra.ratio(1, 2))


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
    entries = [[i, j, k, scalars.to_text(v)] for i, j, k, v in _entries(product.T_rows)]
    return {"dim": product.algebra.dim, "product": entries}


def product_from_json(L, data):
    try:
        n = _index(data["dim"], "dim")
        entries = [(_index(i, e), _index(j, e), _index(k, e), v)
                   for e in data["product"] for i, j, k, v in [e]]
    except (KeyError, TypeError, ValueError, InvalidInput) as exc:
        raise InvalidInput("malformed product JSON: %s" % (exc,))
    if n != L.dim:
        raise DimensionMismatch("product file has dim %d, algebra has %d" % (n, L.dim))
    return BilinearProduct(L, entries)


def load_product(L, path):
    return scalars.read_json(path, lambda data: product_from_json(L, data))

"""Post-Lie and pre-Lie structures given by explicit bilinear product tensors.

A BilinearProduct stores x_i o x_j = sum_k T[i][j][k] x_k over a fixed
algebra; a PostLieStructure pairs such a product with a Lie bracket and an
explicit handedness.  Axiom checks run over basis triples (bilinearity
extends them), and the derived bracket / right-conversion / Lie-admissible
companion follow the left-handed conventions, with right-handed structures
handled by their own axiom set.
"""

from __future__ import annotations

import json

from . import scalars
from .errors import DimensionMismatch, InvalidInput
from .liealg import algebra_from_bracket, bracket, contract, nonzero_rows, vadd, vsub

LEFT = "left"
RIGHT = "right"


class BilinearProduct:
    """A bilinear product as a rank-3 tensor over an algebra's basis."""

    def __init__(self, algebra, T):
        n = algebra.dim
        T = tuple(
            tuple(
                tuple(scalars.coerce(v, algebra.mode) for v in row) for row in plane
            )
            for plane in T
        )
        if len(T) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in T
        ):
            raise DimensionMismatch("product tensor must be %d^3" % (n,))
        self.algebra = algebra
        self.T = T
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
    """The product x |>_sign y = [R_sign x, y] tabulated as a tensor."""
    from .rmatrix import post_product

    return BilinearProduct.from_function(
        ctx.algebra, lambda x, y: post_product(ctx, sign, x, y)
    )


def _associator(prod, x, y, z):
    """(x o y) o z - x o (y o z)."""
    return vsub(prod.apply(prod.apply(x, y), z), prod.apply(x, prod.apply(y, z)))


def _norm(v):
    return max((abs(float(c)) for c in v), default=0.0)


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
    worst1 = (0.0, None)
    worst2 = (0.0, None)
    ok1 = ok2 = True
    n = L.dim
    for i in range(n):
        x = L.basis(i)
        for j in range(n):
            y = L.basis(j)
            for k in range(n):
                z = L.basis(k)
                d1 = vsub(
                    product.apply(x, bracket(L, y, z)),
                    vadd(
                        bracket(L, product.apply(x, y), z),
                        bracket(L, y, product.apply(x, z)),
                    ),
                )
                if handedness == LEFT:
                    rhs = vsub(_associator(product, x, y, z), _associator(product, y, x, z))
                else:
                    rhs = vsub(_associator(product, y, x, z), _associator(product, x, y, z))
                d2 = vsub(product.apply(bracket(L, x, y), z), rhs)
                if not all(L.is_zero_scalar(c) for c in d1):
                    ok1 = False
                if not all(L.is_zero_scalar(c) for c in d2):
                    ok2 = False
                n1, n2 = _norm(d1), _norm(d2)
                if n1 > worst1[0]:
                    worst1 = (n1, (i, j, k))
                if n2 > worst2[0]:
                    worst2 = (n2, (i, j, k))
    return {
        "ok": ok1 and ok2,
        "derivation_axiom": {
            "ok": ok1,
            "worst_defect_norm": worst1[0],
            "worst_triple": worst1[1],
        },
        "bracket_axiom": {
            "ok": ok2,
            "worst_defect_norm": worst2[0],
            "worst_triple": worst2[1],
        },
    }


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
    n = L.dim
    T = tuple(
        tuple(
            tuple(pl.product.T[i][j][k] - L.C[i][j][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return PostLieStructure(
        BilinearProduct(pl.product.algebra, T), L, RIGHT, validate=False
    )


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
    n = L.dim
    T = tuple(
        tuple(
            tuple(pl.product.T[i][j][k] + half * L.C[i][j][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return BilinearProduct(pl.product.algebra, T)


def check_prelie(product):
    """Left pre-Lie identity a(x,y,z) = a(y,x,z) on all basis triples."""
    L = product.algebra
    worst = (0.0, None)
    ok = True
    n = L.dim
    for i in range(n):
        x = L.basis(i)
        for j in range(n):
            y = L.basis(j)
            for k in range(n):
                z = L.basis(k)
                d = vsub(_associator(product, x, y, z), _associator(product, y, x, z))
                if not all(L.is_zero_scalar(c) for c in d):
                    ok = False
                nd = _norm(d)
                if nd > worst[0]:
                    worst = (nd, (i, j, k))
    return {"ok": ok, "worst_defect_norm": worst[0], "worst_triple": worst[1]}


# ---------------------------------------------------------------------------
# JSON interchange (same sparse shape as the structure-constant files)
# ---------------------------------------------------------------------------


def product_to_json(product):
    entries = [
        [i, j, k, repr(v) if isinstance(v, float) else scalars.format_rational(v)]
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
    with open(path) as fh:
        return product_from_json(L, json.load(fh))

"""The four JSON writers (algebra, r-matrix, product, graded series) on the
built-ins in both modes, compared byte for byte with a frozen file.

Regenerate the file (only for an intended format change) with
    PYTHONPATH=src python tests/test_json_writers.py > tests/golden/json_writers.txt
"""

import json
import os

from postlie import liealg, magnus, products, rmatrix, scalars

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "json_writers.txt")
ALGEBRAS = ("sl(2)", "so(3)", "gl(2)", "gl(3)", "upper_lower_split(3)")


def writer_outputs():
    out = {}
    for mode in (scalars.EXACT, scalars.FLOAT):
        for name in ALGEBRAS:
            out["algebra %s %s" % (name, mode)] = liealg.algebra_to_json(
                liealg.builtin(name, mode)
            )
        for name in rmatrix.BUILTIN_RMATRICES:
            ctx = rmatrix.builtin_rmatrix(name, mode)
            L = ctx.algebra
            out["rmatrix %s %s" % (name, mode)] = rmatrix.rmatrix_to_json(ctx)
            for sign in "+-":
                prod = products.from_rmatrix(ctx, sign)
                out["product %s %s %s" % (name, sign, mode)] = products.product_to_json(prod)
            x = tuple(L.ratio(k + 1, 3) for k in range(L.dim))
            chi = magnus.postlie_magnus(L, x, products.from_rmatrix(ctx, "-"), 5, "ode")
            out["chi %s %s" % (name, mode)] = magnus.graded_to_json(chi)
    return "".join("%s: %s\n" % (key, json.dumps(out[key], sort_keys=True)) for key in out)


def test_json_writers_match_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert writer_outputs() == fh.read()


if __name__ == "__main__":
    print(writer_outputs(), end="")

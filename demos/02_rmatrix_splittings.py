"""r-matrices: the modified Yang-Baxter check, half projections, and the
products they induce.

Walks through the three built-in structures, verifies the quadratic
r-matrix identity, inspects the R+/R- decomposition and the subalgebras it
carves out, and shows the induced bilinear product with its axioms.
"""

from postlie import liealg, products, rmatrix


def main():
    for name in ("sl2-borel", "split2", "sl2-id"):
        ctx = rmatrix.builtin_rmatrix(name)
        L = ctx.algebra
        print("=" * 60)
        print("structure %r on %s (dim %d)" % (name, ", ".join(L.labels), L.dim))
        print("  R rows:", [list(map(str, row)) for row in ctx.R.matrix])
        print("  quadratic identity holds:", rmatrix.is_rmatrix(L, ctx.R, ctx.theta)["ok"])

        rep = rmatrix.subalgebra_analysis(ctx)
        print("  image/kernel subalgebra check:", rep["subalgebras_ok"])
        print("  half-image dimensions:", rep["dim_im_plus"], "and",
              rep["dim_im_minus"])

        prod = products.from_rmatrix(ctx, "-")
        check = products.check_postlie(prod, products.RIGHT)
        print("  induced product passes both axioms:", check["ok"])

        # the product antisymmetrizes to the difference of the two brackets:
        # x |> y - y |> x + [x, y] = [x, y]_R
        x = L.basis(0)
        y = L.basis(L.dim - 1)
        lhs = liealg.vadd(
            liealg.vsub(prod.apply(x, y), prod.apply(y, x)),
            liealg.bracket(L, x, y),
        )
        rhs = rmatrix.r_bracket(L, ctx.R, x, y)
        print("  product antisymmetrization deforms the bracket correctly:",
              lhs == rhs)
    print("=" * 60)

    # hand-built splitting: upper vs strictly-lower triangular on gl(3)
    gl3 = liealg.builtin("upper_lower_split(3)")
    plus, minus = gl3.splitting
    ctx = rmatrix.splitting_r(gl3, plus, minus)
    print("gl(3) triangular splitting: %d + %d = %d basis directions"
          % (len(plus), len(minus), gl3.dim))
    print("  quadratic identity holds:",
          rmatrix.is_rmatrix(gl3, ctx.R, ctx.theta)["ok"])


if __name__ == "__main__":
    main()

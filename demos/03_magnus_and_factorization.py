"""The graded correction expansion and the two-factor exponential.

Exact part: expands the group-logarithm correction chi(x) order by order
on the Borel splitting, shows its defining identity exp(x) = exp*(chi),
and splits chi through the half projections.  Float part: measures how the
two-factor matrix product exp(chi+) exp(-chi-) converges to exp(x) as the
truncation order grows.
"""

from fractions import Fraction

from postlie import flows, magnus, products, rmatrix, scalars


def main():
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    L = ctx.algebra
    prod = products.from_rmatrix(ctx, "-")
    x = (Fraction(1), 0, Fraction(1))

    chi = magnus.postlie_magnus(L, x, prod, 5)
    print("correction expansion for x = e + f on the Borel splitting:")
    for m in range(1, 6):
        print("  order %d: %s" % (m, _fmt(L, chi.coeff(m))))

    rep = magnus.verify_grouplike_identity(L, x, prod, 5)
    print("exp(x) = exp*(chi) through degree 5:", rep["ok"])

    plus, minus = magnus.chi_pm(chi, ctx)
    print("\nhalf projections (the second factor carries its sign):")
    for m in range(1, 6):
        print("  order %d: plus %s | minus %s"
              % (m, _fmt(L, plus.coeff(m)), _fmt(L, minus.coeff(m))))

    print("\nfloat mode: residual of the two-factor product, radius 0.3")
    ctx_f = rmatrix.builtin_rmatrix("sl2-borel", mode=scalars.FLOAT)
    problem = flows.FlowProblem(ctx_f, (0.3, 0.0, 0.3), (1.0,), 10)
    residuals = flows.factorization_residuals(problem)
    for order in (2, 4, 6, 8, 10):
        print("  order %2d: |exp(x) - exp(chi+) exp(-chi-)| = %.3e"
              % (order, residuals[order - 1]))


def _fmt(L, v):
    parts = []
    for c, lab in zip(v, L.labels):
        if c == 0:
            continue
        parts.append(("%s*%s" % (c, lab)) if c != 1 else lab)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


if __name__ == "__main__":
    main()

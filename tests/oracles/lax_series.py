"""The paper's explicit solution of the Lax flow dx/dt = [x, R_- x] as a
t-series on Fraction vectors, kept to check it exactly (the package
evaluates it in float, by conjugation in the matrix realization):

- ``conjugated_series``: the degree coefficients of e^{ad_{-u}} x0 for a
  graded u with zero degree-0 part, from one power table of ad_{-u}.
"""

from fractions import Fraction
from math import factorial

from postlie.liealg import bracket, vadd, vscale, vzero


def conjugated_series(L, x0, u, order):
    """x_0..x_order of e^{ad_{-u}} x0 = sum_n ad_{-u}^n x0 / n!, where u
    holds the coefficients u_0..u_order of a t-series with u_0 = 0; row n of
    the table holds the degrees of ad_{-u}^n x0, and degree d of row n reads
    degrees below d of row n-1."""
    zero = vzero(L.dim)
    table = [[x0] + [zero] * order]
    for _ in range(order):
        prev = table[-1]
        row = [zero] * (order + 1)
        for d in range(1, order + 1):
            for i in range(1, d + 1):
                row[d] = vadd(row[d], bracket(L, prev[d - i], u[i]))
        table.append(row)
    out = [zero] * (order + 1)
    for n, row in enumerate(table):
        out = [vadd(a, vscale(Fraction(1, factorial(n)), b)) for a, b in zip(out, row)]
    return out

"""The Jacobi scan as two dictionaries: first every D[i,j,k,l] =
sum_m C[i][j][m] C[m][k][l] for i < j, k not in {i, j}, added in the order
of the scan over the rows, then the cyclic sum
D[a,b,c,l] - D[a,c,b,l] + D[b,c,a,l] once per sorted triple a < b < c,
in the order the triples first appear among the D keys.

liealg._jacobi_defects files each product under its sorted key in one of
three partial sums in a single pass; each partial sum adds the terms of one
D in the same order, so the two agree to the bit, key order included.
"""


def two_dict_defects(rows):
    D = {}
    for i, row in enumerate(rows):
        for j, m, c in row:
            if j > i:
                for k, l, c2 in rows[m]:
                    if k != i and k != j:
                        key = (i, j, k, l)
                        D[key] = D.get(key, 0) + c * c2
    defects = {}
    for i, j, k, l in D:
        t = (i, j, k, l) if k > j else (i, k, j, l) if k > i else (k, i, j, l)
        if t not in defects:
            a, b, c, _ = t
            defects[t] = D.get(t, 0) - D.get((a, c, b, l), 0) + D.get((b, c, a, l), 0)
    return defects

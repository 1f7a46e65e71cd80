"""Finite-dimensional Lie algebras presented by structure constants.

An algebra is validated at construction (antisymmetry is filled in from the
sparse upper-triangular input, the Jacobi identity and the optional matrix
realization are checked) and is immutable afterwards.  A rank-3 tensor, the
structure constants here and a product in the products module, is given as
sparse entries (i, j, k, value) and stored only as the rows tensor_rows
builds from them; no dense tensor is built, and every contraction, check
and derived tensor runs over the rows.  Vectors are plain tuples of scalars
in the fixed basis; linear maps g -> g are LinearEndo objects storing a
dense square matrix in column convention.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, compress, repeat

from . import scalars
from .errors import (
    DimensionMismatch,
    InvalidInput,
    JacobiViolation,
    NonFiniteNumber,
    NoRealization,
    RealizationMismatch,
    UnsupportedName,
)

# ---------------------------------------------------------------------------
# vectors (plain tuples) and dense matrices (tuples of row tuples)
# ---------------------------------------------------------------------------


def vadd(x, y):
    return tuple(map(operator.add, x, y))


def vsub(x, y):
    return tuple(map(operator.sub, x, y))


def vscale(c, x):
    return tuple(map(operator.mul, repeat(c), x))


def vzero(n):
    return (0,) * n


def _mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


class LinearEndo:
    """A linear map g -> g as a dense square matrix; column j = image of x_j."""

    def __init__(self, matrix):
        rows = tuple(tuple(row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("LinearEndo matrix must be square")
        self.matrix = rows
        self.dim = n

    def apply(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(
                "vector of length %d fed to endo of size %d" % (len(x), self.dim)
            )
        nonzero = [(j, c) for j, c in enumerate(x) if c != 0]
        return tuple(sum(row[j] * c for j, c in nonzero) for row in self.matrix)

    __call__ = apply

    def compose(self, other):
        return LinearEndo(_mat_mul(self.matrix, other.matrix))

    def __add__(self, other):
        return LinearEndo(tuple(map(vadd, self.matrix, other.matrix)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return LinearEndo(tuple(tuple(c * a for a in row) for row in self.matrix))

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.dim))

    @staticmethod
    def diagonal(entries):
        zeros = (0,) * len(entries)
        return LinearEndo(zeros[:i] + (e,) + zeros[i + 1:] for i, e in enumerate(entries))

    @staticmethod
    def identity(n):
        return LinearEndo.diagonal((1,) * n)

    @staticmethod
    def from_columns(cols):
        n = len(cols)
        return LinearEndo(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return isinstance(other, LinearEndo) and self.matrix == other.matrix

    def __repr__(self):
        return "LinearEndo(%r)" % (self.matrix,)


def max_norm(v):
    """The largest absolute coordinate of v as a float; 0.0 for no
    coordinates, nan when a coordinate is nan."""
    norms = [abs(float(c)) for c in v]
    # a sum of non-negative floats is nan only when a term is
    return math.nan if math.isnan(sum(norms)) else max(norms, default=0.0)


# ---------------------------------------------------------------------------
# sparse rank-3 tensors
# ---------------------------------------------------------------------------


def tensor_rows(dim, entries, mode):
    """rows[i] = ((j, k, c), ...) for the tensor whose T[i][j][k] = c is the
    sum of the entries (i, j, k, value), added in entry order, each value
    taken by scalars.coerce_entry (a NonFiniteNumber names its entry).
    Each row lists its nonzero sums in (j, k) order, so a contraction over
    the rows adds its terms in dense-scan order.  An integral Fraction is
    stored as an int, so exact contractions of integral tensors do integer
    arithmetic."""
    coerced = []
    for entry in entries:
        i, j, k, v = entry
        # before the coercion, so an entry out of range is named as given
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise _out_of_range(entry, dim)
        try:
            coerced.append((i, j, k, scalars.coerce_entry(v, mode)))
        except NonFiniteNumber as exc:
            raise NonFiniteNumber("entry %r: %s" % (entry, exc)) from None
    return _summed_rows(dim, coerced)


def _entries(rows):
    """The entries (i, j, k, c) of a tensor stored as rows, in row order."""
    return ((i, j, k, c) for i, row in enumerate(rows) for j, k, c in row)


def _out_of_range(entry, dim):
    return DimensionMismatch("entry %r out of range for dimension %d" % (entry, dim))


def _summed_rows(dim, entries):
    """The rows of tensor_rows from entries whose values are already scalars
    of the mode."""
    sums = [{} for _ in range(dim)]
    for entry in entries:
        i, j, k, v = entry
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise _out_of_range(entry, dim)
        row = sums[i]
        row[j, k] = row.get((j, k), 0) + v
    return tuple(
        tuple(
            (j, k, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
            for (j, k), c in sorted(row.items())
            if c != 0
        )
        for row in sums
    )


def contract(rows, x, y):
    """sum_ijk x_i y_j T[i][j][k] e_k over the nonzero entries of T.

    Unchecked: x and y must already be vectors of the tensor's dimension in
    its mode.  bracket and BilinearProduct.apply are the checked entry
    points; the library's inner loops call this on vectors checked once."""
    out = [0] * len(x)
    for xi, row in zip(x, rows, strict=True):
        if xi:
            for j, k, c in row:
                yj = y[j]
                if yj:
                    out[k] += xi * yj * c
    return tuple(out)


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------


class LieAlgebra:
    """Structure constants C[i][j][k] with [x_i,x_j] = sum_k C[i][j][k] x_k,
    stored as C_rows = tensor_rows(dim, entries, mode).

    Do not call directly; use new_lie_algebra / builtin / algebra_from_json,
    which validate the data.
    """

    def __init__(self, dim, labels, C_rows, realization, mode):
        self.dim = dim
        self.labels = tuple(labels)
        self.C_rows = C_rows
        self.realization = realization
        self.mode = mode
        self._pbw_cache = {}
        self._bracket_index = None  # built by enveloping on first use
        self.splitting = None  # (plus_indices, minus_indices) for split builtins

    def vanishes(self, values):
        """True when every value is zero in this algebra's mode."""
        return all(scalars.is_zero(c, self.mode) for c in values)

    def ratio(self, p, q=1):
        return scalars.ratio(p, q, self.mode)

    def basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def check_vector(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(
                "vector of length %d in algebra of dimension %d" % (len(x), self.dim)
            )
        return tuple(scalars.coerce(a, self.mode) for a in x)

    def rho(self, x):
        """Matrix of x in the attached realization."""
        if self.realization is None:
            raise NoRealization("algebra has no matrix realization")
        x = self.check_vector(x)
        m = len(self.realization[0])
        out = [[0] * m for _ in range(m)]
        for i, c in enumerate(x):
            if c == 0:
                continue
            Mi = self.realization[i]
            for a in range(m):
                for b in range(m):
                    out[a][b] += c * Mi[a][b]
        return tuple(tuple(row) for row in out)

    def __repr__(self):
        return "LieAlgebra(dim=%d, labels=%r, mode=%s)" % (
            self.dim,
            list(self.labels),
            self.mode,
        )


def _same_algebra(L, M):
    """L and M are one algebra: the same object, or equal structure
    constants in the same mode."""
    return L is M or (L.mode == M.mode and L.C_rows == M.C_rows)


def _index(value, where):
    """value if it is an int and not a bool, else InvalidInput naming where: a
    dimension or an index read from a file is taken as written (1.9, 1.0, "1", true)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput("%s: %r is not an integer" % (where, value))
    return value


def _check_order(order, least):
    """A truncation order: an int, not a bool, of at least `least`."""
    if isinstance(order, bool) or not isinstance(order, int):
        raise InvalidInput("order must be an int (got %r)" % (order,))
    if order < least:
        raise InvalidInput("order must be at least %d (got %d)" % (least, order))


def _jacobi_defects(rows):
    """{(a, b, c, l): D[a,b,c,l] - D[a,c,b,l] + D[b,c,a,l]} over a < b < c where a
    term exists, D[i,j,k,l] = sum_m C[i][j][m] C[m][k][l] for i < j, k not in {i, j}
    (the rows are antisymmetric, so D[j,i,k,l] = -D[i,j,k,l]).  One pass files each
    term under its sorted key in one of three partial sums, each D in scan order."""
    part = {}
    for i, row in enumerate(rows):
        for j, m, c in row:
            if j > i:
                for k, l, c2 in rows[m]:
                    if k != i and k != j:
                        key, s = (((i, j, k, l), 0) if k > j else ((i, k, j, l), 1) if k > i
                                  else ((k, i, j, l), 2))
                        p = part.get(key)
                        if p is None:
                            p = part[key] = [0, 0, 0]
                        p[s] += c * c2
    return {t: p0 - p1 + p2 for t, (p0, p1, p2) in part.items()}


def _realization_entries(L):
    """Per basis vector, the nonzero entries (a, b, v) of its realization
    matrix; None when the realization is not dim square matrices of one size."""
    mats = L.realization
    m = len(mats[0]) if mats else 0
    if len(mats) != L.dim or any(len(M) != m or any(len(row) != m for row in M) for M in mats):
        return None
    return [[(a, b, row[b]) for a, row in enumerate(M) for b in compress(range(m), row)]
            for M in mats]


def _realization_mismatch(L, entries):
    """The first pair i < j of a dense scan at which [rho(x_i), rho(x_j)] differs
    from rho([x_i, x_j]) in L's mode, or None; composed over nonzero entries only."""
    # by_row[t]: the nonzero entries (j, b, w) of row t of every rho(x_j)
    by_row = [[] for _ in L.realization[0]]
    for j, E in enumerate(entries):
        for t, b, w in E:
            by_row[t].append((j, b, w))
    # defect[i, j, a, b] = ([rho(x_i), rho(x_j)] - sum_k C[i][j][k] rho(x_k))[a][b]
    # for i < j, from its nonzero terms only: rho(x_i) rho(x_j), then
    # -rho(x_j) rho(x_i), then the bracket, each added as a dense scan would
    defect = {}
    for p, E in enumerate(entries):
        for a, t, v in E:
            for q, b, w in by_row[t]:
                if q != p:
                    key = (p, q, a, b) if p < q else (q, p, a, b)
                    defect[key] = defect.get(key, 0) + (1 if p < q else -1) * v * w
    for i, row in enumerate(L.C_rows):
        for j, k, c in row:
            if j > i:
                for a, b, v in entries[k]:
                    defect[i, j, a, b] = defect.get((i, j, a, b), 0) - c * v
    return min((key[:2] for key, d in defect.items() if not scalars.is_zero(d, L.mode)),
               default=None)


def _proves_jacobi(L, entries):
    """True when a passing realization check proves the Jacobi identity.

    The matrices are nonzero with pairwise disjoint supports, so vec(rho) is
    injective, and the check's arithmetic is exact: exact mode, or float
    structure constants and realization entries that are integers whose
    absolute values sum to S < 2^26.  Every product and partial sum of the
    realization check and of the Jacobi scan is then an integer of size at
    most S^2 < 2^53.  A passing check gives rho(Jacobi(x, y, z)) = the matrix
    Jacobi sum = 0, so Jacobi(x, y, z) = 0, and the scan would find every
    defect exactly 0."""
    support = {(a, b) for E in entries for a, b, _ in E}
    if not all(entries) or len(support) != sum(map(len, entries)):
        return False
    if L.mode == scalars.EXACT:
        return True
    values = [c for row in L.C_rows for _, _, c in row] + [v for E in entries for _, _, v in E]
    return all(map(float.is_integer, values)) and sum(map(abs, values)) < 2 ** 26


def _validate(L):
    """Jacobi identity and realization, composed over nonzero entries only.

    Every term left out has a zero factor, so both checks stay complete and
    exact and report the first failing index tuple of a dense scan.  Where
    the realization proves the Jacobi identity (_proves_jacobi), its check
    runs first and, when it passes, the Jacobi scan is skipped; otherwise the
    scan runs first and a failing algebra raises what it raised in that
    order: JacobiViolation, then DimensionMismatch or RealizationMismatch.
    """
    entries = None if L.realization is None else _realization_entries(L)
    proved = entries is not None and _proves_jacobi(L, entries)
    if proved:
        bad = _realization_mismatch(L, entries)
        if bad is None:
            return L
    defects = _jacobi_defects(L.C_rows)
    first = min((t for t, d in defects.items() if not scalars.is_zero(d, L.mode)), default=None)
    if first:
        raise JacobiViolation(*first, defects[first])
    if L.realization is not None:
        if entries is None:
            raise DimensionMismatch(
                "realization must supply one matrix per basis vector"
                if len(L.realization) != L.dim
                else "realization matrices must be square of equal size"
            )
        if not proved:
            bad = _realization_mismatch(L, entries)
        if bad:
            raise RealizationMismatch(*bad)
    return L


def new_lie_algebra(dim, labels, structure_entries, realization=None, mode=scalars.EXACT):
    """Build and validate an algebra from sparse entries (i, j, k, value), i < j.

    The antisymmetric completion C[j][i][k] = -C[i][j][k] is automatic.  Each
    structure value is coerced once (scalars.coerce_entry), and the realization
    is kept as given when scalars.is_native accepts all its entries.  Validation
    checks the Jacobi identity and the realization; where the realization
    matrices are nonzero with disjoint supports and the arithmetic is exact
    (every builtin), a passing realization check proves Jacobi and the Jacobi
    scan is skipped (_validate).
    """
    scalars.check_mode(mode)
    if dim <= 0:
        raise DimensionMismatch("dim must be positive")
    if labels is None:
        labels = ["x%d" % i for i in range(dim)]
    labels = [str(s) for s in labels]
    if len(labels) != dim:
        raise DimensionMismatch("need exactly %d basis labels" % dim)
    entries = []
    for entry in structure_entries:
        i, j, k, value = entry
        if i >= j:
            raise InvalidInput(
                "structure entries must have i < j (got %r); "
                "the antisymmetric completion is automatic" % (entry,)
            )
        v = scalars.coerce_entry(value, mode)
        entries += [(i, j, k, v), (j, i, k, -v)]
    if realization is not None:
        realization = tuple(tuple(map(tuple, M)) for M in realization)
        if not scalars.is_native(chain.from_iterable(chain.from_iterable(realization)), mode):
            realization = tuple(
                tuple(tuple(scalars.coerce_entry(x, mode) for x in row) for row in M)
                for M in realization
            )
    C_rows = _summed_rows(dim, entries)
    return _validate(LieAlgebra(dim, labels, C_rows, realization, mode))


def defect_scan(L, defect, index_tuples):
    """Evaluate defect(*t) for each index tuple t.  Returns (ok, worst, where):
    ok when every defect vanishes in L's mode, worst the largest max_norm and
    where the first tuple reaching it (None when every norm is 0.0).  A nan
    norm outranks every number: the first nan is reported."""
    ok, worst, where = True, 0.0, None
    for t in index_tuples:
        d = defect(*t)
        if ok and not L.vanishes(d):
            ok = False
        norm = max_norm(d)
        if not (norm <= worst or math.isnan(worst)):
            worst, where = norm, t
    return ok, worst, where


def bracket(L, x, y):
    """[x, y] by contraction against the structure constants."""
    return contract(L.C_rows, L.check_vector(x), L.check_vector(y))


def ad(L, x):
    """The map ad_x y := [x, y] as a LinearEndo."""
    x = L.check_vector(x)
    cols = [bracket(L, x, L.basis(j)) for j in range(L.dim)]
    return LinearEndo.from_columns(cols)


def trace_form(L, x, y):
    """B(x,y) = tr(rho(x) rho(y)) in the attached realization."""
    if L.realization is None:
        raise NoRealization("trace_form needs a matrix realization")
    product = _mat_mul(L.rho(x), L.rho(y))
    return sum(product[i][i] for i in range(len(product)))


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------


def _gl_structure(pairs, n, one):
    """The entries (i, j, k, c), i < j, of [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
    over the basis pairs, from the indices j at which each delta is 1."""
    index = {p: i for i, p in enumerate(pairs)}
    entries = []
    for i, (a, b) in enumerate(pairs):
        # both deltas are 1 only at E_cd = E_ba, with E_ad = E_aa and E_cb = E_bb
        # apart unless i = j: no (i, j, k) comes twice
        for d in range(n):
            j = index[b, d]
            if j > i:
                entries.append((i, j, index[a, d], one))
        for c in range(n):
            j = index[c, a]
            if j > i:
                entries.append((i, j, index[c, b], -one))
    return entries


def _gl_realization(pairs, n, zero, one):
    mats = [[[zero] * n for _ in range(n)] for _ in pairs]
    for M, (a, b) in zip(mats, pairs):
        M[a][b] = one
    return mats


def _parse_builtin(name):
    name = name.strip()
    if "(" in name and name.endswith(")"):
        head, arg = name[:-1].split("(", 1)
        return head.strip(), arg.strip()
    return name, None


def builtin(name, mode=scalars.EXACT):
    """Construct a built-in algebra with its defining matrix realization.

    Names: gl(n) with n >= 2, sl(2), so(3), upper_lower_split(n).  The split
    variant is gl(n) with the basis ordered so that the upper-triangular
    (including diagonal) span and the strictly-lower span are index ranges;
    the returned algebra carries `.splitting = (plus_indices, minus_indices)`.
    """
    head, arg = _parse_builtin(name)
    if head == "sl" and arg == "2":
        entries = [
            (0, 1, 0, -2),  # [e,h] = -2e
            (0, 2, 1, 1),   # [e,f] = h
            (1, 2, 2, -2),  # [h,f] = -2f
        ]
        realization = [
            [[0, 1], [0, 0]],
            [[1, 0], [0, -1]],
            [[0, 0], [1, 0]],
        ]
        return new_lie_algebra(3, ["e", "h", "f"], entries, realization, mode)
    if head == "so" and arg == "3":
        entries = [
            (0, 1, 2, 1),
            (1, 2, 0, 1),
        ]
        # [e3,e1] = e2 enters as (0,2,1,-1) since entries need i < j
        entries.append((0, 2, 1, -1))
        realization = [
            [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
        ]
        return new_lie_algebra(3, ["e1", "e2", "e3"], entries, realization, mode)
    if head in ("gl", "upper_lower_split"):
        try:
            n = int(arg)
        except (TypeError, ValueError):
            raise UnsupportedName("bad size in %r" % (name,))
        if n < 2:
            raise UnsupportedName("need n >= 2 in %r" % (name,))
        if head == "gl":
            pairs = [(a, b) for a in range(n) for b in range(n)]
        else:
            pairs = [(a, b) for a in range(n) for b in range(n) if a <= b]
            pairs += [(a, b) for a in range(n) for b in range(n) if a > b]
        labels = ["E%d%d" % (a + 1, b + 1) for (a, b) in pairs]
        zero, one = scalars.coerce(0, mode), scalars.coerce(1, mode)
        L = new_lie_algebra(
            n * n, labels, _gl_structure(pairs, n, one), _gl_realization(pairs, n, zero, one), mode
        )
        if head == "upper_lower_split":
            n_up = sum(1 for (a, b) in pairs if a <= b)
            L.splitting = (tuple(range(n_up)), tuple(range(n_up, n * n)))
        return L
    raise UnsupportedName("unknown built-in algebra %r" % (name,))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def algebra_to_json(L):
    structure = [[i, j, k, scalars.to_text(c)] for i, j, k, c in _entries(L.C_rows) if j > i]
    data = {"dim": L.dim, "basis": list(L.labels), "structure": structure}
    if L.realization is not None:
        data["realization"] = {
            "size": len(L.realization[0]),
            "matrices": [
                [[scalars.to_text(x) for x in row] for row in M] for M in L.realization
            ],
        }
    return data


def algebra_from_json(data, mode=scalars.EXACT):
    try:
        dim = _index(data["dim"], "dim")
        labels = data.get("basis")
        if "basis" in data and not isinstance(labels, list):
            raise InvalidInput("basis: %r is not a list of labels" % (labels,))
        structure = [(_index(i, e), _index(j, e), _index(k, e), v)
                     for e in data["structure"] for i, j, k, v in [e]]
        realization = data.get("realization")
        if realization is not None:
            realization = [[list(row) for row in M] for M in realization["matrices"]]
    except (KeyError, TypeError, ValueError, InvalidInput) as exc:
        raise InvalidInput("malformed algebra JSON: %s" % (exc,))
    return new_lie_algebra(dim, labels, structure, realization, mode)


def load_algebra(path, mode=scalars.EXACT):
    return scalars.read_json(path, lambda data: algebra_from_json(data, mode))

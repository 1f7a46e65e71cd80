"""Finite-dimensional Lie algebras presented by structure constants.

An algebra is validated at construction (antisymmetry is filled in from the
sparse upper-triangular input, the Jacobi identity and the optional matrix
realization are checked) and is immutable afterwards.  The structure
constants are stored only as rows of their nonzero entries, and every
contraction and check runs over those.  Vectors are plain tuples of scalars
in the fixed basis; linear maps g -> g are LinearEndo objects storing a
dense square matrix in column convention.
"""

from __future__ import annotations

import math

from . import scalars
from .errors import (
    DimensionMismatch,
    InvalidInput,
    JacobiViolation,
    NoRealization,
    RealizationMismatch,
    UnsupportedName,
)

# ---------------------------------------------------------------------------
# vectors (plain tuples) and dense matrices (tuples of row tuples)
# ---------------------------------------------------------------------------


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x):
    return tuple(c * a for a in x)


def vzero(n):
    return (0,) * n


def basis_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def _mat_add(A, B, sign=1):
    return tuple(
        tuple(a + sign * b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def _mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


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
        return LinearEndo(_mat_add(self.matrix, other.matrix))

    def __sub__(self, other):
        return LinearEndo(_mat_add(self.matrix, other.matrix, sign=-1))

    def scale(self, c):
        return LinearEndo(tuple(tuple(c * a for a in row) for row in self.matrix))

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.dim))

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return LinearEndo(tuple(
            tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
        ))

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


def nonzero_rows(T):
    """rows[i] = ((j, k, c), ...) listing the nonzero T[i][j][k] = c in (j, k)
    order, so a contraction over the rows adds its terms in dense-scan order.
    The entries are scalars, so a row with no true entry is all zero."""
    return tuple(
        tuple(
            (j, k, c)
            for j, row in enumerate(plane)
            if any(row)
            for k, c in enumerate(row)
            if c != 0
        )
        for plane in T
    )


def contract(rows, x, y):
    """sum_ijk x_i y_j T[i][j][k] e_k over the nonzero entries of T.

    Unchecked: x and y must already be vectors of the tensor's dimension in
    its mode.  bracket and BilinearProduct.apply are the checked entry
    points; the library's inner loops call this on vectors checked once."""
    out = [0] * len(x)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, k, c in rows[i]:
            yj = y[j]
            if yj != 0:
                out[k] += xi * yj * c
    return tuple(out)


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------


class LieAlgebra:
    """Structure constants C[i][j][k] with [x_i,x_j] = sum_k C[i][j][k] x_k,
    stored as C_rows = nonzero_rows(C).

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
        self.splitting = None  # (plus_indices, minus_indices) for split builtins

    def vanishes(self, values):
        """True when every value is zero in this algebra's mode."""
        return all(scalars.is_zero(c, self.mode) for c in values)

    def ratio(self, p, q=1):
        return scalars.ratio(p, q, self.mode)

    def zero(self):
        return vzero(self.dim)

    def basis(self, i):
        return basis_vector(self.dim, i)

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


def _add_product(out, A, B, sign):
    """out[a, b] += sign * (A.B)[a][b] for matrices given as their rows of
    nonzero (column, value) pairs."""
    for a, row in enumerate(A):
        for t, v in row:
            for b, w in B[t]:
                out[a, b] = out.get((a, b), 0) + sign * v * w


def _validate(L):
    """Jacobi identity and realization, composed over nonzero entries only.

    Every term left out has a zero factor, so both checks stay complete and
    exact and report the first failing index tuple of a dense scan.
    """
    n = L.dim
    rows = L.C_rows
    # D[i,j,k,l] = sum_m C[i][j][m] C[m][k][l]
    D = {}
    for i, row in enumerate(rows):
        for j, m, c in row:
            for k, l, c2 in rows[m]:
                key = (i, j, k, l)
                D[key] = D.get(key, 0) + c * c2
    # the cyclic sum over (i, j, k) can be nonzero only where a term exists
    candidates = sorted(
        {tuple(sorted((i, j, k))) + (l,) for i, j, k, l in D if len({i, j, k}) == 3}
    )
    for i, j, k, l in candidates:
        defect = D.get((i, j, k, l), 0) + D.get((k, i, j, l), 0) + D.get((j, k, i, l), 0)
        if not scalars.is_zero(defect, L.mode):
            raise JacobiViolation(i, j, k, l, defect)
    if L.realization is not None:
        mats = L.realization
        if len(mats) != n:
            raise DimensionMismatch("realization must supply one matrix per basis vector")
        m = len(mats[0])
        for M in mats:
            if len(M) != m or any(len(row) != m for row in M):
                raise DimensionMismatch("realization matrices must be square of equal size")
        sparse = [
            [[(b, v) for b, v in enumerate(row) if v != 0] for row in M] for M in mats
        ]
        for i in range(n):
            for j in range(i + 1, n):
                # [rho(x_i), rho(x_j)] - sum_k C[i][j][k] rho(x_k)
                defect = {}
                _add_product(defect, sparse[i], sparse[j], 1)
                _add_product(defect, sparse[j], sparse[i], -1)
                for jj, k, c in rows[i]:
                    if jj == j:
                        for a, row in enumerate(sparse[k]):
                            for b, v in row:
                                defect[a, b] = defect.get((a, b), 0) - c * v
                if not L.vanishes(defect.values()):
                    raise RealizationMismatch(i, j)
    return L


def new_lie_algebra(dim, labels, structure_entries, realization=None, mode=scalars.EXACT):
    """Build and validate an algebra from sparse entries (i, j, k, value), i < j.

    The antisymmetric completion C[j][i][k] = -C[i][j][k] is automatic.
    """
    scalars.check_mode(mode)
    if dim <= 0:
        raise DimensionMismatch("dim must be positive")
    if labels is None:
        labels = ["x%d" % i for i in range(dim)]
    labels = [str(s) for s in labels]
    if len(labels) != dim:
        raise DimensionMismatch("need exactly %d basis labels" % dim)
    zero = scalars.coerce(0, mode)
    C = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in structure_entries:
        i, j, k, value = entry
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DimensionMismatch("structure entry %r out of range" % (entry,))
        if i >= j:
            raise InvalidInput(
                "structure entries must have i < j (got %r); "
                "the antisymmetric completion is automatic" % (entry,)
            )
        v = scalars.coerce(value, mode)
        C[i][j][k] += v
        C[j][i][k] -= v
    if realization is not None:
        realization = tuple(
            tuple(tuple(scalars.coerce(x, mode) for x in row) for row in M)
            for M in realization
        )
    return _validate(LieAlgebra(dim, labels, nonzero_rows(C), realization, mode))


def algebra_from_bracket(L, f):
    """The validated algebra on L's basis, labels and mode whose bracket of
    basis vectors is f, tabulated over the basis pairs i < j."""
    entries = [
        (i, j, k, c)
        for i in range(L.dim)
        for j in range(i + 1, L.dim)
        for k, c in enumerate(f(L.basis(i), L.basis(j)))
        if c != 0
    ]
    return new_lie_algebra(L.dim, list(L.labels), entries, None, L.mode)


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
    return _mat_trace(_mat_mul(L.rho(x), L.rho(y)))


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------


def _gl_structure(pairs, n):
    index = {p: i for i, p in enumerate(pairs)}
    entries = []
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i >= j:
                continue
            # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
            out = {}
            if b == c:
                out[index[(a, d)]] = out.get(index[(a, d)], 0) + 1
            if d == a:
                out[index[(c, b)]] = out.get(index[(c, b)], 0) - 1
            for k, v in out.items():
                if v != 0:
                    entries.append((i, j, k, v))
    return entries


def _gl_realization(pairs, n):
    mats = []
    for (a, b) in pairs:
        M = [[0] * n for _ in range(n)]
        M[a][b] = 1
        mats.append(M)
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
        L = new_lie_algebra(
            n * n, labels, _gl_structure(pairs, n), _gl_realization(pairs, n), mode
        )
        if head == "upper_lower_split":
            n_up = sum(1 for (a, b) in pairs if a <= b)
            L.splitting = (tuple(range(n_up)), tuple(range(n_up, n * n)))
        return L
    raise UnsupportedName("unknown built-in algebra %r" % (name,))


def splitting_projections(L):
    """(pi_plus, pi_minus) for an algebra carrying `.splitting` index ranges."""
    if L.splitting is None:
        raise InvalidInput("algebra carries no splitting data")
    plus = set(L.splitting[0])
    d_plus = [1 if i in plus else 0 for i in range(L.dim)]
    return LinearEndo.diagonal(d_plus), LinearEndo.diagonal([1 - d for d in d_plus])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def algebra_to_json(L):
    structure = [
        [i, j, k, scalars.to_text(c)]
        for i, row in enumerate(L.C_rows)
        for j, k, c in row
        if j > i
    ]
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
        dim = int(data["dim"])
        labels = data.get("basis")
        structure = [(int(i), int(j), int(k), v) for (i, j, k, v) in data["structure"]]
        realization = data.get("realization")
        if realization is not None:
            realization = [[list(row) for row in M] for M in realization["matrices"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("malformed algebra JSON: %s" % (exc,))
    return new_lie_algebra(dim, labels, structure, realization, mode)


def load_algebra(path, mode=scalars.EXACT):
    return algebra_from_json(scalars.read_json(path), mode)

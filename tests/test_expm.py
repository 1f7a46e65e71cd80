"""The stacked matrix exponential flows._expm against a 50-digit mpmath
reference and, for nilpotent slices, the exact finite Taylor sum; and the
exp(-A) it returns beside exp(A).

Each slice may be off by at most 10x SciPy's own error on that slice, plus
1e-15, in the max-entry relative error.  The flow layer hands _expm rho(u)
with u in g_minus, which for Toda is strictly lower triangular, so the
nilpotent stacks go up to norm 1e20: a scaling taken from ||A|| alone loses
all accuracy there.
"""

import pickle
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from oracles.expm_reference import eight_term_expm
from postlie.flows import _expm


def mp_expm(A):
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


def taylor_expm(A):
    """sum_{k<n} A^k/k! in exact rationals: exp(A) for nilpotent n x n A."""
    n = len(A)
    M = [[Fraction(float(x)) for x in row] for row in A]
    S = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    T = [row[:] for row in S]
    for k in range(1, n):
        T = [[sum(T[i][l] * M[l][j] for l in range(n)) / k for j in range(n)]
             for i in range(n)]
        S = [[S[i][j] + T[i][j] for j in range(n)] for i in range(n)]
    return np.array([[float(x) for x in row] for row in S])


def rel_err(X, R):
    return np.abs(X - R).max() / np.abs(R).max()


def scaled_stack(A, norms):
    """A with slice k rescaled to 1-norm norms[k]."""
    A = np.asarray(A, dtype=float)
    ones = np.abs(A).sum(axis=-2).max(axis=-1)
    return A * (np.asarray(norms) / ones)[..., None, None]


def assert_within_scipy(A, oracles):
    X = _expm(A)[0]
    assert X.shape == A.shape
    Y = expm(A)
    flat = A.reshape((-1,) + A.shape[-2:])
    for a, x, y in zip(flat, X.reshape(flat.shape), Y.reshape(flat.shape)):
        for oracle in oracles:
            R = oracle(a)
            assert rel_err(x, R) <= 10 * rel_err(y, R) + 1e-15, (a, x, R)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_dense_stack_with_mixed_norms(n):
    rng = np.random.default_rng(600 + n)
    norms = np.logspace(-8, np.log10(50), 12)
    rng.shuffle(norms)
    A = scaled_stack(rng.standard_normal((2, 6, n, n)), norms.reshape(2, 6))
    assert_within_scipy(A, [mp_expm])


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("k", [-1, 1], ids=["lower", "upper"])
def test_strictly_triangular_stack_up_to_norm_1e20(n, k):
    rng = np.random.default_rng(700 + 10 * n + k)
    tri = np.tril if k < 0 else np.triu
    norms = np.array([1e-8, 1e-2, 1.0, 1e2, 1e5, 1e10, 1e15, 1e20])
    rng.shuffle(norms)
    A = scaled_stack(tri(rng.standard_normal((len(norms), n, n)), k), norms)
    assert_within_scipy(A, [mp_expm, taylor_expm])


def test_zero_stack_is_identity():
    assert np.array_equal(_expm(np.zeros((3, 2, 4, 4)))[0], np.broadcast_to(np.eye(4), (3, 2, 4, 4)))


def test_one_by_one_slices():
    A = np.linspace(-50, 50, 21).reshape(-1, 1, 1)
    assert_within_scipy(A, [mp_expm])


def test_overflowing_slices_are_not_finite_and_silent():
    # exp(diag(1000, -1000)) overflows only in the squaring, [[1, 1e200],
    # [1, -1]] already in its powers; the finite slice keeps its value
    A = np.array([
        [[0.5, 1.0], [-2.0, 0.25]],
        [[1000.0, 0.0], [0.0, -1000.0]],
        [[1.0, 1e200], [1.0, -1.0]],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = _expm(A)[0]
    assert np.isfinite(X[0]).all()
    assert rel_err(X[0], mp_expm(A[0])) <= 10 * rel_err(expm(A[0]), mp_expm(A[0])) + 1e-15
    assert not np.isfinite(X[1]).all() and not np.isfinite(X[2]).all()


def test_nilpotent_slice_beside_an_overflowing_one_is_its_taylor_sum():
    # [[1, 1e200], [1, -1]] sends the stack to the Pade branch; the nilpotent
    # [[0, 0], [1e300, 0]] would have U = b_1 A past the float range, and the
    # solve raised LinAlgError (Singular matrix) on it.  It is kept out of the
    # solve and gets I +- A, and the third slice keeps its value alone
    A = np.array([[[1.0, 1e200], [1.0, -1.0]], [[0.0, 0.0], [1e300, 0.0]], [[0.5, 1.0], [-2.0, 0.25]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, Y = _expm(A)
    assert not np.isfinite(X[0]).any() and not np.isfinite(Y[0]).any()
    assert np.array_equal(X[1], np.eye(2) + A[1]) and np.array_equal(Y[1], np.eye(2) - A[1])
    assert np.array_equal(X[2], _expm(A[2])[0]) and np.array_equal(Y[2], _expm(A[2])[1])


def test_single_matrix():
    A = scaled_stack(np.random.default_rng(5).standard_normal((4, 4)), 20.0)
    X = _expm(A)[0]
    assert X.shape == (4, 4)
    assert rel_err(X, mp_expm(A)) <= 10 * rel_err(expm(A), mp_expm(A)) + 1e-15


def test_nilpotent_block_is_the_taylor_sum_bit_for_bit():
    # a Toda n = 4 block: rho(u) is strictly lower triangular, so A^4 = 0 on
    # every slice and _expm returns the Taylor sum below A^4 without any
    # norm; it is the degree-7 sum the general path falls back to
    rng = np.random.default_rng(19)
    A = np.tril(rng.standard_normal((3, 256, 4, 4)) * rng.uniform(0, 40, (3, 256, 1, 1)), -1)
    I, A2 = np.eye(4), A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    T = I + A2 / 2 + A4 / 24 + A6 / 720 + A @ (I + A2 / 6 + A4 / 120 + A6 / 5040)
    assert np.array_equal(_expm(A)[0], T)


# exp(-A), the second element of the pair


@pytest.mark.parametrize("n", range(2, 10))
def test_inverse_is_the_exponential_of_minus_a_bit_for_bit(n):
    # the even powers of -A are those of A and its odd Pade and Taylor halves
    # change sign, so exp(-A) from the powers of A is _expm(-A) to the bit,
    # on nilpotent slices (n <= 8), Pade slices (n = 9, overflowing ones
    # not finite in both) and mixed stacks
    rng = np.random.default_rng(800 + n)
    dense = scaled_stack(rng.standard_normal((8, n, n)), np.logspace(-8, 2, 8))
    lower = scaled_stack(np.tril(rng.standard_normal((8, n, n)), -1), np.logspace(-8, 20, 8))
    for A in (dense, lower, np.concatenate([dense, lower])):
        assert np.array_equal(_expm(A)[1], _expm(-A)[0], equal_nan=True)


@pytest.mark.parametrize("n", range(2, 9))
def test_inverse_on_nilpotent_stacks_is_the_taylor_sum_of_minus_a(n):
    # the even half minus the odd half of the Taylor sum, as accurate against
    # the exact sum as SciPy; with A^3 = 0 (n <= 3) and integer entries every
    # float operation of the sum is exact, so it is the exact sum to the bit
    rng = np.random.default_rng(900 + n)
    norms = np.array([1e-8, 1e-2, 1.0, 1e2, 1e5, 1e10, 1e15, 1e20])
    A = scaled_stack(np.tril(rng.standard_normal((len(norms), n, n)), -1), norms)
    for a, x in zip(A, _expm(A)[1]):
        R = taylor_expm(-a)
        assert rel_err(x, R) <= 10 * rel_err(expm(-a), R) + 1e-15, a
    if n <= 3:
        A = np.tril(rng.integers(-9, 10, (40, n, n)), -1).astype(float)
        for a, x in zip(A, _expm(A)[1]):
            assert np.array_equal(x, taylor_expm(-a)), a


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_exponential_times_its_inverse_on_pade_slices(n):
    # |exp(A) exp(-A) - I| <= n eps ||exp(A)||_1 ||exp(-A)||_1 entrywise; on
    # these stacks (1-norms 1e-8 to 50) the worst measured factor was 0.44 n,
    # at n = 9, and below 1-norm 1 the worst residual was 8.9e-16
    rng = np.random.default_rng(1000 + n)
    norms = np.logspace(-8, np.log10(50), 24)
    A = scaled_stack(rng.standard_normal((24, n, n)), norms)
    X, X_inv = _expm(A)
    residual = np.abs(X @ X_inv - np.eye(n)).max(axis=(-2, -1))
    one_norm = lambda M: np.abs(M).sum(axis=-2).max(axis=-1)
    kappa = one_norm(X) * one_norm(X_inv)
    assert (residual <= n * np.finfo(float).eps * kappa).all()
    assert residual[norms <= 1].max() <= 1e-15


# the Taylor sum ends at the first even power that vanishes on the whole stack


@pytest.mark.parametrize("n", range(2, 9))
def test_sum_below_the_first_vanishing_power_is_the_full_sum_bit_for_bit(n):
    # strictly lower triangular stacks as a flow block hands them over: A^2 = 0
    # for n = 2, A^4 = 0 for n = 3, 4 and A^8 = 0 for n = 5..8, slice 0 the
    # zero matrix of t = 0, norms 1e-8 to 1e20; the dropped terms are +-0
    rng = np.random.default_rng(1100 + n)
    A = scaled_stack(np.tril(rng.standard_normal((3, 15, n, n)), -1), np.logspace(-8, 20, 15))
    A[:, 0] = 0.0
    assert pickle.dumps(_expm(A)) == pickle.dumps(eight_term_expm(A))
    assert pickle.dumps(_expm(A[:, :1])) == pickle.dumps(eight_term_expm(A[:, :1]))


def test_square_zero_blocks_that_are_not_triangular_bit_for_bit():
    # [[1, 1], [-1, -1]] times c has A^2 = 0 exactly in floats when c^2 is exact
    N = np.array([[1.0, 1.0], [-1.0, -1.0]])
    A = np.stack([c * N for c in (0.0, -0.0, 2.0**-30, 3.0, -7.5, 2.0**60)])
    assert not (A @ A).any()
    assert pickle.dumps(_expm(A)) == pickle.dumps(eight_term_expm(A))


@pytest.mark.parametrize("n", range(2, 10))
def test_pade_blocks_are_unchanged_bit_for_bit(n):
    # a dense block, a dense block beside nilpotent slices (the per-slice
    # choice of the Pade path) and one with an overflowing slice
    rng = np.random.default_rng(1200 + n)
    dense = scaled_stack(rng.standard_normal((8, n, n)), np.logspace(-8, 2, 8))
    lower = scaled_stack(np.tril(rng.standard_normal((8, n, n)), -1), np.logspace(-8, 20, 8))
    wild = dense.copy()
    wild[3] *= 1e200
    for A in (dense, np.concatenate([lower, dense]), wild):
        assert pickle.dumps(_expm(A)) == pickle.dumps(eight_term_expm(A))

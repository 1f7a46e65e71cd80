"""Shared helpers: seeded random vectors and common algebra fixtures."""

import os
import random
from fractions import Fraction

# before NumPy loads, as postlie.cli.main does: the test matrices are small,
# and a second OpenBLAS thread only spins when another process holds a core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from postlie import liealg, products, rmatrix, scalars

BUILTIN_RMATRICES = ("sl2-borel", "split2", "sl2-id")


def seeded(seed):
    return random.Random(seed)


def random_vector(L, rng, span=3):
    """Random exact coordinate vector with small integer entries."""
    coords = [Fraction(rng.randint(-span, span)) for _ in range(L.dim)]
    if all(c == 0 for c in coords):
        coords[rng.randrange(L.dim)] = Fraction(1)
    if L.mode == scalars.FLOAT:
        return tuple(float(c) for c in coords)
    return tuple(coords)


def random_word(L, rng, max_len=3):
    """Random PBW-basis word (tuple of basis indices, sorted not required)."""
    n = rng.randint(1, max_len)
    return tuple(rng.randrange(L.dim) for _ in range(n))


def exact_context(name):
    """The exact r-matrix context of a builtin name, or the splitting
    context of an upper_lower_split(n) algebra."""
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(name)


@pytest.fixture
def sl2():
    return liealg.builtin("sl(2)")


@pytest.fixture
def so3():
    return liealg.builtin("so(3)")


@pytest.fixture
def borel_ctx():
    return rmatrix.builtin_rmatrix("sl2-borel")


@pytest.fixture
def split2_ctx():
    return rmatrix.builtin_rmatrix("split2")


@pytest.fixture
def borel_product(borel_ctx):
    return products.from_rmatrix(borel_ctx, "-")


@pytest.fixture
def split2_product(split2_ctx):
    return products.from_rmatrix(split2_ctx, "-")

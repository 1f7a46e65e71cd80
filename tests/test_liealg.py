import math
from fractions import Fraction

import pytest

from postlie import liealg, scalars
from postlie.errors import (
    DimensionMismatch,
    InvalidInput,
    JacobiViolation,
    NoRealization,
    RealizationMismatch,
    UnsupportedName,
)
from conftest import random_vector, seeded

F = Fraction


def test_sl2_structure_constants(sl2):
    e, h, f = sl2.basis(0), sl2.basis(1), sl2.basis(2)
    assert liealg.bracket(sl2, h, e) == (2, 0, 0)
    assert liealg.bracket(sl2, h, f) == (0, 0, -2)
    assert liealg.bracket(sl2, e, f) == (0, 1, 0)


def test_so3_cyclic_brackets(so3):
    e1, e2, e3 = (so3.basis(i) for i in range(3))
    assert liealg.bracket(so3, e1, e2) == (0, 0, 1)
    assert liealg.bracket(so3, e2, e3) == (1, 0, 0)
    assert liealg.bracket(so3, e3, e1) == (0, 1, 0)
    # oracle: cross-product table evaluated by hand, [e1+e2, e2] = e3
    assert liealg.bracket(so3, (1, 1, 0), e2) == (0, 0, 1)


def test_bracket_is_bilinear_and_antisymmetric(sl2):
    rng = seeded(101)
    for _ in range(25):
        x = random_vector(sl2, rng)
        y = random_vector(sl2, rng)
        z = random_vector(sl2, rng)
        xy = liealg.bracket(sl2, x, y)
        assert liealg.bracket(sl2, y, x) == tuple(-c for c in xy)
        lhs = liealg.bracket(sl2, liealg.vadd(x, liealg.vscale(F(3), z)), y)
        rhs = liealg.vadd(xy, liealg.vscale(F(3), liealg.bracket(sl2, z, y)))
        assert lhs == rhs


def test_jacobi_holds_on_random_triples(so3):
    rng = seeded(7)
    for _ in range(20):
        x, y, z = (random_vector(so3, rng) for _ in range(3))
        total = liealg.vadd(
            liealg.bracket(so3, x, liealg.bracket(so3, y, z)),
            liealg.vadd(
                liealg.bracket(so3, y, liealg.bracket(so3, z, x)),
                liealg.bracket(so3, z, liealg.bracket(so3, x, y)),
            ),
        )
        assert all(c == 0 for c in total)


def test_non_jacobi_structure_rejected():
    entries = [(0, 1, 0, 1), (1, 2, 1, 1), (0, 2, 2, 1)]
    with pytest.raises(JacobiViolation):
        liealg.new_lie_algebra(3, ["a", "b", "c"], entries)


def test_realization_mismatch_rejected():
    entries = [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]
    wrong = [
        [[0, 1], [0, 0]],
        [[1, 0], [0, -1]],
        [[0, 0], [2, 0]],  # f scaled: commutators no longer match
    ]
    with pytest.raises(RealizationMismatch):
        liealg.new_lie_algebra(3, ["e", "h", "f"], entries, wrong)


def test_realization_commutators_match_brackets(sl2):
    rng = seeded(13)
    for _ in range(10):
        x = random_vector(sl2, rng)
        y = random_vector(sl2, rng)
        A, B = sl2.rho(x), sl2.rho(y)
        comm = [
            [
                sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert tuple(map(tuple, comm)) == sl2.rho(liealg.bracket(sl2, x, y))


def test_trace_form_values(sl2):
    # oracle: 2x2 defining representation traces, tr(rho(h)^2) = 2,
    # tr(rho(e)rho(f)) = 1
    assert liealg.trace_form(sl2, sl2.basis(1), sl2.basis(1)) == 2
    assert liealg.trace_form(sl2, sl2.basis(0), sl2.basis(2)) == 1
    assert liealg.trace_form(sl2, sl2.basis(0), sl2.basis(0)) == 0


def test_trace_form_needs_realization():
    L = liealg.new_lie_algebra(2, ["a", "b"], [(0, 1, 1, 1)])
    with pytest.raises(NoRealization):
        liealg.trace_form(L, L.basis(0), L.basis(1))


def test_ad_matrix_reproduces_bracket(sl2):
    rng = seeded(29)
    x = random_vector(sl2, rng)
    endo = liealg.ad(sl2, x)
    for j in range(3):
        assert endo(sl2.basis(j)) == liealg.bracket(sl2, x, sl2.basis(j))


def test_gl_structure_constants():
    L = liealg.builtin("gl(2)")
    # labels in (a,b) row-major order: E11, E12, E21, E22
    idx = {lab: i for i, lab in enumerate(L.labels)}
    E12, E21 = L.basis(idx["E12"]), L.basis(idx["E21"])
    out = liealg.bracket(L, E12, E21)
    want = [0] * 4
    want[idx["E11"]] = 1
    want[idx["E22"]] = -1
    assert list(out) == want


def test_upper_lower_split_ordering_and_projections():
    L = liealg.builtin("upper_lower_split(2)")
    assert list(L.labels) == ["E11", "E12", "E22", "E21"]
    plus, minus = L.splitting
    assert plus == (0, 1, 2) and minus == (3,)
    pi_p, pi_m = liealg.splitting_projections(L)
    assert pi_p((1, 2, 3, 4)) == (1, 2, 3, 0)
    assert pi_m((1, 2, 3, 4)) == (0, 0, 0, 4)
    # both ranges really are subalgebras
    for rng_ix in (plus, minus):
        for i in rng_ix:
            for j in rng_ix:
                img = liealg.bracket(L, L.basis(i), L.basis(j))
                assert all(img[k] == 0 for k in range(4) if k not in rng_ix)


def test_splitting_projection_requires_split_algebra(sl2):
    with pytest.raises(InvalidInput):
        liealg.splitting_projections(sl2)


def test_max_norm_propagates_nan():
    assert liealg.max_norm((1.0, -3.0)) == 3.0
    assert liealg.max_norm(()) == 0.0
    for v in ((math.nan, 1.0), (1.0, math.nan), (math.inf, math.nan)):
        assert math.isnan(liealg.max_norm(v))


def test_builtin_unknown_name():
    with pytest.raises(UnsupportedName):
        liealg.builtin("e8")
    with pytest.raises(UnsupportedName):
        liealg.builtin("gl(1)")


def test_float_mode_builtin(sl2):
    Lf = liealg.builtin("sl(2)", mode=scalars.FLOAT)
    assert liealg.bracket(Lf, (1.0, 0.0, 1.0), (0.0, 1.0, 0.0)) == (
        pytest.approx(-2.0),
        0.0,
        pytest.approx(2.0),
    )
    with pytest.raises(Exception):
        sl2.check_vector((0.5, 0, 0))  # floats rejected in exact mode


def test_vector_length_checked(sl2):
    with pytest.raises(DimensionMismatch):
        liealg.bracket(sl2, (1, 0), (0, 1, 0))


def test_json_round_trip(sl2):
    data = liealg.algebra_to_json(sl2)
    back = liealg.algebra_from_json(data)
    assert back.dim == sl2.dim and back.labels == sl2.labels
    assert back.C_rows == sl2.C_rows
    assert back.realization == sl2.realization


def test_json_malformed_rejected():
    with pytest.raises(InvalidInput):
        liealg.algebra_from_json({"dim": 2})


def test_gl3_with_realization_validates():
    L = liealg.builtin("gl(3)")
    assert L.dim == 9
    rng = seeded(3)
    x = random_vector(L, rng)
    y = random_vector(L, rng)
    # bracket consistent with matrix commutator through rho
    A, B = L.rho(x), L.rho(y)
    comm = [
        [
            sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert tuple(map(tuple, comm)) == L.rho(liealg.bracket(L, x, y))

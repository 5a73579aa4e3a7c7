import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relosc.errors import (
    CoefficientMismatch,
    DimensionMismatch,
    EpsOutOfRange,
    IndexOutOfRange,
    NonFiniteValue,
    NonNegativeOffDiagonal,
)
from relosc.homotopy import two_phase_path, wronskian_eps_derivative
from relosc.jacobi import JacobiMatrix, free_matrix, interpolate, new_jacobi
from relosc.numeric import parse_scalar
from relosc.oscillation import count_nodes, is_node
from relosc.recurrence import solve_minus

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=8)
neg_fractions_st = st.fractions(
    min_value=-10, max_value=Fraction(-1, 8), max_denominator=8
)


@st.composite
def jacobi_st(draw, max_dim=6):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    a = tuple(draw(neg_fractions_st) for _ in range(dim - 1))
    b = tuple(draw(fractions_st) for _ in range(dim))
    return JacobiMatrix(dim + 1, a, b)


def test_smallest_instance():
    h = new_jacobi(2, [], [0])
    assert h.dim == 1
    assert h.a == ()


def test_free_matrix_is_valid():
    h = free_matrix(5)
    assert h.a == (-1, -1, -1)
    assert h.b == (0, 0, 0, 0)


def test_positive_offdiagonal_rejected():
    with pytest.raises(NonNegativeOffDiagonal):
        new_jacobi(3, [1], [0, 0])
    with pytest.raises(NonNegativeOffDiagonal):
        new_jacobi(3, [0], [0, 0])


@pytest.mark.parametrize(
    "a, b", [([-math.inf], [0.0, 0.0]), ([-1.0], [math.nan, 0.0])], ids=["a-minus-inf", "b-nan"]
)
def test_non_finite_float_entry_rejected(a, b):
    with pytest.raises(NonFiniteValue):
        new_jacobi(3, a, b)


def test_exact_entries_beyond_binary64_accepted():
    assert new_jacobi(3, [-(10**400)], [Fraction(1, 3), 10**400]).exact


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        new_jacobi(5, [-1, -1], [0, 0, 0, 0])
    with pytest.raises(DimensionMismatch):
        new_jacobi(5, [-1, -1, -1], [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        new_jacobi(1, [], [])


def test_extended_a_interior_and_boundary():
    h = free_matrix(5)
    assert h.extended_a(2) == -1
    assert h.extended_a(0) == -1
    assert h.extended_a(4) == -1  # n = N-1 convention
    assert h.extended_a(5) == -1  # n = N convention
    with pytest.raises(IndexOutOfRange):
        h.extended_a(6)
    with pytest.raises(IndexOutOfRange):
        h.extended_a(-1)


def test_extended_a_empty_interior():
    h = new_jacobi(2, [], [7])
    assert h.extended_a(1) == -1  # n = 1 equals N-1


def test_extended_b():
    h = free_matrix(5)
    assert h.extended_b(3) == 0
    assert h.extended_b(5) == 0  # b(N) = 0 convention
    assert new_jacobi(2, [], [7]).extended_b(1) == 7
    with pytest.raises(IndexOutOfRange):
        h.extended_b(0)
    with pytest.raises(IndexOutOfRange):
        h.extended_b(6)


def test_apply_one_by_one():
    assert new_jacobi(2, [], [0]).apply([1]) == [0]


def test_apply_unit_vector():
    assert free_matrix(5).apply([1, 0, 0, 0]) == [0, -1, 0, 0]


def test_apply_free_eigenvector():
    import math

    n_par = 5
    k = 1
    lam = -2 * math.cos(math.pi * k / n_par)
    v = [math.sin(k * math.pi * j / n_par) for j in range(1, n_par)]
    hv = free_matrix(n_par).apply(v)
    for x, y in zip(hv, v):
        assert abs(x - lam * y) < 1e-12


def test_apply_length_check():
    with pytest.raises(DimensionMismatch):
        free_matrix(5).apply([1, 2, 3])


def test_interpolate_endpoints_and_midpoint():
    h0 = new_jacobi(2, [], [Fraction(0)])
    h1 = new_jacobi(2, [], [Fraction(1)])
    assert interpolate(h0, h1, 0) == h0
    assert interpolate(h0, h1, 1) == h1
    assert interpolate(h0, h1, Fraction(1, 2)).b == (Fraction(1, 2),)


def test_interpolate_requires_shared_a():
    h0 = new_jacobi(3, [Fraction(-1)], [0, 0])
    h1 = new_jacobi(3, [Fraction(-2)], [0, 0])
    with pytest.raises(CoefficientMismatch):
        interpolate(h0, h1, Fraction(1, 2))
    with pytest.raises(CoefficientMismatch):
        interpolate(h0, free_matrix(4), 0)


@given(jacobi_st())
def test_extended_a_always_negative(h):
    for n in range(h.N + 1):
        assert h.extended_a(n) < 0


@given(jacobi_st(), st.data())
def test_apply_is_symmetric(h, data):
    vec = st.lists(fractions_st, min_size=h.dim, max_size=h.dim)
    v = data.draw(vec)
    w = data.draw(vec)
    hv, hw = h.apply(v), h.apply(w)
    assert sum(x * y for x, y in zip(hv, w)) == sum(x * y for x, y in zip(v, hw))


@given(jacobi_st(), st.data())
def test_interpolate_is_affine(h0, data):
    b1 = tuple(data.draw(fractions_st) for _ in range(h0.dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    eps = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=16))
    he = interpolate(h0, h1, eps)
    assert he.a == h0.a
    for be, b0, b1_ in zip(he.b, h0.b, h1.b):
        assert be - b0 == eps * (b1_ - b0)


HUGE = 10**5000  # past Python's 4300-digit limit on int-to-str conversion
F4 = free_matrix(4)
U4 = solve_minus(F4, 0)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: new_jacobi(3, [HUGE], [0, 0]), NonNegativeOffDiagonal, id="new_jacobi-a"),
        pytest.param(lambda: new_jacobi(HUGE, [], [0]), DimensionMismatch, id="new_jacobi-N"),
        pytest.param(lambda: F4.extended_a(HUGE), IndexOutOfRange, id="extended_a"),
        pytest.param(lambda: F4.extended_b(-HUGE), IndexOutOfRange, id="extended_b"),
        pytest.param(lambda: is_node(U4, HUGE), IndexOutOfRange, id="is_node"),
        pytest.param(lambda: count_nodes(U4, 0, HUGE), IndexOutOfRange, id="count_nodes"),
        pytest.param(
            lambda: wronskian_eps_derivative(F4, F4, 0, 0, "plus", HUGE),
            IndexOutOfRange,
            id="wronskian_eps_derivative",
        ),
        pytest.param(lambda: two_phase_path(F4, F4, Fraction(HUGE)), EpsOutOfRange, id="two_phase_path"),
        pytest.param(lambda: parse_scalar(HUGE), ValueError, id="parse_scalar"),
    ],
)
def test_huge_value_in_message_keeps_typed_error(call, error):
    with pytest.raises(error, match="too long to print"):
        call()

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relosc.errors import LengthMismatch, NonFiniteValue
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi
from relosc.oscillation import count_below
from relosc.recurrence import (
    check_wronskian_step,
    residuals,
    solve_minus,
    solve_plus,
    wronskian_pair,
    wronskian_sequence,
)

from test_jacobi import fractions_st, jacobi_st

PAIRINGS = [(s0, s1) for s0 in (solve_minus, solve_plus) for s1 in (solve_minus, solve_plus)]


def test_solve_minus_free_matrix():
    u = solve_minus(free_matrix(5), 0)
    assert u.values == (0, 1, 0, -1, 0, 1, 0)
    assert u.side == "minus"


def test_solve_minus_one_by_one():
    assert solve_minus(new_jacobi(2, [], [Fraction(0)]), 0).values == (0, 1, 0, -1)


def test_solve_minus_second_entry():
    # u(2) = (z - b) / a(1) * u(1) with a(1) = -1 gives b - z; here z=0
    for b in (Fraction(3), Fraction(-2, 7)):
        u = solve_minus(new_jacobi(2, [], [b]), Fraction(0))
        assert u.values[2] == b  # (0 - b)*1 / (-1)


def test_solve_plus_one_by_one():
    assert solve_plus(new_jacobi(2, [], [Fraction(0)]), 0).values == (0, -1, 0, 1)
    # note: the b = -1 matrix is the one whose backward solution starts at 1
    assert solve_plus(new_jacobi(2, [], [Fraction(-1)]), 0).values == (1, -1, 0, 1)


def test_solve_plus_free_matrix_nonzero_endpoint():
    # 0 is not an eigenvalue of F(5), so s_+(0, 0) != 0
    assert solve_plus(free_matrix(5), 0).values[0] != 0


@given(jacobi_st(), fractions_st)
def test_exact_residuals_vanish(h, z):
    for u in (solve_minus(h, z), solve_plus(h, z)):
        assert all(r == 0 for r in residuals(h, u))


@given(jacobi_st(), fractions_st)
def test_eigenvalue_characterization_agrees_between_sides(h, z):
    um, up = solve_minus(h, z), solve_plus(h, z)
    assert (um.values[h.N] == 0) == (up.values[0] == 0)


def test_wronskian_with_itself_is_zero():
    h = free_matrix(5)
    u = solve_minus(h, 0)
    w = wronskian_pair(h, h, u, u)
    assert all(v == 0 for v in w.values)


def test_wronskian_at_shared_eigenvalue_vanishes():
    h = new_jacobi(2, [], [Fraction(0)])
    w = wronskian_pair(h, h, solve_minus(h, 0), solve_plus(h, 0))
    assert w.values == (0, 0, 0)


def test_wronskian_hand_example():
    h0 = new_jacobi(2, [], [Fraction(1)])
    h1 = new_jacobi(2, [], [Fraction(-1)])
    w = wronskian_pair(h0, h1, solve_minus(h0, 0), solve_plus(h1, 0))
    assert w.values[:2] == (1, -1)
    assert w.b_diff == (2, 0)


def test_wronskian_antisymmetry():
    h0 = new_jacobi(2, [], [Fraction(1)])
    h1 = new_jacobi(2, [], [Fraction(-1)])
    u0, u1 = solve_minus(h0, 0), solve_plus(h1, 0)
    b_diff = (2, 0)
    w01 = wronskian_sequence(h0, u0, u1, b_diff)
    w10 = wronskian_sequence(h0, u1, u0, b_diff)
    assert all(x == -y for x, y in zip(w01.values, w10.values))


def test_wronskian_length_checks():
    h = free_matrix(5)
    u = solve_minus(h, 0)
    with pytest.raises(LengthMismatch):
        wronskian_sequence(h, u, u, (0, 0))
    u3 = solve_minus(free_matrix(3), 0)
    with pytest.raises(LengthMismatch):
        wronskian_sequence(h, u, u3, (0,) * 5)


@given(jacobi_st(), st.data())
def test_step_identity_exact(h0, data):
    # b_diff(N) = z1 - z0, so the identity holds at n = N-1 for every
    # pairing, not only when one solution vanishes at N
    b1 = tuple(data.draw(fractions_st) for _ in range(h0.dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    z0 = data.draw(fractions_st)
    z1 = data.draw(fractions_st)
    for solve0, solve1 in PAIRINGS:
        u0, u1 = solve0(h0, z0), solve1(h1, z1)
        w = wronskian_pair(h0, h1, u0, u1)
        assert check_wronskian_step(w, u0, u1) == 0


@given(jacobi_st(), fractions_st, fractions_st)
def test_same_matrix_wronskian_constant(h, z0, z1):
    # same matrix, same z: b_diff vanishes and W is constant in n
    u0, u1 = solve_minus(h, z0), solve_plus(h, z0)
    w = wronskian_pair(h, h, u0, u1)
    assert all(v == w.values[0] for v in w.values)


def test_float_step_residual_small():
    import random

    rng = random.Random(7)
    n_par = 50
    a = tuple(-rng.uniform(0.5, 2.0) for _ in range(n_par - 2))
    b0 = tuple(rng.uniform(-2, 2) for _ in range(n_par - 1))
    b1 = tuple(rng.uniform(-2, 2) for _ in range(n_par - 1))
    h0 = JacobiMatrix(n_par, a, b0)
    h1 = JacobiMatrix(n_par, a, b1)
    for solve0, solve1 in PAIRINGS:
        u0, u1 = solve0(h0, 0.3), solve1(h1, -0.4)
        w = wronskian_pair(h0, h1, u0, u1)
        scale = max(abs(v) for v in w.values)
        assert check_wronskian_step(w, u0, u1) <= 1e-10 * scale


def test_renormalize_keyword_is_ignored_and_overflow_raises():
    n_par = 800
    h = free_matrix(n_par)
    hf = JacobiMatrix(n_par, tuple(-1.0 for _ in h.a), tuple(0.0 for _ in h.b))
    for solve in (solve_minus, solve_plus):
        u = solve(hf, -2.5)  # grows like 2^n, up to about 1e241
        assert solve(hf, -2.5, renormalize=True).values == u.values
        scale = max(abs(v) for v in u.values)
        assert max(abs(r) for r in residuals(hf, u)) <= 1e-12 * scale
    # growth ~4.8^n overflows binary64, and the signs of inf are not read
    with pytest.raises(NonFiniteValue):
        count_below(hf, -5.0)


@pytest.mark.parametrize(
    "z", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "minus-inf", "exact-huge"]
)
@pytest.mark.parametrize("solve", [solve_minus, solve_plus])
def test_non_finite_spectral_parameter_rejected(solve, z):
    # 10**400 is exact but the matrix is float, so z would become inf
    with pytest.raises(NonFiniteValue):
        solve(new_jacobi(3, [-1.0], [0.0, 0.0]), z)

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relosc import verify
from relosc.errors import BranchAmbiguity, DegenerateSolution, LengthMismatch, NonFiniteValue
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi, to_float_matrix
from relosc.oscillation import count_nodes, is_node, weighted_node_count
from relosc.pruefer import (
    RelativeAngleSequence,
    _resolve_ceil,
    delta_ceils,
    node_count_via_angles,
    pruefer_sequence,
    relative_angle_sequence,
    theta_ceils,
    weighted_count_via_angles,
)
from relosc.recurrence import SolutionSequence, solve_minus, solve_plus, wronskian_pair

from test_jacobi import fractions_st, jacobi_st
from test_oscillation import closed_form_below, shifted_free

PI = math.pi


def custom(values, z=0):
    return SolutionSequence(z, "custom", tuple(values), len(values) - 2)


def assert_theta(p, expected):
    assert len(p.theta) == len(expected)
    for got, want in zip(p.theta, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_free_matrix_angles():
    p = pruefer_sequence(solve_minus(free_matrix(5), 0))
    assert_theta(p, [0, PI / 2, PI, 3 * PI / 2, 2 * PI, 5 * PI / 2])
    assert node_count_via_angles(p) == 2


def test_constant_sign_solution_angles():
    p = pruefer_sequence(custom([0, 1, 1, 1]))
    assert_theta(p, [0, PI / 4, PI / 4])
    assert node_count_via_angles(p) == 0


def test_positive_scaling_leaves_angles_invariant():
    u = custom([0, 1, 1, 1])
    u2 = custom([0, 2, 2, 2])
    p, p2 = pruefer_sequence(u), pruefer_sequence(u2)
    assert p.theta == p2.theta
    assert all(r2 == pytest.approx(2 * r) for r, r2 in zip(p.rho, p2.rho))


def test_rho_reconstructs_solution():
    u = solve_minus(to_float_matrix(free_matrix(6)), 0.37)
    p = pruefer_sequence(u)
    for n in range(u.N + 1):
        assert p.rho[n] > 0
        assert p.rho[n] * math.sin(p.theta[n]) == pytest.approx(u.values[n], abs=1e-12)
        assert p.rho[n] * math.cos(p.theta[n]) == pytest.approx(u.values[n + 1], abs=1e-12)


@pytest.mark.parametrize("N", [201, 2001])
def test_exact_angles_beyond_float_range(N):
    # exact solutions here outgrow binary64, so no value may pass through float()
    h = shifted_free(N, 100)
    for lam in (0, 99, 101, 103):
        u = solve_minus(h, lam)
        p = pruefer_sequence(u)
        assert all(r > 0 for r in p.rho)
        assert node_count_via_angles(p) == count_nodes(u, 0, N) == closed_form_below(N, 100, lam)


def test_degenerate_solution_rejected():
    with pytest.raises(DegenerateSolution):
        pruefer_sequence(custom([1, 0, 0, 1]))


def test_relative_angles_hand_example():
    u0 = solve_minus(new_jacobi(2, [], [Fraction(1)]), 0)
    u1 = solve_plus(new_jacobi(2, [], [Fraction(-1)]), 0)
    d = relative_angle_sequence(pruefer_sequence(u0), pruefer_sequence(u1))
    for got, want in zip(d.delta, [3 * PI / 4, 5 * PI / 4, 5 * PI / 4]):
        assert got == pytest.approx(want, abs=1e-12)
    assert weighted_count_via_angles(d) == 1


def test_relative_angles_same_sequence_is_zero():
    p = pruefer_sequence(solve_minus(free_matrix(5), 0))
    d = relative_angle_sequence(p, p)
    assert all(x == 0 for x in d.delta)


def test_relative_angles_length_check():
    p5 = pruefer_sequence(solve_minus(free_matrix(5), 0))
    p3 = pruefer_sequence(solve_minus(free_matrix(3), 0))
    with pytest.raises(LengthMismatch):
        relative_angle_sequence(p5, p3)


def test_two_pi_shift_leaves_weighted_count_invariant():
    u0 = solve_minus(new_jacobi(2, [], [Fraction(1)]), 0)
    u1 = solve_plus(new_jacobi(2, [], [Fraction(-1)]), 0)
    d = relative_angle_sequence(pruefer_sequence(u0), pruefer_sequence(u1))
    shifted = RelativeAngleSequence(
        tuple(x + 2 * PI for x in d.delta), d.source0, d.source1
    )
    assert weighted_count_via_angles(shifted) == weighted_count_via_angles(d)


@settings(deadline=None)
@given(jacobi_st(), fractions_st)
def test_normalization_chain_and_count_agreement(h, z):
    u = solve_minus(h, z)
    p = pruefer_sequence(u)
    ceils = theta_ceils(p)
    for n in range(p.N):
        assert ceils[n] <= ceils[n + 1] <= ceils[n] + 1
        # the ceiling jumps exactly at nodes
        assert ceils[n + 1] - ceils[n] == (1 if is_node(u, n) else 0)
    assert node_count_via_angles(p) == count_nodes(u, 0, h.N)


@settings(deadline=None)
@given(jacobi_st(), st.data())
def test_weighted_count_agreement(h0, data):
    b1 = tuple(data.draw(fractions_st) for _ in range(h0.dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    z0 = data.draw(fractions_st)
    z1 = data.draw(fractions_st)
    u0, u1 = solve_minus(h0, z0), solve_plus(h1, z1)
    d = relative_angle_sequence(pruefer_sequence(u0), pruefer_sequence(u1))
    w = wronskian_pair(h0, h1, u0, u1)
    assert weighted_count_via_angles(d) == weighted_node_count(w)
    # branch uniqueness: the resolved delta ceilings step by at most one
    dcs = delta_ceils(d)
    for n in range(d.N):
        assert abs(dcs[n + 1] - dcs[n]) <= 1


def test_pruefer_suite_catches_a_wrong_ceiling_step(monkeypatch):
    def off_by_one(d):
        ceils = list(delta_ceils(d))
        ceils[-1] += 1  # the last Delta-ceiling step is one too large
        return ceils

    monkeypatch.setattr(verify, "delta_ceils", off_by_one)
    report = verify.pruefer_suite(5, seed=1, max_dim=6)
    checks = [c for failure in report.failures for c in failure["checks"]]
    assert any("case table" in c for c in checks)


def test_pruefer_suite_consults_the_exact_wronskian_signs(monkeypatch):
    exact_signs = verify._wronskian_signs

    def flipped(h0, h1, z0, z1):
        sw_a, sw_b, sb = exact_signs(h0, h1, z0, z1)
        return [-sw_a[0]] + sw_a[1:], sw_b, sb  # W_0 has the wrong sign

    monkeypatch.setattr(verify, "_wronskian_signs", flipped)
    report = verify.pruefer_suite(5, seed=1, max_dim=6)
    checks = [c for failure in report.failures for c in failure["checks"]]
    assert any("weighted count" in c or "case table" in c for c in checks)


def test_pruefer_suite_rejects_non_finite_values(monkeypatch):
    def overflowed(h0, h1, z0, z1):
        raise NonFiniteValue("the sign of inf is undefined")

    monkeypatch.setattr(verify, "_wronskian_signs", overflowed)
    report = verify.pruefer_suite(5, seed=1, max_dim=6)
    assert report.rejected == 5 and report.ok


def test_band_sign_on_a_branch_boundary_is_ambiguous():
    # s_-(sqrt2, 4) of the float free matrix is -6.7e-16, inside the tolerance band
    h = new_jacobi(4, [-1.0, -1.0], [0.0, 0.0, 0.0])
    with pytest.raises(BranchAmbiguity):
        node_count_via_angles(pruefer_sequence(solve_minus(h, math.sqrt(2))))


@pytest.mark.parametrize(
    "theta, s, ceil",
    [
        (PI * (1 - 1e-13), 1, 1),
        (PI * (1 + 1e-13), -1, 2),
        (2 * PI * (1 + 1e-13), -1, 2),
        (2 * PI * (1 - 1e-13), 1, 3),
    ],
)
def test_sign_decides_the_ceiling_near_a_multiple_of_pi(theta, s, ceil):
    # the sign of the sin-part overrides an angle within rounding of j pi:
    # sin > 0 puts theta in (2i pi, (2i+1) pi), sin < 0 in ((2i-1) pi, 2i pi)
    assert _resolve_ceil(theta, s, False) == ceil


def test_exact_zero_sin_part_off_a_multiple_of_pi_is_ambiguous():
    with pytest.raises(BranchAmbiguity):
        _resolve_ceil(0.5, 0, False)

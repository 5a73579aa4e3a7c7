import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relosc.errors import CoefficientMismatch, EpsOutOfRange, IndexOutOfRange
from relosc.homotopy import (
    eigenvalue_branches,
    lower_matrix,
    pruefer_eps_derivative,
    signed_crossing_count,
    split_perturbation,
    two_phase_path,
    wronskian_eps_derivative,
)
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi
from relosc.oscillation import relative_count
from relosc import verify
from relosc.verify import derivative_check, random_float_pair

from test_jacobi import fractions_st, jacobi_st


def pair(b0, b1, a=None):
    n = len(b0) + 1
    if a is None:
        a = tuple(Fraction(-1) for _ in range(n - 2))
    return JacobiMatrix(n, a, tuple(b0)), JacobiMatrix(n, a, tuple(b1))


def test_split_perturbation():
    h0, h1 = pair([1, -2], [0, 0])
    s = split_perturbation(h0, h1)
    assert s.b_plus == (1, 0)
    assert s.b_minus == (0, 2)


def test_split_requires_shared_a():
    h0 = new_jacobi(3, [Fraction(-1)], [0, 0])
    h1 = new_jacobi(3, [Fraction(-2)], [0, 0])
    with pytest.raises(CoefficientMismatch):
        split_perturbation(h0, h1)


def test_lower_matrix_is_entrywise_minimum():
    h0, h1 = pair([1, -2], [0, 0])
    assert lower_matrix(h0, h1).b == (0, -2)
    assert lower_matrix(h1, h0).b == (0, -2)


def test_two_phase_endpoints_and_midpoint():
    h0, h1 = pair([Fraction(1)], [Fraction(0)])
    assert two_phase_path(h0, h1, 0) == h0
    assert two_phase_path(h0, h1, 1) == h1
    # the midpoint is the entrywise-minimum diagonal
    assert two_phase_path(h0, h1, Fraction(1, 2)).b == (Fraction(0),)
    assert two_phase_path(h0, h1, Fraction(1, 4)).b == (Fraction(1, 2),)
    assert two_phase_path(h1, h0, Fraction(3, 4)).b == (Fraction(1, 2),)


def test_two_phase_eps_range():
    h0, h1 = pair([Fraction(1)], [Fraction(0)])
    with pytest.raises(EpsOutOfRange):
        two_phase_path(h0, h1, Fraction(-1, 2))
    with pytest.raises(EpsOutOfRange):
        two_phase_path(h0, h1, Fraction(3, 2))


def test_branches_identical_matrices_are_flat():
    h = free_matrix(4)
    table = eigenvalue_branches(h, h, [0.0, 0.5, 1.0])
    assert table.branches[0] == table.branches[1] == table.branches[2]


def test_branches_linear_shift():
    # shifting the whole diagonal moves every branch linearly
    h0, h1 = pair([Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)])
    table = eigenvalue_branches(h0, h1, [0.0, 0.5, 1.0])
    for k in range(2):
        assert table.branches[1][k] == pytest.approx(table.branches[0][k] + 0.5, abs=1e-12)
        assert table.branches[2][k] == pytest.approx(table.branches[0][k] + 1.0, abs=1e-12)


def test_branches_one_by_one_linear():
    h0, h1 = pair([Fraction(1)], [Fraction(0)])
    table = eigenvalue_branches(h0, h1, [0.0, 0.5, 1.0])
    assert [row[0] for row in table.branches] == pytest.approx([1.0, 0.5, 0.0])


def test_branches_rejects_unknown_path():
    h = free_matrix(3)
    with pytest.raises(ValueError):
        eigenvalue_branches(h, h, [0.0], path="spiral")


def test_wronskian_derivative_zero_perturbation():
    h = free_matrix(5)
    for side in ("plus", "minus"):
        for n in range(h.N + 1):
            assert wronskian_eps_derivative(h, h, Fraction(1, 2), 0, side, n) == 0


def test_wronskian_derivative_boundary_indices():
    h0, h1 = pair([Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)])
    # minus-side sum over m = 1..0 is empty, plus-side over m = N+1..N likewise
    assert wronskian_eps_derivative(h0, h1, 0, 0, "minus", 0) == 0
    assert wronskian_eps_derivative(h0, h1, 0, 0, "plus", h0.N) == 0
    with pytest.raises(IndexOutOfRange):
        wronskian_eps_derivative(h0, h1, 0, 0, "plus", h0.N + 1)
    with pytest.raises(ValueError):
        wronskian_eps_derivative(h0, h1, 0, 0, "sideways", 0)


def test_wronskian_derivative_closed_sum_exact():
    # exact rational instance: the closed sum is itself rational
    h0, h1 = pair([Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)])
    d = wronskian_eps_derivative(h0, h1, Fraction(0), Fraction(0), "minus", 2)
    # b_diff = (1, -2); s_-(0, .) of h0 is (0, 1, 1, 0)
    assert d == Fraction(1) * 1 + Fraction(-2) * 1


def test_wronskian_derivative_matches_finite_differences():
    rng = random.Random(3)
    for _ in range(5):
        h0, h1 = random_float_pair(rng, rng.randint(1, 6))
        z = rng.uniform(-2.0, 2.0)
        for eps in (0.0, 1 / 3, 2 / 3, 1.0):
            assert derivative_check(h0, h1, eps, z) == []


def test_angle_derivative_signs_for_sign_definite_perturbation():
    # H1 below H0 entrywise: plus-side angles fall, minus-side angles rise
    rng = random.Random(9)
    for _ in range(5):
        h0, _ = random_float_pair(rng, rng.randint(1, 6))
        h1 = JacobiMatrix(h0.N, h0.a, tuple(b - rng.uniform(0.1, 1.0) for b in h0.b))
        z = rng.uniform(-2.0, 2.0)
        for n in range(h0.N + 1):
            assert pruefer_eps_derivative(h0, h1, 0.5, z, "plus", n) <= 1e-12
            assert pruefer_eps_derivative(h0, h1, 0.5, z, "minus", n) >= -1e-12


def test_signed_crossings_hand_example():
    # 1x1: branch runs 1 -> -1, crossing 0 downward in phase one only
    h0, h1 = pair([Fraction(1)], [Fraction(-1)])
    assert signed_crossing_count(h0, h1, 0.0) == 1
    assert signed_crossing_count(h1, h0, 0.0) == -1
    assert signed_crossing_count(h0, h1, 2.0) == 0
    assert signed_crossing_count(h0, h1, -2.0) == 0


def test_signed_crossings_margin_guard():
    from relosc.errors import MarginViolation

    h0, h1 = pair([Fraction(1)], [Fraction(-1)])
    with pytest.raises(MarginViolation):
        signed_crossing_count(h0, h1, 1.0 + 1e-9, margin=1e-6)


@settings(deadline=None, max_examples=40)
@given(jacobi_st(max_dim=5), st.data())
def test_crossings_match_relative_count(h0, data):
    b1 = tuple(data.draw(fractions_st) for _ in range(h0.dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    lam = data.draw(fractions_st) + Fraction(1, 1000003)  # dodge exact eigenvalues
    from relosc.errors import MarginViolation

    try:
        crossings = signed_crossing_count(h0, h1, float(lam), verify.MARGIN)
    except MarginViolation:
        return  # rare near-degenerate draw; the randomized suites cover volume
    assert crossings == relative_count(h0, h1, lam, lam)


def test_homotopy_failure_report_names_the_float_instance(monkeypatch):
    checked = []

    def failing_check(h0f, h1f, eps, z):
        checked.append((h0f, h1f, eps, z))
        return ["forced failure"]

    monkeypatch.setattr(verify, "derivative_check", failing_check)
    report = verify.homotopy_suite(1, seed=5, max_dim=4)
    (failure,) = report.failures
    (h0f, h1f, eps, z) = checked[0]
    assert failure["checks"][0] == "forced failure"
    assert failure["float_instance"] == {
        "h0": {"N": h0f.N, "a": list(h0f.a), "b": list(h0f.b)},
        "h1": {"N": h1f.N, "a": list(h1f.a), "b": list(h1f.b)},
        "z": z,
        "eps": eps,
    }


def test_derivative_check_reference_has_no_rounding_error():
    # the float finite difference is off by 1.1e-6 (relative) at n=9 on the
    # minus side; the same difference taken exactly is off by 1.6e-8
    a = (-1.4789342669105952, -1.664098858128995, -1.1519676036435693, -0.43422605187492547,
         -2.4613591536117223, -2.242470822164123, -2.2653756007029573)
    b0 = (1.3592581793529632, 0.41255365149954626, -2.3273592379807138, -0.5172769858554136,
          -0.24295806026392786, -1.9490852968983956, 1.8036349221784693, -1.1087123408040265)
    b1 = (-1.5513453516703188, 0.4108977449776843, 1.0810265114270674, -1.526178105735288,
          -1.898540847680672, 1.0380119880048637, -2.297829143335301, -1.2450949115431782)
    h0, h1 = JacobiMatrix(9, a, b0), JacobiMatrix(9, a, b1)
    assert derivative_check(h0, h1, 0.25, 2.292024374001974) == []


def test_derivative_check_flags_a_wrong_closed_form(monkeypatch):
    closed = verify.wronskian_eps_derivative
    monkeypatch.setattr(
        verify, "wronskian_eps_derivative", lambda *args: closed(*args) * (1 + 1e-5)
    )
    h0, h1 = random_float_pair(random.Random(3), 4)
    assert derivative_check(h0, h1, 0.5, 0.7) != []

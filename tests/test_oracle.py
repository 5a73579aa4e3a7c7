import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from relosc.errors import MarginViolation, NonFiniteValue
from relosc.homotopy import signed_crossing_count
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi
from relosc.oracle import (
    OFFDIAG_TOL,
    SpectrumReport,
    _rounds,
    count_below_oracle,
    dense,
    eigenvalues_dense,
    free_matrix_spectrum,
    oracle_count,
)

from test_jacobi import jacobi_st


def test_one_by_one():
    s = eigenvalues_dense(new_jacobi(2, [], [Fraction(5, 2)]))
    assert s.eigenvalues == (2.5,)
    assert isinstance(s.eigenvalues[0], float)


def test_dense_layout():
    m = dense(new_jacobi(3, [Fraction(-2)], [1, 3]))
    assert np.array_equal(m, np.array([[1.0, -2.0], [-2.0, 3.0]]))


def test_free_matrix_closed_form():
    s = eigenvalues_dense(free_matrix(5))
    golden = (-(1 + math.sqrt(5)) / 2, -(math.sqrt(5) - 1) / 2,
              (math.sqrt(5) - 1) / 2, (1 + math.sqrt(5)) / 2)
    assert s.eigenvalues == pytest.approx(golden, abs=1e-12)


def test_nearly_decoupled_matrix():
    # tiny coupling between diag(1, 2): eigenvalues shift by O(a^2)
    s = eigenvalues_dense(new_jacobi(3, [-1e-6], [1, 2]))
    assert s.eigenvalues == pytest.approx((1.0, 2.0), abs=1e-5)


def test_count_below_oracle():
    s = eigenvalues_dense(free_matrix(5))
    assert count_below_oracle(s, 0.0) == 2
    assert count_below_oracle(s, -2.0) == 0
    assert count_below_oracle(s, 2.0) == 4


def test_count_below_oracle_strictness():
    s = SpectrumReport((1.0, 2.0), "fixture", 0.0)
    assert count_below_oracle(s, 1.0, strict=True) == 0
    assert count_below_oracle(s, 1.0, strict=False) == 1


def test_count_below_oracle_margin():
    s = SpectrumReport((1.0,), "fixture", 0.0)
    with pytest.raises(MarginViolation):
        count_below_oracle(s, 1.0 - 1e-9, strict=True, margin=1e-6)
    assert count_below_oracle(s, 1.0 - 1e-3, strict=True, margin=1e-6) == 0


def test_free_matrix_spectrum_small():
    assert free_matrix_spectrum(2) == pytest.approx([0.0], abs=1e-15)
    assert free_matrix_spectrum(3) == pytest.approx([-1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("n_par", [2, 5, 17, 50])
def test_free_matrix_spectrum_matches_oracle(n_par):
    s = eigenvalues_dense(free_matrix(n_par))
    assert list(s.eigenvalues) == pytest.approx(
        free_matrix_spectrum(n_par), abs=1e-10
    )


def test_trace_and_frobenius_random_floats():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 10)
        a = tuple(-rng.uniform(0.1, 3.0) for _ in range(d - 1))
        b = tuple(rng.uniform(-3.0, 3.0) for _ in range(d))
        h = JacobiMatrix(d + 1, a, b)
        s = eigenvalues_dense(h)
        tr = sum(b)
        fro2 = sum(x * x for x in b) + 2 * sum(x * x for x in a)
        scale = max(1.0, abs(tr), fro2)
        assert abs(sum(s.eigenvalues) - tr) <= 1e-10 * scale
        assert abs(sum(e * e for e in s.eigenvalues) - fro2) <= 1e-10 * scale


@settings(deadline=None, max_examples=50)
@given(jacobi_st())
def test_spectrum_is_simple_and_sorted(h):
    # negative off-diagonal entries force a simple spectrum
    s = eigenvalues_dense(h)
    assert len(s.eigenvalues) == h.dim
    for x, y in zip(s.eigenvalues, s.eigenvalues[1:]):
        assert x < y


def test_residual_reported():
    s = eigenvalues_dense(free_matrix(8))
    norm = math.sqrt(2 * 7)  # Frobenius norm of F(8)
    assert 0 <= s.max_offdiag_residual <= 1e-14 * norm


def _frobenius(m):
    """||m||_F without squaring entries that would over- or underflow."""
    top = float(np.max(np.abs(m)))
    return top * math.sqrt(float(np.sum((m / top) ** 2))) if top else 0.0


def _check_against_eigvalsh(h):
    m = dense(h)
    ref, fro = np.linalg.eigvalsh(m), _frobenius(m)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        s = eigenvalues_dense(h)
    assert s.method == "cyclic-plane-rotations"
    assert np.max(np.abs(np.array(s.eigenvalues) - ref)) <= 1e-12 * fro
    assert 0 <= s.max_offdiag_residual <= OFFDIAG_TOL * fro


def _scaled_random(scale):
    rng = random.Random(5)
    a = tuple(-rng.uniform(0.1, 3.0) * scale for _ in range(7))
    b = tuple(rng.uniform(-3.0, 3.0) * scale for _ in range(8))
    return JacobiMatrix(9, a, b)


@pytest.mark.parametrize(
    "h",
    [
        new_jacobi(3, [Fraction("-1e160")], [0, 0]),
        new_jacobi(3, [-1e-200], [1e-200, -1e-200]),
        new_jacobi(7, [-1e200] * 5, [0.0] * 6),
        new_jacobi(7, [-1e-200] * 5, [0.0] * 6),
        _scaled_random(1e250),
        _scaled_random(1e-250),
    ],
    ids=["exact-1e160", "float-1e-200", "free-1e200", "free-1e-200", "random-1e250", "random-1e-250"],
)
def test_extreme_scale_matches_eigvalsh(h):
    # squares of these entries over- or underflow binary64
    _check_against_eigvalsh(h)
    s = eigenvalues_dense(h)
    ref = np.linalg.eigvalsh(dense(h))
    top = np.max(np.abs(ref))  # ||H||_F <= sqrt(dim) * top, computed without squares
    assert np.max(np.abs(np.array(s.eigenvalues) - ref)) <= 1e-12 * top
    assert 0 <= s.max_offdiag_residual <= 1e-14 * math.sqrt(h.dim) * top


@pytest.mark.parametrize(
    "call",
    [
        lambda: eigenvalues_dense(JacobiMatrix(3, (-10**400,), (0, 0))),
        lambda: oracle_count(free_matrix(3), 10**400),
        lambda: signed_crossing_count(free_matrix(3), free_matrix(3), 10**400),
    ],
    ids=["dense-entry", "oracle-count-threshold", "crossing-count-threshold"],
)
def test_value_beyond_binary64_raises_typed_error(call):
    with pytest.raises(NonFiniteValue, match="beyond binary64"):
        call()


@pytest.mark.parametrize("d", range(1, 42))
def test_round_robin_schedule_covers_each_pair_once(d):
    rounds = _rounds(d)
    assert len(rounds) == (d - 1 if d % 2 == 0 else d)
    seen = []
    for p, q in rounds:
        members = [*p.tolist(), *q.tolist()]
        assert len(set(members)) == len(members)  # disjoint pairs
        assert all(0 <= x < d for x in members)
        seen += [(x, y) for x, y in zip(p.tolist(), q.tolist())]
    assert all(x < y for x, y in seen)
    assert sorted(seen) == [(x, y) for x in range(d) for y in range(x + 1, d)]


def _random_float(d, rng):
    a = tuple(-rng.uniform(0.1, 3.0) for _ in range(d - 1))
    b = tuple(rng.uniform(-3.0, 3.0) for _ in range(d))
    return JacobiMatrix(d + 1, a, b)


@pytest.mark.parametrize("d,draws", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (8, 5),
                                     (13, 5), (40, 3), (60, 3), (100, 1), (200, 1)])
def test_round_robin_matches_eigvalsh_on_seeded_draws(d, draws):
    rng = random.Random(1000 + d)
    for _ in range(draws):
        _check_against_eigvalsh(_random_float(d, rng))


@pytest.mark.parametrize(
    "h",
    [
        new_jacobi(3, [-0.5], [1.0, 1.0]),
        new_jacobi(6, [-1.0, -2.0, -0.5, -3.0], [2.0] * 5),
        new_jacobi(3, [-1e-200], [0.0, 1e100]),
        new_jacobi(3, [-1e-320], [1e300, 1.0]),
        new_jacobi(4, [-1.0, -1e-310], [1e300, 1.0, -1e300]),
    ],
    ids=["equal-diagonal-2", "equal-diagonal-5", "coupling-far-below-gap", "scaled-to-zero",
         "scaled-to-zero-inner"],
)
def test_rotation_edge_cases_match_eigvalsh_without_warnings(h):
    # equal diagonals rotate by pi/4; a coupling 1e-300 times the gap took the
    # old large-tau branch; 1e-320 and 1e-310 turn into exact zeros when the
    # copy is scaled by 2**-997
    _check_against_eigvalsh(h)

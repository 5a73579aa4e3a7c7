import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relosc.errors import (
    CoefficientMismatch,
    InconsistentSigns,
    IndexOutOfRange,
    NearEigenvalueWarning,
    NonFiniteValue,
)
from relosc import oracle, verify
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi
from relosc.oracle import free_matrix_spectrum
from relosc.oscillation import (
    count_below,
    count_nodes,
    is_eigenvalue,
    is_node,
    relative_count,
    relative_count_report,
    weighted_node_count,
    weighted_node_indicator,
    weighted_node_report,
)
from relosc.numeric import classify
from relosc.recurrence import (
    SolutionSequence,
    WronskianSequence,
    _int_solve,
    _int_wronskian,
    _scaled_equations,
    _wronskian_signs,
    solve_minus,
    solve_plus,
    wronskian_pair,
)

from test_jacobi import fractions_st, jacobi_st


def custom(values, z=0):
    return SolutionSequence(z, "custom", tuple(values), len(values) - 2)


OSC = custom([0, 1, 0, -1, 0, 1, 0])  # s_-(0, .) of F(5)


def test_is_node_zero_value():
    assert is_node(OSC, 2)


def test_is_node_zero_right_neighbour_is_not_a_node():
    assert not is_node(OSC, 3)  # u(3) = -1, u(3) u(4) = 0


def test_is_node_sign_flip():
    assert is_node(custom([0, 1, -1, 1]), 1)


def test_is_node_range_check():
    with pytest.raises(IndexOutOfRange):
        is_node(OSC, 6)


def test_count_nodes_free_matrix():
    assert count_nodes(OSC, 0, 5) == 2  # node at 0 excluded: u(0) = 0


def test_count_nodes_left_endpoint_counts_when_nonzero():
    assert count_nodes(custom([1, -1, 1, -1]), 0, 2) == 2


def test_count_nodes_positive_solution():
    assert count_nodes(custom([0, 1, 2, 3]), 0, 2) == 0


def test_count_nodes_range_check():
    with pytest.raises(IndexOutOfRange):
        count_nodes(OSC, 3, 3)


def test_count_below_free_matrix():
    assert count_below(free_matrix(5), 0) == 2
    assert count_below(free_matrix(5), -2) == 0
    assert count_below(free_matrix(5), 2) == 4


def test_count_below_one_by_one():
    assert count_below(new_jacobi(2, [], [Fraction(3)]), 4) == 1


def test_is_eigenvalue():
    assert is_eigenvalue(new_jacobi(2, [], [Fraction(0)]), 0)
    assert not is_eigenvalue(new_jacobi(2, [], [Fraction(0)]), 1)
    assert not is_eigenvalue(free_matrix(5), 0)
    # F(3) has the rational spectrum {-1, 1}
    assert is_eigenvalue(free_matrix(3), 1)
    assert is_eigenvalue(free_matrix(3), -1)


def test_weighted_indicator_plus_one():
    h0, h1 = new_jacobi(2, [], [Fraction(1)]), new_jacobi(2, [], [Fraction(-1)])
    w = wronskian_pair(h0, h1, solve_minus(h0, 0), solve_plus(h1, 0))
    assert weighted_node_indicator(w, 0) == 1


def test_weighted_indicator_minus_one():
    h0, h1 = new_jacobi(2, [], [Fraction(0)]), new_jacobi(2, [], [Fraction(1)])
    w = wronskian_pair(h0, h1, solve_minus(h0, 0), solve_plus(h1, 0))
    assert w.values[:2] == (-1, 0)
    assert w.b_diff[0] == -1
    assert weighted_node_indicator(w, 0) == -1


def test_weighted_indicator_zero_for_flat_wronskian():
    w = WronskianSequence((1, 1, 1), (0, 0))
    assert weighted_node_indicator(w, 0) == 0
    assert weighted_node_indicator(w, 1) == 0


def test_weighted_indicator_asymmetric_zero_clauses():
    # one-sided zeros: entering a zero counts only for negative weight,
    # leaving a zero only for positive weight
    assert weighted_node_indicator(WronskianSequence((1, 0), (1,)), 0) == 0
    assert weighted_node_indicator(WronskianSequence((1, 0), (-1,)), 0) == -1
    assert weighted_node_indicator(WronskianSequence((0, 1), (1,)), 0) == 1
    assert weighted_node_indicator(WronskianSequence((0, 1), (-1,)), 0) == 0


def test_weighted_indicator_range_check():
    with pytest.raises(IndexOutOfRange):
        weighted_node_indicator(WronskianSequence((1, 0), (1,)), 1)


def test_inconsistent_signs_detected():
    with pytest.raises(InconsistentSigns):
        weighted_node_indicator(WronskianSequence((1, -1), (0,)), 0)
    with pytest.raises(InconsistentSigns):
        weighted_node_indicator(WronskianSequence((1, 0), (0,)), 0)


def test_weighted_count_identical_matrices_at_eigenvalue():
    h = new_jacobi(2, [], [Fraction(0)])
    w = wronskian_pair(h, h, solve_minus(h, 0), solve_plus(h, 0))
    assert all(v == 0 for v in w.values)
    assert weighted_node_count(w) == -1


def test_weighted_count_hand_example():
    h0, h1 = new_jacobi(2, [], [Fraction(1)]), new_jacobi(2, [], [Fraction(-1)])
    w = wronskian_pair(h0, h1, solve_minus(h0, 0), solve_plus(h1, 0))
    assert weighted_node_count(w) == 1


def test_weighted_count_identical_matrices_off_spectrum():
    h = free_matrix(5)
    w = wronskian_pair(h, h, solve_minus(h, 0), solve_plus(h, 0))
    assert weighted_node_count(w) == 0


def test_weighted_report_details():
    h0, h1 = new_jacobi(2, [], [Fraction(1)]), new_jacobi(2, [], [Fraction(-1)])
    w = wronskian_pair(h0, h1, solve_minus(h0, 0), solve_plus(h1, 0))
    rep = weighted_node_report(w)
    assert rep.count == sum(rep.details) + rep.boundary_correction


def test_relative_count_fixtures():
    z = new_jacobi(2, [], [Fraction(0)])
    assert relative_count(z, z, 0, 0) == -1
    one, neg = new_jacobi(2, [], [Fraction(1)]), new_jacobi(2, [], [Fraction(-1)])
    assert relative_count(one, neg, 0, 0) == 1
    assert relative_count(free_matrix(5), free_matrix(5), 0, 0) == 0


def test_relative_count_requires_shared_a():
    h0 = new_jacobi(3, [Fraction(-1)], [0, 0])
    h1 = new_jacobi(3, [Fraction(-2)], [0, 0])
    with pytest.raises(CoefficientMismatch):
        relative_count(h0, h1, 0, 0)


def shifted_free(N, shift):
    """F(N) + shift, with spectrum shift - 2cos(k pi / N)."""
    return JacobiMatrix(N, (-1,) * (N - 2), (shift,) * (N - 1))


def closed_form_below(N, shift, lam, strict=True):
    # the spectrum lies in (shift-2, shift+2) with spacing >= 2e-3 near
    # shift -+ 1 for N <= 2001, so a closed-form value within 1e-9 of lam
    # is lam itself (k = N/3 and 2N/3 hit 99 and 101 exactly)
    eigs = [shift + e for e in free_matrix_spectrum(N)]
    if strict:
        return sum(1 for e in eigs if e < lam - 1e-9)
    return sum(1 for e in eigs if e <= lam + 1e-9)


@pytest.mark.parametrize("N", [201, 2001])
def test_exact_count_below_beyond_float_range(N):
    # exact solutions here outgrow binary64, so no sign may pass through float()
    h = shifted_free(N, 100)
    for lam in (0, 99, 101, 103):
        assert count_below(h, lam) == closed_form_below(N, 100, lam)


def test_exact_relative_count_beyond_float_range():
    N = 201
    h100, h99 = shifted_free(N, 100), shifted_free(N, 99)
    for lam in (0, 99, 101, 103):
        assert relative_count(h100, h99, lam, lam) == (
            closed_form_below(N, 99, lam) - closed_form_below(N, 100, lam, strict=False)
        )


def _threshold_off(rng, *spectra):
    """A verify-style rational threshold at least 1e-6 from every reference
    eigenvalue, redrawn on the reference alone."""
    while True:
        lam = verify.rand_fraction(rng)
        if all(np.min(np.abs(e - float(lam))) >= 1e-6 for e in spectra):
            return lam


@pytest.mark.parametrize("dim, seed", [(200, 1), (200, 2), (200, 3), (1000, 4)])
def test_exact_counts_on_random_pairs_at_large_dimension(dim, seed):
    rng = random.Random(seed)
    h0, h1 = verify.random_pair(rng, dim)
    e0, e1 = (np.linalg.eigvalsh(oracle.dense(h)) for h in (h0, h1))
    lam = _threshold_off(rng, e0, e1)
    lam0, lam1 = _threshold_off(rng, e0), _threshold_off(rng, e1)
    assert count_below(h0, lam) == np.sum(e0 < float(lam))
    assert count_below(h1, lam1) == np.sum(e1 < float(lam1))
    for l0, l1 in ((lam, lam), (lam0, lam1)):
        expected = np.sum(e1 < float(l1)) - np.sum(e0 <= float(l0))
        assert relative_count(h0, h1, l0, l1) == expected


@pytest.mark.parametrize("seed", [5, 6])
def test_exact_relative_count_on_random_pairs_at_dimension_2000(seed):
    rng = random.Random(seed)
    h0, h1 = verify.random_pair(rng, 2000)
    e0, e1 = (np.linalg.eigvalsh(oracle.dense(h)) for h in (h0, h1))
    lam = _threshold_off(rng, e0, e1)
    expected = np.sum(e1 < float(lam)) - np.sum(e0 <= float(lam))
    assert relative_count(h0, h1, lam, lam) == expected


def _signs(values):
    return classify(values)[0]


def _large_primes(count, start=10**6):
    out, n = [], start
    while len(out) < count:
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


LARGE_PRIMES = _large_primes(64)


def _coprime_fraction(rng, negative=False):
    q = rng.choice(LARGE_PRIMES)
    return Fraction(-rng.randint(1, 3 * q) if negative else rng.randint(-3 * q, 3 * q), q)


def _sign_instance(rng, kind, dim):
    """(h0, h1, lam0): a pair sharing a and a threshold for H0, of one kind."""
    if kind == "random":
        return (*verify.random_pair(rng, dim), verify.rand_fraction(rng))
    if kind == "free":  # H1 = H0, with thresholds that are often eigenvalues
        h = free_matrix(dim + 1)
        return h, h, rng.choice([0, 1, -1, verify.rand_fraction(rng)])
    if kind == "forced":  # lam0 is an eigenvalue of H0
        lam0 = verify.rand_fraction(rng)
        h0 = None
        while h0 is None:
            h0 = verify._forced_eigenvalue_matrix(rng, dim, lam0)
        b1 = tuple(verify.rand_fraction(rng) for _ in range(dim))
        return h0, JacobiMatrix(h0.N, h0.a, b1), lam0
    # "coprime": every denominator a prime above 10**6, so K(n) is a product of several
    a = tuple(_coprime_fraction(rng, negative=True) for _ in range(dim - 1))
    b0, b1 = (tuple(_coprime_fraction(rng) for _ in range(dim)) for _ in range(2))
    return JacobiMatrix(dim + 1, a, b0), JacobiMatrix(dim + 1, a, b1), _coprime_fraction(rng)


@pytest.mark.parametrize("dim, draws", [(1, 12), (2, 12), (3, 12), (10, 6), (200, 1)])
@pytest.mark.parametrize("kind", ["random", "forced", "free", "coprime"])
def test_integer_signs_match_fraction_signs_index_by_index(kind, dim, draws):
    rng = random.Random(f"{kind}:{dim}")
    for _ in range(draws):
        h0, h1, lam0 = _sign_instance(rng, kind, dim)
        lam_other = _coprime_fraction(rng) if kind == "coprime" else verify.rand_fraction(rng)
        for lam1 in (lam0, lam_other):
            up, down, c0, c1 = _scaled_equations(h0, h1, lam0, lam1)
            m0, p0 = solve_minus(h0, lam0), solve_plus(h0, lam0)
            m1, p1 = solve_minus(h1, lam1), solve_plus(h1, lam1)
            for c, m, p in ((c0, m0, p0), (c1, m1, p1)):
                assert _signs(_int_solve(up, down, c, "minus")) == _signs(m.values)
                assert _signs(_int_solve(up, down, c, "plus")) == _signs(p.values)
            w_a, w_b = wronskian_pair(h0, h1, m0, p1), wronskian_pair(h0, h1, p0, m1)
            assert _signs(_int_wronskian(up, down, c0, c1)) == _signs(w_a.values)
            assert [-s for s in _signs(_int_wronskian(up, down, c1, c0))] == _signs(w_b.values)
            expected = weighted_node_report(w_a), weighted_node_report(w_b)
            assert relative_count_report(h0, h1, lam0, lam1) == expected


@pytest.mark.parametrize("dim", [1, 2, 10, 60, 200])
@pytest.mark.parametrize("kind", ["float", "mixed"])
def test_float_wronskian_signs_match_classify_index_by_index(kind, dim):
    # any input that is not exact takes the solutions and classify, never the integer loops
    rng = random.Random(f"{kind}:{dim}")
    for _ in range(4):
        if kind == "float":
            h0, h1 = verify.random_float_pair(rng, dim)
            lam0, lam_other = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        else:  # exact matrices with a float threshold, and once an exact lambda1
            h0, h1 = verify.random_pair(rng, dim)
            lam0, lam_other = float(verify.rand_fraction(rng)), verify.rand_fraction(rng)
        for lam1 in (lam0, lam_other):
            w_a = wronskian_pair(h0, h1, solve_minus(h0, lam0), solve_plus(h1, lam1))
            w_b = wronskian_pair(h0, h1, solve_plus(h0, lam0), solve_minus(h1, lam1))
            assert _signs(w_b.b_diff) == _signs(w_a.b_diff)
            expected = _signs(w_a.values), _signs(w_b.values), _signs(w_a.b_diff)
            assert _wronskian_signs(h0, h1, lam0, lam1) == expected


def test_relative_count_at_a_forced_eigenvalue_at_large_dimension():
    # b(N-1) of H0 has a denominator of 1337 digits.  Scaling every equation
    # by one lcm of all denominators would carry those digits into every
    # step, the integers would grow quadratically in N, and the count would
    # take many times the bound below.
    rng = random.Random(1)
    lam0 = verify.rand_fraction(rng)
    h0 = verify._forced_eigenvalue_matrix(rng, 1000, lam0)
    h1 = JacobiMatrix(h0.N, h0.a, tuple(verify.rand_fraction(rng) for _ in range(1000)))
    lam1 = verify.rand_fraction(rng)
    assert len(str(h0.b[-1].denominator)) >= 1000
    start = time.perf_counter()
    counts = relative_count(h0, h1, lam0, lam0), relative_count(h0, h1, lam0, lam1)
    elapsed = time.perf_counter() - start
    # the answers of the Fraction-based relative count
    assert counts == (7, -247)
    assert elapsed < 1.0


@settings(deadline=None)
@given(jacobi_st(), fractions_st)
def test_swap_sanity(h, lam):
    expected = -1 if is_eigenvalue(h, lam) else 0
    assert relative_count(h, h, lam, lam) == expected


@settings(deadline=None)
@given(jacobi_st(), st.data())
def test_pairing_symmetry_and_terminal_indicator(h0, data):
    b1 = tuple(data.draw(fractions_st) for _ in range(h0.dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    lam0 = data.draw(fractions_st)
    lam1 = data.draw(fractions_st)
    rep_a, rep_b = relative_count_report(h0, h1, lam0, lam1)
    assert rep_a.count == rep_b.count
    # each pairing has a plus solution, which vanishes at N, so W_N = W_{N-1}
    # and the last indicator always vanishes
    assert rep_a.details[-1] == 0
    assert rep_b.details[-1] == 0


FREE4_FLOAT = new_jacobi(4, [-1.0, -1.0], [0.0, 0.0, 0.0])  # spectrum -sqrt2, 0, sqrt2


def test_float_threshold_in_tolerance_band_warns():
    # s_-(sqrt2, 4) is -6.7e-16 in binary64: inside the band, so counted as a zero
    with pytest.warns(NearEigenvalueWarning):
        assert count_below(FREE4_FLOAT, math.sqrt(2)) == 2
    with pytest.warns(NearEigenvalueWarning):
        assert is_eigenvalue(FREE4_FLOAT, math.sqrt(2))


def test_exact_eigenvalue_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_eigenvalue(free_matrix(4), 0)
        assert count_below(free_matrix(4), 0) == 1


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_count_below_rejects_non_finite_threshold(lam):
    with pytest.raises(NonFiniteValue):
        count_below(FREE4_FLOAT, lam)


def test_exact_threshold_beyond_binary64_on_exact_matrix():
    assert count_below(free_matrix(4), 10**400) == 3


def test_relative_count_rejects_nan_thresholds():
    with pytest.raises(NonFiniteValue):
        relative_count(FREE4_FLOAT, FREE4_FLOAT, math.nan, math.nan)


@pytest.mark.parametrize(
    "values",
    [[1.0, math.nan, -1.0], [1.0, 1e300, math.inf, -2.0], [-math.inf, Fraction(1, 3)]],
    ids=["nan", "inf", "minus-inf"],
)
def test_classify_rejects_non_finite_floats(values):
    # NaN has no sign, and one inf would raise the zero bar of its whole sequence to inf
    with pytest.raises(NonFiniteValue):
        classify(values)


def test_count_below_raises_when_the_float_solution_overflows():
    # s_-(0, .) is (0, 1, inf, -inf, -inf, nan): no count can be read from its signs
    h = new_jacobi(4, [-1e-200, -1e-200], [1e200, -1e200, 1e200])
    assert oracle.oracle_count(h, 0.0) == 1
    with pytest.raises(NonFiniteValue):
        count_below(h, 0.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_float_counts_at_dimension_2000_raise_rather_than_answer(seed):
    rng = random.Random(seed)
    h0, h1 = verify.random_float_pair(rng, 2000)
    lam = rng.uniform(-4.0, 4.0)
    with pytest.raises(NonFiniteValue):
        count_below(h0, lam)
    with pytest.raises(NonFiniteValue):
        relative_count(h0, h1, lam, lam)

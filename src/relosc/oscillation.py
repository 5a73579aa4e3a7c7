"""Exact sign-based node counting and the two theorem-level counts.

``count_below`` realizes the classical result: the number of nodes of the
forward solution s_-(lambda, .) equals the number of eigenvalues below
lambda.  ``relative_count`` realizes the relative version: the number of
weighted nodes of the Wronskian of s_{0,-}(lambda0) and s_{1,+}(lambda1)
equals #{E in sigma(H1): E < lambda1} - #{E in sigma(H0): E <= lambda0}.

The relative count only reads signs: it takes its Wronskian signs from
``recurrence._wronskian_signs``, which decides how they are computed
(fraction-free integers when every input is exact).  In exact
mode every sign decision is error-free; in float mode signs are classified
under the ``numeric`` tolerance policy and near-zero classifications emit
``NearEigenvalueWarning``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InconsistentSigns,
    NearEigenvalueWarning,
    PairingDisagreement,
)
from .jacobi import JacobiMatrix, require_compatible
from .numeric import Number, classify, render
from .recurrence import SolutionSequence, WronskianSequence, _wronskian_signs, solve_minus


@dataclass(frozen=True)
class CountReport:
    """A count together with the per-index indicators that produced it."""

    count: int
    details: tuple  # per-index indicator list
    boundary_correction: int = 0


def _is_node(signs: list, n: int) -> bool:
    return signs[n] == 0 or signs[n] * signs[n + 1] < 0


def _count_nodes(signs: list, m: int, n: int) -> int:
    # the node at m counts only when u(m) != 0, i.e. for a sign flip at m
    return sum(_is_node(signs, n0) for n0 in range(m + 1, n)) + (signs[m] * signs[m + 1] < 0)


def is_node(u: SolutionSequence, n: int) -> bool:
    """n is a node iff u(n) = 0 or u(n) u(n+1) < 0."""
    if not 0 <= n <= u.N:
        raise IndexOutOfRange(f"node index {render(n)} outside 0..{u.N}")
    return _is_node(classify(u.values)[0], n)


def count_nodes(u: SolutionSequence, m: int, n: int) -> int:
    """Nodes lying between m and n: those with m < n0 < n, plus the node at
    m itself when u(m) != 0."""
    if not 0 <= m < n <= u.N:
        raise IndexOutOfRange(f"need 0 <= m < n <= {u.N}, got ({render(m)}, {render(n)})")
    return _count_nodes(classify(u.values)[0], m, n)


def _minus_signs(h: JacobiMatrix, lam: Number) -> list:
    """Signs of s_-(lambda, .), warning when s_-(lambda, N) is in the band."""
    signs, band = classify(solve_minus(h, lam).values)
    if band[h.N]:
        warnings.warn(
            "s_-(lambda, N) is inside the tolerance band; lambda may be an eigenvalue",
            NearEigenvalueWarning,
            stacklevel=3,
        )
    return signs


def count_below(h: JacobiMatrix, lam: Number) -> int:
    """Number of eigenvalues of H strictly below lambda (Sturm-type count)."""
    return _count_nodes(_minus_signs(h, lam), 0, h.N)


def is_eigenvalue(h: JacobiMatrix, lam: Number) -> bool:
    """True iff s_-(lambda, N) = 0; exact only in rational mode."""
    return _minus_signs(h, lam)[h.N] == 0


def _indicator_from_signs(sw_n: int, sw_n1: int, sb: int) -> int:
    if sb == 0:
        if sw_n * sw_n1 < 0 or (sw_n == 0) != (sw_n1 == 0):
            raise InconsistentSigns(
                "Wronskian sign change with b_diff = 0 is impossible; "
                "in float mode this signals a tolerance failure"
            )
        return 0
    if sb > 0 and (sw_n * sw_n1 < 0 or (sw_n == 0 and sw_n1 != 0)):
        return 1
    if sb < 0 and (sw_n * sw_n1 < 0 or (sw_n != 0 and sw_n1 == 0)):
        return -1
    return 0


def weighted_node_indicator(w: WronskianSequence, n: int) -> int:
    """Weighted node indicator in {-1, 0, +1} at index 0 <= n <= N-1, read
    from the whole report: an impossible sign pattern anywhere in w raises."""
    if not 0 <= n <= w.N - 1:
        raise IndexOutOfRange(f"indicator index {render(n)} outside 0..{w.N - 1}")
    return weighted_node_report(w).details[n]


def _report(sw: list, sb: list) -> CountReport:
    """The weighted-node report from the signs of W_0..W_N and b_diff(1..N)."""
    indicators = tuple(
        _indicator_from_signs(sw[n], sw[n + 1], sb[n]) for n in range(len(sw) - 1)
    )
    correction = -1 if sw[0] == 0 else 0
    return CountReport(sum(indicators) + correction, indicators, correction)


def weighted_node_report(w: WronskianSequence) -> CountReport:
    return _report(classify(w.values)[0], classify(w.b_diff)[0])


def weighted_node_count(w: WronskianSequence) -> int:
    """Sum of weighted node indicators, minus 1 when W_0 = 0."""
    return weighted_node_report(w).count


def relative_count_report(
    h0: JacobiMatrix, h1: JacobiMatrix, lam0: Number, lam1: Number
):
    """Both solution pairings of the relative count, with details."""
    require_compatible(h0, h1)
    sw_a, sw_b, sb = _wronskian_signs(h0, h1, lam0, lam1)
    return _report(sw_a, sb), _report(sw_b, sb)


def relative_count(h0: JacobiMatrix, h1: JacobiMatrix, lam0: Number, lam1: Number) -> int:
    """#{E in sigma(H1): E < lambda1} - #{E in sigma(H0): E <= lambda0}.

    Computed from both solution pairings, which must agree; disagreement is
    always a bug or a float-tolerance breach.
    """
    rep_a, rep_b = relative_count_report(h0, h1, lam0, lam1)
    if rep_a.count != rep_b.count:
        raise PairingDisagreement(
            f"pairings disagree: {rep_a.count} vs {rep_b.count} "
            f"(indicators {rep_a.details} vs {rep_b.details})"
        )
    return rep_a.count

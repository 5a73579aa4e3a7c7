"""Interpolation between two Jacobi matrices and spectral-flow machinery.

Along the linear path H_eps = (1-eps) H0 + eps H1 the derivative of a
solution's Wronskian with itself has a closed-sum formula, the Prüfer
angle derivative follows from it, and for sign-definite diagonal
perturbations the eigenvalue branches are monotone.  The two-phase path
first removes the positive part of b0 - b1 (a negative perturbation down
to the entrywise-minimum diagonal) and then adds the negative part (a
positive perturbation up to H1), so each phase is monotone and signed
threshold crossings reproduce the relative count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EpsOutOfRange, IndexOutOfRange
from .jacobi import JacobiMatrix, interpolate, require_compatible
from .numeric import Number, render
from .oracle import _margin_guard, eigenvalues_dense
from .recurrence import solve_minus, solve_plus


@dataclass(frozen=True)
class PerturbationSplit:
    """Entrywise positive/negative parts of b0 - b1 (indices 1..N-1)."""

    b_plus: tuple
    b_minus: tuple


@dataclass(frozen=True)
class BranchTable:
    """Sorted eigenvalues of H_eps, one row per grid point."""

    grid: tuple
    branches: tuple  # rows of sorted eigenvalues


def split_perturbation(h0: JacobiMatrix, h1: JacobiMatrix) -> PerturbationSplit:
    """b0 - b1 = b_plus - b_minus with b_plus, b_minus >= 0 and minimal."""
    require_compatible(h0, h1)
    diff = [x - y for x, y in zip(h0.b, h1.b)]
    b_plus = tuple(d if d > 0 else 0 * d for d in diff)
    b_minus = tuple(-d if d < 0 else 0 * d for d in diff)
    return PerturbationSplit(b_plus, b_minus)


def lower_matrix(h0: JacobiMatrix, h1: JacobiMatrix) -> JacobiMatrix:
    """Intermediate operator H0 - b_plus, i.e. the entrywise minimum of the
    diagonals; it sits below both endpoints."""
    split = split_perturbation(h0, h1)
    b = tuple(x - p for x, p in zip(h0.b, split.b_plus))
    return JacobiMatrix(h0.N, h0.a, b)


def two_phase_path(h0: JacobiMatrix, h1: JacobiMatrix, eps: Number) -> JacobiMatrix:
    """Piecewise-linear path H0 -> H_low -> H1 parametrized over [0, 1]."""
    require_compatible(h0, h1)
    if not 0 <= eps <= 1:
        raise EpsOutOfRange(f"eps = {render(eps)} outside [0, 1]")
    h_low = lower_matrix(h0, h1)
    if 2 * eps <= 1:
        return interpolate(h0, h_low, 2 * eps)
    return interpolate(h_low, h1, 2 * eps - 1)


def eigenvalue_branches(
    h0: JacobiMatrix,
    h1: JacobiMatrix,
    grid: Sequence[float],
    path: str = "linear",
) -> BranchTable:
    """Oracle spectrum at every grid point, rows sorted ascending."""
    require_compatible(h0, h1)
    if path not in ("linear", "two-phase"):
        raise ValueError(f"unknown path kind {path!r}")
    point = interpolate if path == "linear" else two_phase_path
    rows = tuple(eigenvalues_dense(point(h0, h1, eps)).eigenvalues for eps in grid)
    return BranchTable(tuple(float(e) for e in grid), rows)


def _w_dot(h0: JacobiMatrix, h1: JacobiMatrix, eps: Number, z: Number, side: str, n: int):
    """(W_n(u, du/d_eps), u) for u = s_{eps,side}(z): one interpolation, one
    solve and one closed sum, over m > n on the plus side and m <= n on the
    minus side."""
    require_compatible(h0, h1)
    if not 0 <= n <= h0.N:
        raise IndexOutOfRange(f"n = {render(n)} outside 0..{h0.N}")
    h_eps = interpolate(h0, h1, eps)
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    u = (solve_plus if side == "plus" else solve_minus)(h_eps, z)
    ms = range(n + 1, h0.N + 1) if side == "plus" else range(1, n + 1)
    w = sum((h0.extended_b(m) - h1.extended_b(m)) * u.values[m] ** 2 for m in ms)
    return (-w if side == "plus" else w), u


def wronskian_eps_derivative(
    h0: JacobiMatrix,
    h1: JacobiMatrix,
    eps: Number,
    z: Number,
    side: str,
    n: int,
) -> Number:
    """W_n(s_{eps,side}, d/d_eps s_{eps,side}) via the closed sums

        side plus:  - sum_{m=n+1}^{N} (b0(m) - b1(m)) s_{eps,+}(z, m)^2
        side minus: + sum_{m=1}^{n}   (b0(m) - b1(m)) s_{eps,-}(z, m)^2
    """
    return _w_dot(h0, h1, eps, z, side, n)[0]


def pruefer_eps_derivative(
    h0: JacobiMatrix,
    h1: JacobiMatrix,
    eps: Number,
    z: Number,
    side: str,
    n: int,
) -> Number:
    """d(theta_eps)(n)/d_eps = -W_n(u, du/d_eps) / (a(n) rho^2(n))."""
    w_dot, u = _w_dot(h0, h1, eps, z, side, n)
    rho_sq = u.values[n] ** 2 + u.values[n + 1] ** 2
    return -w_dot / (h0.extended_a(n) * rho_sq)


def signed_crossing_count(
    h0: JacobiMatrix, h1: JacobiMatrix, lam: float, margin: float = 0.0
) -> int:
    """Net signed crossings of eigenvalue branches through lambda along the
    two-phase path: down-crossings in the decreasing first phase count +1,
    up-crossings in the increasing second phase count -1.

    Each phase is monotone and the spectrum stays simple, so one endpoint
    comparison per branch and phase is exact; no refinement is needed.
    """
    h_low = lower_matrix(h0, h1)
    eig0 = eigenvalues_dense(h0).eigenvalues
    eig_low = eigenvalues_dense(h_low).eigenvalues
    eig1 = eigenvalues_dense(h1).eigenvalues
    _margin_guard((*eig0, *eig_low, *eig1), lam, margin)
    down = sum(1 for s, e in zip(eig0, eig_low) if s > lam > e)
    up = sum(1 for s, e in zip(eig_low, eig1) if s < lam < e)
    return down - up

"""Independent brute-force eigensolver used as ground truth.

The oracle diagonalizes the dense symmetric matrix by cyclic plane
rotations and deliberately shares no logic with the counting machinery:
no node counts, no Sturm chains, no inertia of shifted factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MarginViolation, NoConvergence, NonFiniteValue
from .jacobi import JacobiMatrix

OFFDIAG_TOL = 1e-14
MAX_SWEEPS = 100
MARGIN = 1e-6  # guard band between a threshold and the oracle's eigenvalues


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues with method metadata."""

    eigenvalues: tuple
    method: str
    max_offdiag_residual: float


def _binary64(x, what: str) -> float:
    """float(x), raising NonFiniteValue for an exact x beyond binary64."""
    try:
        return float(x)
    except OverflowError:
        raise NonFiniteValue(f"{what} is beyond binary64") from None


def dense(h: JacobiMatrix) -> np.ndarray:
    """Dense float64 matrix of H; an exact entry beyond binary64 raises
    NonFiniteValue."""
    d = h.dim
    m = np.zeros((d, d))
    for i in range(d):
        m[i, i] = _binary64(h.b[i], f"b({i + 1})")
        if i + 1 < d:
            m[i, i + 1] = m[i + 1, i] = _binary64(h.a[i], f"a({i + 1})")
    return m


def _offdiag_norm(m: np.ndarray) -> float:
    off = m - np.diag(np.diag(m))
    return math.sqrt(np.sum(off * off))


def eigenvalues_dense(h: JacobiMatrix) -> SpectrumReport:
    """Full spectrum via cyclic plane-rotation (Jacobi) diagonalization.

    Sweeps until the off-diagonal Frobenius mass drops below
    1e-14 * ||H||_F, capped at 100 sweeps.  The rotations run on a copy
    scaled by a power of two so that its largest |entry| lies in [1/2, 1),
    where no square over- or underflows; the scaling is exact, so it
    changes no spectrum that was computable without it.
    """
    m = dense(h)
    _, exp = math.frexp(np.max(np.abs(m)))
    m = np.ldexp(m, -exp)
    d = m.shape[0]
    norm = math.sqrt(np.sum(m * m))
    threshold = OFFDIAG_TOL * norm
    off = _offdiag_norm(m)
    for _ in range(MAX_SWEEPS):
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = float(m[p, q])
                if apq == 0.0:
                    continue
                # rotation annihilating m[p, q]
                tau = (float(m[q, q]) - float(m[p, p])) / (2.0 * apq)
                if abs(tau) > 1e150:  # tau*tau would overflow; use the limit
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
                m[p, q] = m[q, p] = 0.0
        off = _offdiag_norm(m)
    else:
        raise NoConvergence(f"off-diagonal mass {math.ldexp(off, exp)} after {MAX_SWEEPS} sweeps")

    eigs = tuple(sorted(math.ldexp(float(x), exp) for x in np.diag(m)))
    return SpectrumReport(eigs, "cyclic-plane-rotations", math.ldexp(off, exp))


def _margin_guard(eigenvalues, lam: float, margin: float) -> None:
    """Raise MarginViolation when an eigenvalue lies within margin of lambda."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    x = _binary64(lam, "threshold")
    for e in eigenvalues:
        if abs(e - x) < margin:
            raise MarginViolation(f"eigenvalue {e} within {margin} of {lam}")


def count_below_oracle(
    s: SpectrumReport, lam: float, strict: bool = True, margin: float = 0.0
) -> int:
    """Number of eigenvalues < lambda (strict) or <= lambda (non-strict).

    Raises MarginViolation when any eigenvalue lies within ``margin`` of
    lambda, where the float comparison would be unreliable.
    """
    _margin_guard(s.eigenvalues, lam, margin)
    if strict:
        return sum(1 for e in s.eigenvalues if e < lam)
    return sum(1 for e in s.eigenvalues if e <= lam)


def oracle_count(h: JacobiMatrix, lam, strict: bool = True) -> int:
    """The oracle's #{E < lambda}, or #{E <= lambda} when not strict, behind the MARGIN guard."""
    return count_below_oracle(eigenvalues_dense(h), _binary64(lam, "threshold"), strict, MARGIN)


def oracle_relative_count(h0: JacobiMatrix, h1: JacobiMatrix, lam0, lam1) -> int:
    """The oracle's value of relative_count, behind the same margin guard."""
    return oracle_count(h1, lam1) - oracle_count(h0, lam0, strict=False)


def free_matrix_spectrum(N: int) -> list:
    """Closed-form spectrum {-2 cos(k pi / N): k = 1..N-1} of the free matrix."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return [-2.0 * math.cos(math.pi * k / N) for k in range(1, N)]

"""Independent brute-force eigensolver used as ground truth.

The oracle diagonalizes the dense symmetric matrix by cyclic plane
rotations in round-robin order (disjoint pairs rotate together; each pair
still comes up once per sweep) and deliberately shares no logic with the
counting machinery: no node counts, no Sturm chains, no inertia of shifted
factorizations.
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


def _rounds(d: int) -> list:
    """Round-robin ("circle method") rounds of disjoint pairs (P, Q), P < Q < d:
    d - 1 rounds for even d, d for odd d, meeting every pair p < q once."""
    n = d + d % 2  # odd d: index d is a dummy whose pairs are dropped
    ring = np.arange(1, n)
    order = np.array([np.concatenate(([0], np.roll(ring, r))) for r in range(n - 1)])
    lo, hi = order[:, : n // 2], order[:, : n // 2 - 1 : -1]
    P, Q = np.minimum(lo, hi), np.maximum(lo, hi)
    return [(p[q < d], q[q < d]) for p, q in zip(P, Q)]


@np.errstate(under="ignore")  # entries far below the scale flush to zero
def eigenvalues_dense(h: JacobiMatrix) -> SpectrumReport:
    """Full spectrum via cyclic plane-rotation (Jacobi) diagonalization.

    Each sweep is still cyclic: it meets every pair p < q once, in the
    round-robin order of ``_rounds``, and rotates the disjoint pairs of a
    round together (Brent and Luk 1985), each by the smaller angle that
    annihilates m[p, q].  Sweeps until the off-diagonal Frobenius mass drops
    below 1e-14 * ||H||_F, capped at 100 sweeps.  The rotations run on a copy
    scaled by a power of two so that its largest |entry| lies in [1/2, 1),
    where no square overflows; the scaling is exact, so it changes no
    spectrum that was computable without it.
    """
    m = dense(h)
    _, exp = math.frexp(np.max(np.abs(m)))
    m = np.ldexp(m, -exp)
    d = m.shape[0]
    norm = math.sqrt(np.sum(m * m))
    threshold = OFFDIAG_TOL * norm
    off = _offdiag_norm(m)
    rounds = _rounds(d)
    for _ in range(MAX_SWEEPS):
        if off <= threshold:
            break
        for P, Q in rounds:
            apq = m[P, Q]
            g = 0.5 * (m[Q, Q] - m[P, P])
            den = g + np.copysign(np.hypot(g, apq), g)
            t = np.divide(apq, den, out=np.zeros_like(apq), where=apq != 0.0)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rp, rq = m[P], m[Q]
            m[P] = c[:, None] * rp - s[:, None] * rq
            m[Q] = s[:, None] * rp + c[:, None] * rq
            cp, cq = m[:, P], m[:, Q]
            m[:, P] = cp * c - cq * s
            m[:, Q] = cp * s + cq * c
            m[P, Q] = m[Q, P] = 0.0
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

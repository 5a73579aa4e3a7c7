"""Finite Jacobi matrices with strictly negative off-diagonals.

A matrix is parametrized by the grid parameter N (dimension N-1), interior
off-diagonals a(1..N-2) and diagonal b(1..N-1).  The boundary extension
a(0) = a(N-1) = a(N) = -1, b(N) = 0 is exposed through ``extended_a`` /
``extended_b`` rather than materialized arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CoefficientMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteValue,
    NonNegativeOffDiagonal,
)
from .numeric import Number, is_exact, render


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix acting on C^(N-1)."""

    N: int
    a: tuple  # interior off-diagonals, indices 1..N-2
    b: tuple  # diagonal, indices 1..N-1

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if not isinstance(self.N, int) or self.N < 2:
            raise DimensionMismatch(f"N must be an integer >= 2, got {render(self.N)}")
        if len(self.a) != max(self.N - 2, 0):
            raise DimensionMismatch(
                f"expected {render(max(self.N - 2, 0))} off-diagonal entries, got {len(self.a)}"
            )
        if len(self.b) != self.N - 1:
            raise DimensionMismatch(
                f"expected {render(self.N - 1)} diagonal entries, got {len(self.b)}"
            )
        for name, xs in (("a", self.a), ("b", self.b)):
            for j, x in enumerate(xs, start=1):
                # exact entries are skipped: isfinite overflows on a huge Fraction
                if not is_exact(x) and not math.isfinite(x):
                    raise NonFiniteValue(f"{name}({j}) = {x!r} is not finite")
        for j, aj in enumerate(self.a, start=1):
            if not aj < 0:
                raise NonNegativeOffDiagonal(f"a({j}) = {render(aj)} must be negative")

    @property
    def dim(self) -> int:
        return self.N - 1

    @property
    def exact(self) -> bool:
        return all(is_exact(x) for x in self.a + self.b)

    def extended_a(self, n: int) -> Number:
        """Off-diagonal with the boundary convention a(0)=a(N-1)=a(N)=-1."""
        if not 0 <= n <= self.N:
            raise IndexOutOfRange(f"a({render(n)}) undefined for N={self.N}")
        if 1 <= n <= self.N - 2:
            return self.a[n - 1]
        return -1

    def extended_b(self, n: int) -> Number:
        """Diagonal with the boundary convention b(N)=0."""
        if not 1 <= n <= self.N:
            raise IndexOutOfRange(f"b({render(n)}) undefined for N={self.N}")
        if n <= self.N - 1:
            return self.b[n - 1]
        return 0

    def apply(self, v: Sequence[Number]) -> list:
        """Matrix-vector product; v is indexed 1..N-1."""
        d = self.dim
        if len(v) != d:
            raise DimensionMismatch(f"expected vector of length {d}, got {len(v)}")
        out = []
        for i in range(1, d + 1):
            acc = self.b[i - 1] * v[i - 1]
            if i >= 2:
                acc += self.a[i - 2] * v[i - 2]
            if i <= d - 1:
                acc += self.a[i - 1] * v[i]
            out.append(acc)
        return out


def new_jacobi(N: int, a: Sequence[Number], b: Sequence[Number]) -> JacobiMatrix:
    """Validated constructor (same checks as the dataclass)."""
    return JacobiMatrix(N, tuple(a), tuple(b))


def free_matrix(N: int) -> JacobiMatrix:
    """The "free" matrix F(N): a = -1, b = 0; spectrum -2cos(k pi / N)."""
    return JacobiMatrix(N, (-1,) * max(N - 2, 0), (0,) * (N - 1))


def require_compatible(h0: JacobiMatrix, h1: JacobiMatrix) -> None:
    """Both matrices must share N and the off-diagonal array (a0 = a1)."""
    if h0.N != h1.N:
        raise CoefficientMismatch(f"N differs: {h0.N} vs {h1.N}")
    if h0.a != h1.a:
        raise CoefficientMismatch("off-diagonal arrays differ")


def interpolate(h0: JacobiMatrix, h1: JacobiMatrix, eps: Number) -> JacobiMatrix:
    """Linear interpolation H_eps = (1-eps) H0 + eps H1 of the diagonals."""
    require_compatible(h0, h1)
    b = tuple((1 - eps) * x + eps * y for x, y in zip(h0.b, h1.b))
    return JacobiMatrix(h0.N, h0.a, b)


def to_exact_matrix(h: JacobiMatrix) -> JacobiMatrix:
    return JacobiMatrix(h.N, tuple(map(Fraction, h.a)), tuple(map(Fraction, h.b)))


def to_float_matrix(h: JacobiMatrix) -> JacobiMatrix:
    return JacobiMatrix(h.N, tuple(map(float, h.a)), tuple(map(float, h.b)))

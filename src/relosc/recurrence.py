"""Fundamental solutions of the Jacobi difference equation and Wronskians.

The difference equation is

    a(n) u(n+1) + b(n) u(n) + a(n-1) u(n-1) = z u(n),    n = 1..N,

with the extended boundary coefficients a(0)=a(N-1)=a(N)=-1, b(N)=0.
``solve_minus`` starts from u(0)=0, u(1)=1 and ``solve_plus`` from
u(N)=0, u(N+1)=1; both produce values on the full index range 0..N+1.
Both run the one loop in ``_solve``: the plus side is the forward loop on
the reversed coefficients a(N..0), b(N..1).  They always return true
solution values: float ones may overflow, and then raise ``NonFiniteValue``
where their signs are read.  ``check_wronskian_step`` holds for every
pairing of minus and plus solutions, with b_diff(n) = b0(n) - b1(n) - z0 + z1
at every n = 1..N.

``_wronskian_signs`` is the one place that decides how the Wronskian signs
of a relative count are computed.  When every input is exact it reads them
from a fraction-free form (``_int_solve``, ``_int_wronskian``): positive
multiples of the true values in plain ints, with no gcd per step, so it
gives the same signs as the ``Fraction`` solves.  Otherwise it classifies
``wronskian_pair`` of the solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import LengthMismatch, NonFiniteValue
from .jacobi import JacobiMatrix
from .numeric import Number, classify, is_exact


@dataclass(frozen=True)
class SolutionSequence:
    """Values u(0..N+1) of a solution at spectral parameter z."""

    z: Number
    side: str  # "minus" | "plus"
    values: tuple
    N: int


def _solve(h: JacobiMatrix, z: Number, side: str) -> SolutionSequence:
    """The one three-term loop behind both solutions.  Coefficients are
    promoted to Fraction when everything is exact, so that division stays
    in the rational field.  The plus side runs the loop on the reversed
    coefficients from u(N+1)=1, u(N)=0 and reverses the result."""
    num = Fraction if h.exact and is_exact(z) else float
    try:
        finite = num is Fraction or math.isfinite(z)
    except OverflowError:  # an exact z beyond binary64 in float mode
        raise NonFiniteValue("spectral parameter is beyond binary64") from None
    if not finite:
        raise NonFiniteValue(f"spectral parameter {z!r} is not finite")
    a = [num(h.extended_a(n)) for n in range(h.N + 1)]
    b = [num(h.extended_b(n)) for n in range(1, h.N + 1)]
    z = num(z)
    u = [0 * z, 1 + 0 * z]
    if side == "plus":
        a, b, u = a[::-1], b[::-1], u[::-1]
    for n in range(1, h.N + 1):
        # on the minus side b[n-1] = b(n) and a[n] = a(n)
        u.append(((z - b[n - 1]) * u[n] - a[n - 1] * u[n - 1]) / a[n])
    if side == "plus":
        u.reverse()
    return SolutionSequence(z, side, tuple(u), h.N)


def _scaled_equations(h0: JacobiMatrix, h1: JacobiMatrix, z0: Number, z1: Number) -> tuple:
    """Equation n = 1..N of the exact H0 - z0 and H1 - z1, both times K(n),
    the lcm of the denominators of a(n), a(n-1), z0, z1, b0(n) and b1(n), as
    int lists (up, down, c0, c1): up(n) = -K a(n) > 0, down(n) = -K a(n-1) > 0
    and ci(n) = K (zi - bi(n)).  K(n) is local to equation n: one lcm over
    all of them would multiply every entry by a denominator as long as the
    longest, and the solutions would grow quadratically in N."""
    a = (-1,) + h0.a + (-1, -1)
    up, down, c0, c1 = [], [], [], []
    for n, b0, b1 in zip(range(1, h0.N + 1), h0.b + (0,), h1.b + (0,)):
        x, y = a[n], a[n - 1]
        k = math.lcm(*(q.denominator for q in (x, y, z0, z1, b0, b1)))
        up.append(k // x.denominator * -x.numerator)
        down.append(k // y.denominator * -y.numerator)
        for c, z, b in ((c0, z0, b0), (c1, z1, b1)):
            c.append(k // z.denominator * z.numerator - k // b.denominator * b.numerator)
    return up, down, c0, c1


def _int_solve(up: list, down: list, c: list, side: str) -> list:
    """v(0..N+1), a positive multiple of each value of the minus or plus
    solution of the scaled equations: v(n+1) = -c(n) v(n) - down(n) up(n-1)
    v(n-1) with up(0) = 1 gives v(n) = up(1)..up(n-1) u(n).  The plus side is
    the same loop on the reversed (down, up, c) from v(N+1) = 1, v(N) = 0."""
    if side == "plus":
        up, down, c = down[::-1], up[::-1], c[::-1]
    v = [0, 1] if side == "minus" else [1, 0]
    for up_prev, down_n, c_n in zip([1] + up, down, c):
        v.append(-c_n * v[-1] - down_n * up_prev * v[-2])
    return v if side == "minus" else v[::-1]


def _int_wronskian(up: list, down: list, c_minus: list, c_plus: list) -> list:
    """M W_n for n = 0..N and one M > 0, where W is the Wronskian of the
    minus solution of (up, down, c_minus) with the plus solution of
    (up, down, c_plus).  With M = K(1)..K(N) (-a(1))..(-a(N-1)), the step
    identity W_{n+1} - W_n = b_diff(n+1) u0(n+1) u1(n+1) becomes
    M (W_{n+1} - W_n) = (c_plus - c_minus)(n+1) v(n+1) w(n+1), and M W_0 = w(0)."""
    v, w = _int_solve(up, down, c_minus, "minus"), _int_solve(up, down, c_plus, "plus")
    x = [w[0]]
    for n, (cm, cp) in enumerate(zip(c_minus, c_plus), start=1):
        x.append(x[-1] + (cp - cm) * v[n] * w[n])
    return x


def solve_minus(h: JacobiMatrix, z: Number, renormalize: bool = False) -> SolutionSequence:
    """Forward solution with u(0)=0, u(1)=1.  ``renormalize`` is ignored."""
    return _solve(h, z, "minus")


def solve_plus(h: JacobiMatrix, z: Number, renormalize: bool = False) -> SolutionSequence:
    """Backward solution with u(N)=0, u(N+1)=1.  ``renormalize`` is ignored."""
    return _solve(h, z, "plus")


def residuals(h: JacobiMatrix, u: SolutionSequence) -> list:
    """Residual of the difference equation at every n = 1..N."""
    out = []
    for n in range(1, h.N + 1):
        r = (
            h.extended_a(n) * u.values[n + 1]
            + h.extended_b(n) * u.values[n]
            + h.extended_a(n - 1) * u.values[n - 1]
            - u.z * u.values[n]
        )
        out.append(r)
    return out


@dataclass(frozen=True)
class WronskianSequence:
    """W_n(u0, u1) for n = 0..N together with the diagonal difference
    b_diff(n) = b0(n) - b1(n) for n = 1..N of the generating pair."""

    values: tuple
    b_diff: tuple

    @property
    def N(self) -> int:
        return len(self.values) - 1


def wronskian_sequence(
    h: JacobiMatrix,
    u0: SolutionSequence,
    u1: SolutionSequence,
    b_diff: Sequence[Number],
) -> WronskianSequence:
    """W_n = a(n) (u0(n) u1(n+1) - u0(n+1) u1(n)) for n = 0..N."""
    if u0.N != u1.N:
        raise LengthMismatch(f"solutions disagree on N: {u0.N} vs {u1.N}")
    N = u0.N
    if len(b_diff) != N:
        raise LengthMismatch(f"b_diff must have {N} entries (indices 1..N), got {len(b_diff)}")
    w = tuple(
        h.extended_a(n) * (u0.values[n] * u1.values[n + 1] - u0.values[n + 1] * u1.values[n])
        for n in range(N + 1)
    )
    return WronskianSequence(w, tuple(b_diff))


def wronskian_pair(
    h0: JacobiMatrix, h1: JacobiMatrix, u0: SolutionSequence, u1: SolutionSequence
) -> WronskianSequence:
    """Wronskian of a solution of H0 at z0 with a solution of H1 at z1.

    The diagonal difference is taken between the shifted operators
    H0 - z0 and H1 - z1, which both solutions solve at spectral parameter
    zero; this is what the weighted-node weights refer to when the two
    spectral parameters differ.  With the extended b(N) = 0 of both
    matrices, the boundary entry is b_diff(N) = z1 - z0.
    """
    b_diff = tuple(
        h0.extended_b(n) - h1.extended_b(n) - u0.z + u1.z for n in range(1, h0.N + 1)
    )
    return wronskian_sequence(h0, u0, u1, b_diff)


def _wronskian_signs(h0: JacobiMatrix, h1: JacobiMatrix, z0: Number, z1: Number) -> tuple:
    """(sw_a, sw_b, sb): the signs of W(s_0-, s_1+) and W(s_0+, s_1-) at
    n = 0..N and of b_diff at n = 1..N, where s_0- is the minus solution of
    H0 at z0 and s_1+ the plus solution of H1 at z1."""
    if not (h0.exact and h1.exact and is_exact(z0) and is_exact(z1)):
        w_a = wronskian_pair(h0, h1, solve_minus(h0, z0), solve_plus(h1, z1))
        w_b = wronskian_pair(h0, h1, solve_plus(h0, z0), solve_minus(h1, z1))
        return classify(w_a.values)[0], classify(w_b.values)[0], classify(w_a.b_diff)[0]
    up, down, c0, c1 = _scaled_equations(h0, h1, z0, z1)
    # sign b_diff(n) = sign(c1(n) - c0(n))
    sb = classify([y - x for x, y in zip(c0, c1)])[0]
    sw_a = classify(_int_wronskian(up, down, c0, c1))[0]
    # W(s_0+, s_1-) = -W(s_1-, s_0+)
    sw_b = [-s for s in classify(_int_wronskian(up, down, c1, c0))[0]]
    return sw_a, sw_b, sb


def check_wronskian_step(
    w: WronskianSequence, u0: SolutionSequence, u1: SolutionSequence
) -> Number:
    """Max residual of W_{n+1} - W_n = b_diff(n+1) u0(n+1) u1(n+1)."""
    if u0.N != w.N or u1.N != w.N:
        raise LengthMismatch("Wronskian and solutions disagree on N")
    worst = 0 * w.values[0]
    for n in range(w.N):
        r = abs(
            w.values[n + 1]
            - w.values[n]
            - w.b_diff[n] * u0.values[n + 1] * u1.values[n + 1]
        )
        if r > worst:
            worst = r
    return worst

"""Prüfer angles with ceiling normalization and angle-based count formulas.

A solution u is written u(n) = rho(n) sin(theta(n)),
u(n+1) = rho(n) cos(theta(n)) with rho(n) > 0, and the angle branch is
pinned down by the normalization chain

    ceil(theta(n)/pi) <= ceil(theta(n+1)/pi) <= ceil(theta(n)/pi) + 1.

Angles and radii are floats, also for exact sources: they serve as an
independent cross-check of the exact sign-based counts in
:mod:`relosc.oscillation`, never as the source of truth.  Whenever an angle
sits within tolerance of a multiple of pi, the side is resolved from the
sign of the underlying solution value; if that sign is itself unreliable,
``BranchAmbiguity`` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchAmbiguity, DegenerateSolution, LengthMismatch
from .numeric import classify, is_exact
from .recurrence import SolutionSequence

# How close theta/pi must be to an integer before the underlying sign data
# is consulted instead of trusting the float.
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class PrueferSequence:
    """Normalized angles theta(0..N) and radii rho(0..N) of a solution."""

    theta: tuple
    rho: tuple
    source: SolutionSequence

    @property
    def N(self) -> int:
        return len(self.theta) - 1


@dataclass(frozen=True)
class RelativeAngleSequence:
    """delta(n) = theta_{u1}(n) - theta_{u0}(n) for n = 0..N."""

    delta: tuple
    source0: SolutionSequence
    source1: SolutionSequence

    @property
    def N(self) -> int:
        return len(self.delta) - 1


def _resolve_ceil(theta: float, s: int, band: bool) -> int:
    """ceil(theta/pi) with boundary cases decided by the sign s (and band
    flag) of the quantity proportional to sin(theta)."""
    q = theta / math.pi
    r = round(q)
    near = abs(q - r) <= ANGLE_TOL * max(1.0, abs(q))
    if near:
        if band:
            raise BranchAmbiguity(
                f"theta/pi = {q!r} is on a branch boundary and the sign of "
                "its sin-part is inside the tolerance band"
            )
        if s == 0:
            return int(r)
        # sin > 0 puts theta in (2j pi, (2j+1) pi): ceil is odd; mirrored for sin < 0.
        if s > 0:
            return int(r) if r % 2 == 1 else int(r) + 1
        return int(r) if r % 2 == 0 else int(r) + 1
    if s == 0:
        raise BranchAmbiguity(
            f"sin-part is exactly zero but theta/pi = {q!r} is not near an integer"
        )
    return math.ceil(q)


def _resolve_floor(theta: float, s: int, band: bool) -> int:
    # floor = ceil - 1, except on a multiple of pi, where the sin-part is zero
    c = _resolve_ceil(theta, s, band)
    return c if s == 0 else c - 1


def _count_via_angles(angles: tuple, signs: list, band: list) -> int:
    """ceil(angle(N)/pi) - floor(angle(0)/pi) - 1."""
    n = len(angles) - 1
    c_n = _resolve_ceil(angles[n], signs[n], band[n])
    return c_n - _resolve_floor(angles[0], signs[0], band[0]) - 1


def _base_angle(y: float, x: float) -> float:
    """Two-argument arctangent mapped into (-pi, pi]."""
    t = math.atan2(y, x)
    if t <= -math.pi:
        t += 2 * math.pi
    return t


def _polar(x, y) -> tuple:
    """(_base_angle(x, y), hypot(x, y)) of one pair of solution values.

    An exact pair is divided by max(|x|, |y|) before it becomes float, so
    its angle survives values beyond binary64; its radius is then math.inf.
    """
    if not (is_exact(x) and is_exact(y)):
        x, y = float(x), float(y)
        return _base_angle(x, y), math.hypot(x, y)
    m = max(abs(x), abs(y))
    xs, ys = float(x / m), float(y / m)
    try:
        scale = float(m)
    except OverflowError:
        scale = math.inf
    return _base_angle(xs, ys), scale * math.hypot(xs, ys)


def pruefer_sequence(u: SolutionSequence) -> PrueferSequence:
    """Normalized Prüfer angles of a solution.

    theta(0) is fixed in (-pi, pi] by atan2(u(0), u(1)); each later angle is
    the unique representative satisfying the normalization chain.
    """
    signs, band = classify(u.values)
    for n in range(u.N + 1):
        if signs[n] == 0 and signs[n + 1] == 0:
            raise DegenerateSolution(f"u({n}) = u({n + 1}) = 0")
    bases, rho = zip(*(_polar(u.values[n], u.values[n + 1]) for n in range(u.N + 1)))

    theta = [bases[0]]
    ceil_prev = _resolve_ceil(theta[0], signs[0], band[0])
    for n in range(1, u.N + 1):
        base = bases[n]
        k_base = _resolve_ceil(base, signs[n], band[n])
        # exactly one of {ceil_prev, ceil_prev+1} has the parity of k_base
        target = ceil_prev if (ceil_prev - k_base) % 2 == 0 else ceil_prev + 1
        theta.append(base + math.pi * (target - k_base))
        ceil_prev = target
    return PrueferSequence(tuple(theta), rho, u)


def theta_ceils(p: PrueferSequence) -> tuple:
    """Resolved ceil(theta(n)/pi) for n = 0..N."""
    return tuple(map(_resolve_ceil, p.theta, *classify(p.source.values)))


def node_count_via_angles(p: PrueferSequence) -> int:
    """ceil(theta(N)/pi) - floor(theta(0)/pi) - 1."""
    return _count_via_angles(p.theta, *classify(p.source.values))


def relative_angle_sequence(p0: PrueferSequence, p1: PrueferSequence) -> RelativeAngleSequence:
    if p0.N != p1.N:
        raise LengthMismatch(f"angle sequences disagree on N: {p0.N} vs {p1.N}")
    delta = tuple(t1 - t0 for t0, t1 in zip(p0.theta, p1.theta))
    return RelativeAngleSequence(delta, p0.source, p1.source)


def _cross_signs(d: RelativeAngleSequence) -> tuple:
    """classify() of u1(n) u0(n+1) - u1(n+1) u0(n), which has the sign of
    sin(delta(n)), for n = 0..N.

    Kept in the sources' native arithmetic so the sign is exact for
    rational solutions.
    """
    u0, u1 = d.source0.values, d.source1.values
    return classify(u1[n] * u0[n + 1] - u1[n + 1] * u0[n] for n in range(d.N + 1))


def delta_ceils(d: RelativeAngleSequence) -> tuple:
    """Resolved ceil(delta(n)/pi) for n = 0..N."""
    return tuple(map(_resolve_ceil, d.delta, *_cross_signs(d)))


def weighted_count_via_angles(d: RelativeAngleSequence) -> int:
    """ceil(delta(N)/pi) - floor(delta(0)/pi) - 1."""
    return _count_via_angles(d.delta, *_cross_signs(d))

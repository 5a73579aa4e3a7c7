"""Randomized, seeded verification campaigns against the brute-force oracle.

Instances are exact rationals (so every count on the library side is
error-free) compared against the float oracle behind a margin guard:
a random rational threshold almost never falls within the guard band of an
eigenvalue, and instances that do are redrawn and counted.

Each trial derives its own generator from (suite, seed, trial index), so
reports are bit-for-bit reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import (
    BranchAmbiguity,
    DegenerateSolution,
    InconsistentSigns,
    MarginViolation,
    NonFiniteValue,
)
from .jacobi import JacobiMatrix, interpolate, to_exact_matrix, to_float_matrix
from .numeric import format_scalar
from .homotopy import (
    lower_matrix,
    pruefer_eps_derivative,
    signed_crossing_count,
    wronskian_eps_derivative,
)
from .oracle import MARGIN, eigenvalues_dense, oracle_count, oracle_relative_count
from .oscillation import _count_nodes, _is_node, _minus_signs, _report, count_below, is_eigenvalue, relative_count
from .pruefer import (
    ANGLE_TOL,
    delta_ceils,
    node_count_via_angles,
    pruefer_sequence,
    relative_angle_sequence,
    theta_ceils,
    weighted_count_via_angles,
)
from .recurrence import _wronskian_signs, solve_minus, solve_plus

MAX_REDRAWS_PER_TRIAL = 500
FD_STEP = Fraction(1, 10**6)


@dataclass
class VerifyReport:
    suite: str
    trials: int
    seed: int
    mode: str
    failures: list = field(default_factory=list)
    redraws: int = 0
    rejected: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _trial_rng(suite: str, seed: int, trial: int) -> random.Random:
    # string seeding hashes via sha512: stable across runs and platforms
    return random.Random(f"{suite}:{seed}:{trial}")


def rand_fraction(rng: random.Random) -> Fraction:
    d = rng.randint(1, 8)
    return Fraction(rng.randint(-5 * d, 5 * d), d)


def rand_negative_fraction(rng: random.Random) -> Fraction:
    d = rng.randint(1, 8)
    return Fraction(-rng.randint(1, 5 * d), d)


def random_jacobi(rng: random.Random, dim: int) -> JacobiMatrix:
    n = dim + 1
    a = tuple(rand_negative_fraction(rng) for _ in range(max(n - 2, 0)))
    b = tuple(rand_fraction(rng) for _ in range(n - 1))
    return JacobiMatrix(n, a, b)


def random_pair(rng: random.Random, dim: int):
    """Two matrices sharing the off-diagonal array."""
    h0 = random_jacobi(rng, dim)
    b1 = tuple(rand_fraction(rng) for _ in range(dim))
    return h0, JacobiMatrix(h0.N, h0.a, b1)


def _describe(h: JacobiMatrix) -> dict:
    return {"N": h.N, "a": [format_scalar(x) for x in h.a], "b": [format_scalar(x) for x in h.b]}


def _draw(report: VerifyReport, draw):
    """First instance draw() returns; a None result or a MarginViolation
    counts one redraw in the report."""
    for _ in range(MAX_REDRAWS_PER_TRIAL):
        try:
            instance = draw()
        except MarginViolation:
            instance = None
        if instance is not None:
            return instance
        report.redraws += 1
    raise RuntimeError("redraw budget exhausted")


def _check(report: VerifyReport, expected, actual, instance: dict) -> None:
    """Record a failure naming the instance when actual != expected."""
    if actual != expected:
        report.failures.append({**instance, "expected": expected, "actual": actual})


def thm11_suite(trials: int, seed: int, max_dim: int = 12) -> VerifyReport:
    """Node count of s_- vs the oracle's strict eigenvalue count."""
    report = VerifyReport("thm11", trials, seed, "exact")
    for trial in range(trials):
        rng = _trial_rng("thm11", seed, trial)

        def draw():
            h = random_jacobi(rng, rng.randint(1, max_dim))
            lam = rand_fraction(rng)
            return h, lam, oracle_count(h, lam)

        h, lam, expected = _draw(report, draw)
        instance = {"instance": _describe(h), "lambda": format_scalar(lam)}
        _check(report, expected, count_below(h, lam), instance)
    return report


def _forced_eigenvalue_matrix(rng: random.Random, dim: int, lam: Fraction):
    """Matrix with lam forced into the spectrum by solving for the last
    diagonal entry so that s_-(lam, N) = 0.  Returns None on a degenerate
    draw (u(N-1) = 0)."""
    N = dim + 1
    a = tuple(rand_negative_fraction(rng) for _ in range(max(N - 2, 0)))
    b_head = tuple(rand_fraction(rng) for _ in range(dim - 1))
    # u(N-2) and u(N-1) do not depend on the last diagonal entry b(N-1)
    h = JacobiMatrix(N, a, b_head + (0,))
    u = solve_minus(h, lam).values
    if u[N - 1] == 0:
        return None
    return JacobiMatrix(N, a, b_head + (lam - h.extended_a(N - 2) * u[N - 2] / u[N - 1],))


def _draw_pair(rng: random.Random, max_dim: int):
    h0, h1 = random_pair(rng, rng.randint(1, max_dim))
    lam0, lam1 = rand_fraction(rng), rand_fraction(rng)
    return h0, h1, lam0, lam1, oracle_relative_count(h0, h1, lam0, lam1)


def _draw_forced_pair(rng: random.Random, max_dim: int):
    """A pair whose H0 has lambda0 as an eigenvalue, or None on a degenerate
    draw or when another eigenvalue of H0 sits in the margin band."""
    dim = rng.randint(1, max_dim)
    lam0 = rand_fraction(rng)
    h0 = _forced_eigenvalue_matrix(rng, dim, lam0)
    if h0 is None:
        return None
    b1 = tuple(rand_fraction(rng) for _ in range(dim))
    h1 = JacobiMatrix(h0.N, h0.a, b1)
    lam1 = rand_fraction(rng)
    eig0 = eigenvalues_dense(h0).eigenvalues
    # exactly the forced eigenvalue may sit inside the margin band
    if sum(1 for e in eig0 if abs(e - float(lam0)) < MARGIN) != 1:
        return None
    below_eq0 = sum(1 for e in eig0 if e <= float(lam0) - MARGIN) + 1
    return h0, h1, lam0, lam1, oracle_count(h1, lam1) - below_eq0


def thm12_suite(trials: int, seed: int, max_dim: int = 12) -> VerifyReport:
    """Relative count (both pairings) vs the oracle difference
    #{E < lambda1 in sigma(H1)} - #{E <= lambda0 in sigma(H0)}.  One
    thm12-eigen trial per five (at least one unless trials is 0) exercises
    the <= side with lambda0 exactly an eigenvalue of H0."""
    forced = trials and max(trials // 5, 1)
    report = VerifyReport("thm12", trials + forced, seed, "exact")
    for suite, n_trials, draw_pair in (
        ("thm12", trials, _draw_pair),
        ("thm12-eigen", forced, _draw_forced_pair),
    ):
        for trial in range(n_trials):
            rng = _trial_rng(suite, seed, trial)
            h0, h1, lam0, lam1, expected = _draw(report, lambda: draw_pair(rng, max_dim))
            if suite == "thm12-eigen" and not is_eigenvalue(h0, lam0):
                instance = {"instance": _describe(h0), "lambda0": format_scalar(lam0)}
                _check(report, "is_eigenvalue", False, instance)
                continue
            instance = {
                "instance": {"h0": _describe(h0), "h1": _describe(h1)},
                "lambda0": format_scalar(lam0),
                "lambda1": format_scalar(lam1),
            }
            _check(report, expected, relative_count(h0, h1, lam0, lam1), instance)
    return report


def _gamma_node_claim(gamma: float, exact_next_is_zero: bool):
    """Node classification from gamma in (0, pi]; None means the float sits
    on the pi/2 boundary without exact support (reject the instance)."""
    half = math.pi / 2
    if abs(gamma - half) <= ANGLE_TOL:
        if exact_next_is_zero:
            return False  # gamma = pi/2 exactly, not a node
        return None
    return gamma > half


def _check_pruefer_instance(h0, h1, lam0, lam1, failures, describe):
    """All angle-vs-exact checks for one instance.  Raises BranchAmbiguity
    (or returns via exception) when a float classification is unreliable."""
    h0f, h1f = to_float_matrix(h0), to_float_matrix(h1)
    u0f = solve_minus(h0f, float(lam0))
    u1f = solve_plus(h1f, float(lam1))
    p0 = pruefer_sequence(u0f)
    p1 = pruefer_sequence(u1f)
    n_par = h0.N

    bad = []
    signs = _minus_signs(h0, lam0)
    nodes = [_is_node(signs, n) for n in range(n_par + 1)]

    # normalization chain and node-driven ceiling jumps
    ceils = theta_ceils(p0)
    for n in range(n_par):
        step = ceils[n + 1] - ceils[n]
        if step not in (0, 1):
            bad.append(f"normalization chain broken at {n}: step {step}")
        elif step != nodes[n]:
            bad.append(f"ceiling jump disagrees with node at {n}")

    # gamma in (pi/2, pi] must classify nodes
    for n in range(n_par + 1):
        gamma = p0.theta[n] - (ceils[n] - 1) * math.pi
        claim = _gamma_node_claim(gamma, signs[n + 1] == 0)
        if claim is None:
            raise BranchAmbiguity(f"gamma at {n} on the pi/2 boundary")
        if claim != nodes[n]:
            bad.append(f"gamma classification wrong at {n}: gamma={gamma}")

    # angle-based node count vs exact count
    exact_nodes = _count_nodes(signs, 0, n_par)
    angle_nodes = node_count_via_angles(p0)
    if angle_nodes != exact_nodes:
        bad.append(f"node count: angles {angle_nodes} vs exact {exact_nodes}")

    # weighted counts and the Delta-ceiling step rules
    sw, _, sb = _wronskian_signs(h0, h1, lam0, lam1)
    d = relative_angle_sequence(p0, p1)
    dcs = delta_ceils(d)
    exact = _report(sw, sb)
    angle_weighted = weighted_count_via_angles(d)
    if angle_weighted != exact.count:
        bad.append(f"weighted count: angles {angle_weighted} vs exact {exact.count}")

    for n in range(n_par):
        jump = dcs[n + 1] - dcs[n]
        # sign-definite weights (of the shifted operators) bound the ceiling step
        if sb[n] >= 0 and jump not in (0, 1):
            bad.append(f"ceiling step bound (>=) violated at {n}: jump {jump}")
        if sb[n] <= 0 and jump not in (-1, 0):
            bad.append(f"ceiling step bound (<=) violated at {n}: jump {jump}")
        # the ceiling step is the exact weighted node indicator
        want = exact.details[n]
        if jump != want:
            bad.append(f"ceiling step case table violated at {n}: jump {jump}, expected {want}")

    if bad:
        failures.append({"instance": describe, "checks": bad})


def pruefer_suite(trials: int, seed: int, max_dim: int = 12) -> VerifyReport:
    """Float-mode angle machinery vs the exact sign-based counts, with
    tolerance-band instances rejected and counted."""
    report = VerifyReport("pruefer", trials, seed, "float")
    for trial in range(trials):
        rng = _trial_rng("pruefer", seed, trial)
        h0, h1 = random_pair(rng, rng.randint(1, max_dim))
        lam0, lam1 = rand_fraction(rng), rand_fraction(rng)
        describe = {
            "h0": _describe(h0),
            "h1": _describe(h1),
            "lambda0": format_scalar(lam0),
            "lambda1": format_scalar(lam1),
        }
        try:
            _check_pruefer_instance(h0, h1, lam0, lam1, report.failures, describe)
        except (BranchAmbiguity, DegenerateSolution, InconsistentSigns, NonFiniteValue):
            report.rejected += 1
    return report


def random_float_jacobi(rng: random.Random, dim: int) -> JacobiMatrix:
    n = dim + 1
    a = tuple(rng.uniform(-3.0, -0.1) for _ in range(max(n - 2, 0)))
    b = tuple(rng.uniform(-3.0, 3.0) for _ in range(n - 1))
    return JacobiMatrix(n, a, b)


def random_float_pair(rng: random.Random, dim: int):
    h0 = random_float_jacobi(rng, dim)
    b1 = tuple(rng.uniform(-3.0, 3.0) for _ in range(dim))
    return h0, JacobiMatrix(h0.N, h0.a, b1)


def derivative_check(h0, h1, eps, z):
    """Closed-sum Wronskian derivative vs a central finite difference at
    every n and both sides; returns a list of violation descriptions.  The
    two agree when they differ by at most max(1e-9, 1e-6 * max(|closed|,
    |fd|)).  The difference is evaluated exactly on the exact images of the
    inputs: in float arithmetic its own rounding error can exceed 1e-6."""
    bad = []
    h0e, h1e, eps_e, z_e = to_exact_matrix(h0), to_exact_matrix(h1), Fraction(eps), Fraction(z)
    for side in ("plus", "minus"):
        solve = solve_plus if side == "plus" else solve_minus
        u, up, um = (
            solve(interpolate(h0e, h1e, e), z_e).values
            for e in (eps_e, eps_e + FD_STEP, eps_e - FD_STEP)
        )
        du = [(p - m) / (2 * FD_STEP) for p, m in zip(up, um)]
        for n in range(h0.N + 1):
            closed = wronskian_eps_derivative(h0, h1, eps, z, side, n)
            approx = float(h0e.extended_a(n) * (u[n] * du[n + 1] - u[n + 1] * du[n]))
            tol = max(1e-9, 1e-6 * max(abs(closed), abs(approx)))
            if abs(closed - approx) > tol:
                bad.append(
                    f"side={side} n={n} eps={eps}: closed {closed} vs fd {approx}"
                )
    return bad


def homotopy_suite(trials: int, seed: int, max_dim: int = 10) -> VerifyReport:
    """Spectral-flow crossing counts, the derivative formula, and the sign
    conditions on the angle derivative for sign-definite perturbations."""
    report = VerifyReport("homotopy", trials, seed, "float")
    eps_samples = (0.0, 0.25, 0.5, 0.75, 1.0)
    for trial in range(trials):
        rng = _trial_rng("homotopy", seed, trial)
        bad = []

        # crossing count along the two-phase path vs the relative count
        def draw():
            h0, h1 = random_pair(rng, rng.randint(1, max_dim))
            lam = rand_fraction(rng)
            return h0, h1, lam, signed_crossing_count(h0, h1, float(lam), MARGIN)

        h0, h1, lam, crossings = _draw(report, draw)
        rel = relative_count(h0, h1, lam, lam)
        if crossings != rel:
            bad.append(f"crossings {crossings} vs relative count {rel}")

        # closed-sum Wronskian derivative vs finite differences on a float instance
        h0f, h1f = random_float_pair(rng, rng.randint(1, min(max_dim, 10)))
        z = rng.uniform(-3.0, 3.0)
        eps = rng.choice(eps_samples)
        bad.extend(derivative_check(h0f, h1f, eps, z))

        # angle-derivative signs for the sign-definite pair (H0, H_low)
        h_low = lower_matrix(h0f, h1f)
        for n in range(h0f.N + 1):
            d_plus = pruefer_eps_derivative(h0f, h_low, 0.5, z, "plus", n)
            d_minus = pruefer_eps_derivative(h0f, h_low, 0.5, z, "minus", n)
            if d_plus > 1e-12:
                bad.append(f"thetadot plus sign violated at n={n}: {d_plus}")
            if d_minus < -1e-12:
                bad.append(f"thetadot minus sign violated at n={n}: {d_minus}")

        if bad:
            report.failures.append(
                {
                    "instance": {"h0": _describe(h0), "h1": _describe(h1)},
                    "lambda": format_scalar(lam),
                    "float_instance": {
                        "h0": _describe(h0f),
                        "h1": _describe(h1f),
                        "z": z,
                        "eps": eps,
                    },
                    "checks": bad,
                }
            )
    return report


SUITES = {
    "thm11": thm11_suite,
    "thm12": thm12_suite,
    "pruefer": pruefer_suite,
    "homotopy": homotopy_suite,
}

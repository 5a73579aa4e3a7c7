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
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BranchAmbiguity, DegenerateSolution, InconsistentSigns, MarginViolation
from .jacobi import JacobiMatrix, interpolate, to_float_matrix
from .numeric import format_scalar
from .homotopy import (
    lower_matrix,
    pruefer_eps_derivative,
    signed_crossing_count,
    wronskian_eps_derivative,
)
from .oracle import count_below_oracle, eigenvalues_dense
from .oscillation import count_below, count_nodes, is_eigenvalue, is_node, relative_count, weighted_node_count
from .pruefer import (
    ANGLE_TOL,
    delta_ceils,
    node_count_via_angles,
    pruefer_sequence,
    relative_angle_sequence,
    theta_ceils,
    weighted_count_via_angles,
)
from .recurrence import solve_minus, solve_plus, wronskian_pair

MARGIN = 1e-6
MAX_REDRAWS_PER_TRIAL = 500


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
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "redraws": self.redraws,
            "rejected": self.rejected,
            "failures": self.failures,
            "ok": self.ok,
        }


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


def _describe(h: JacobiMatrix, exact: bool = True) -> dict:
    return {
        "N": h.N,
        "a": [format_scalar(x, exact) for x in h.a],
        "b": [format_scalar(x, exact) for x in h.b],
    }


def thm11_suite(
    trials: int, seed: int, min_dim: int = 1, max_dim: int = 12, margin: float = MARGIN
) -> VerifyReport:
    """Node count of s_- vs the oracle's strict eigenvalue count."""
    report = VerifyReport("thm11", trials, seed, "exact")
    for trial in range(trials):
        rng = _trial_rng("thm11", seed, trial)
        for _ in range(MAX_REDRAWS_PER_TRIAL):
            h = random_jacobi(rng, rng.randint(min_dim, max_dim))
            lam = rand_fraction(rng)
            spectrum = eigenvalues_dense(h)
            try:
                expected = count_below_oracle(spectrum, float(lam), True, margin)
            except MarginViolation:
                report.redraws += 1
                continue
            break
        else:
            raise RuntimeError("redraw budget exhausted")
        actual = count_below(h, lam)
        if actual != expected:
            report.failures.append(
                {
                    "instance": _describe(h),
                    "lambda": format_scalar(lam, True),
                    "expected": expected,
                    "actual": actual,
                }
            )
    return report


def _forced_eigenvalue_matrix(rng: random.Random, dim: int, lam: Fraction):
    """Matrix with lam forced into the spectrum by solving for the last
    diagonal entry so that s_-(lam, N) = 0.  Returns None on a degenerate
    draw (u(N-1) = 0)."""
    n_par = dim + 1
    a = tuple(rand_negative_fraction(rng) for _ in range(max(n_par - 2, 0)))
    b_head = [rand_fraction(rng) for _ in range(dim - 1)]

    def a_of(n):
        return a[n - 1] if 1 <= n <= n_par - 2 else Fraction(-1)

    u = [Fraction(0), Fraction(1)]
    for n in range(1, n_par - 1):
        u.append(((lam - b_head[n - 1]) * u[n] - a_of(n - 1) * u[n - 1]) / a_of(n))
    if u[n_par - 1] == 0:
        return None
    b_last = lam - a_of(n_par - 2) * u[n_par - 2] / u[n_par - 1]
    return JacobiMatrix(n_par, a, tuple(b_head) + (b_last,))


def thm12_suite(
    trials: int,
    seed: int,
    eigen_trials: int = 0,
    min_dim: int = 1,
    max_dim: int = 12,
    margin: float = MARGIN,
) -> VerifyReport:
    """Relative count (both pairings) vs the oracle difference
    #{E < lambda1 in sigma(H1)} - #{E <= lambda0 in sigma(H0)}."""
    report = VerifyReport("thm12", trials + eigen_trials, seed, "exact")

    for trial in range(trials):
        rng = _trial_rng("thm12", seed, trial)
        for _ in range(MAX_REDRAWS_PER_TRIAL):
            h0, h1 = random_pair(rng, rng.randint(min_dim, max_dim))
            lam0, lam1 = rand_fraction(rng), rand_fraction(rng)
            try:
                below1 = count_below_oracle(eigenvalues_dense(h1), float(lam1), True, margin)
                below_eq0 = count_below_oracle(eigenvalues_dense(h0), float(lam0), False, margin)
            except MarginViolation:
                report.redraws += 1
                continue
            break
        else:
            raise RuntimeError("redraw budget exhausted")
        expected = below1 - below_eq0
        actual = relative_count(h0, h1, lam0, lam1)
        if actual != expected:
            report.failures.append(
                {
                    "instance": {"h0": _describe(h0), "h1": _describe(h1)},
                    "lambda0": format_scalar(lam0, True),
                    "lambda1": format_scalar(lam1, True),
                    "expected": expected,
                    "actual": actual,
                }
            )

    # the <= side of the theorem, exercised with lambda0 exactly an eigenvalue
    for trial in range(eigen_trials):
        rng = _trial_rng("thm12-eigen", seed, trial)
        for _ in range(MAX_REDRAWS_PER_TRIAL):
            dim = rng.randint(min_dim, max_dim)
            lam0 = rand_fraction(rng)
            h0 = _forced_eigenvalue_matrix(rng, dim, lam0)
            if h0 is None:
                report.redraws += 1
                continue
            b1 = tuple(rand_fraction(rng) for _ in range(dim))
            h1 = JacobiMatrix(h0.N, h0.a, b1)
            lam1 = rand_fraction(rng)
            eig0 = eigenvalues_dense(h0).eigenvalues
            # exactly the forced eigenvalue may sit inside the margin band
            in_band = [e for e in eig0 if abs(e - float(lam0)) < margin]
            if len(in_band) != 1:
                report.redraws += 1
                continue
            try:
                below1 = count_below_oracle(eigenvalues_dense(h1), float(lam1), True, margin)
            except MarginViolation:
                report.redraws += 1
                continue
            break
        else:
            raise RuntimeError("redraw budget exhausted")
        if not is_eigenvalue(h0, lam0):
            report.failures.append(
                {"instance": _describe(h0), "lambda0": format_scalar(lam0, True),
                 "expected": "is_eigenvalue", "actual": False}
            )
            continue
        below_eq0 = sum(1 for e in eig0 if e <= float(lam0) - margin) + 1
        expected = below1 - below_eq0
        actual = relative_count(h0, h1, lam0, lam1)
        if actual != expected:
            report.failures.append(
                {
                    "instance": {"h0": _describe(h0), "h1": _describe(h1)},
                    "lambda0": format_scalar(lam0, True),
                    "lambda1": format_scalar(lam1, True),
                    "expected": expected,
                    "actual": actual,
                }
            )
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
    u0e = solve_minus(h0, lam0)
    u1e = solve_plus(h1, lam1)
    u0f = solve_minus(h0f, float(lam0))
    u1f = solve_plus(h1f, float(lam1))
    p0 = pruefer_sequence(u0f)
    p1 = pruefer_sequence(u1f)
    n_par = h0.N

    bad = []

    # normalization chain and node-driven ceiling jumps
    ceils = theta_ceils(p0)
    for n in range(n_par):
        step = ceils[n + 1] - ceils[n]
        if step not in (0, 1):
            bad.append(f"normalization chain broken at {n}: step {step}")
        elif step != (1 if is_node(u0e, n) else 0):
            bad.append(f"ceiling jump disagrees with node at {n}")

    # gamma in (pi/2, pi] must classify nodes
    for n in range(n_par + 1):
        gamma = p0.theta[n] - (ceils[n] - 1) * math.pi
        claim = _gamma_node_claim(gamma, u0e.values[n + 1] == 0)
        if claim is None:
            raise BranchAmbiguity(f"gamma at {n} on the pi/2 boundary")
        if claim != is_node(u0e, n):
            bad.append(f"gamma classification wrong at {n}: gamma={gamma}")

    # angle-based node count vs exact count
    exact_nodes = count_nodes(u0e, 0, n_par)
    angle_nodes = node_count_via_angles(p0)
    if angle_nodes != exact_nodes:
        bad.append(f"node count: angles {angle_nodes} vs exact {exact_nodes}")

    # weighted counts and the Delta-ceiling step rules
    w = wronskian_pair(h0, h1, u0e, u1e)
    d = relative_angle_sequence(p0, p1)
    dcs = delta_ceils(d)
    exact_weighted = weighted_node_count(w)
    angle_weighted = weighted_count_via_angles(d)
    if angle_weighted != exact_weighted:
        bad.append(f"weighted count: angles {angle_weighted} vs exact {exact_weighted}")

    for n in range(n_par):
        bd = w.b_diff[n]  # diagonal difference of the shifted operators
        jump = dcs[n + 1] - dcs[n]
        # sign-definite weights bound the ceiling step
        if bd >= 0 and jump not in (0, 1):
            bad.append(f"ceiling step bound (>=) violated at {n}: jump {jump}")
        if bd <= 0 and jump not in (-1, 0):
            bad.append(f"ceiling step bound (<=) violated at {n}: jump {jump}")
        # full case table for the ceiling step, decided on exact signs
        w_n, w_n1 = w.values[n], w.values[n + 1]
        if (w_n == 0 and w_n1 == 0) or w_n * w_n1 > 0:
            want = 0
        elif w_n * w_n1 < 0:
            want = 1 if bd > 0 else -1
        elif w_n == 0:
            want = 1 if bd > 0 else 0
        else:
            want = 0 if bd > 0 else -1
        if jump != want:
            bad.append(f"ceiling step case table violated at {n}: jump {jump}, expected {want}")

    if bad:
        failures.append({"instance": describe, "checks": bad})


def pruefer_suite(
    trials: int, seed: int, min_dim: int = 1, max_dim: int = 12
) -> VerifyReport:
    """Float-mode angle machinery vs the exact sign-based counts, with
    tolerance-band instances rejected and counted."""
    report = VerifyReport("pruefer", trials, seed, "float")
    for trial in range(trials):
        rng = _trial_rng("pruefer", seed, trial)
        h0, h1 = random_pair(rng, rng.randint(min_dim, max_dim))
        lam0, lam1 = rand_fraction(rng), rand_fraction(rng)
        describe = {
            "h0": _describe(h0),
            "h1": _describe(h1),
            "lambda0": format_scalar(lam0, True),
            "lambda1": format_scalar(lam1, True),
        }
        try:
            _check_pruefer_instance(h0, h1, lam0, lam1, report.failures, describe)
        except (BranchAmbiguity, DegenerateSolution, InconsistentSigns):
            report.rejected += 1
    return report


def random_float_jacobi(rng: random.Random, dim: int, coeff: float = 3.0) -> JacobiMatrix:
    n = dim + 1
    a = tuple(rng.uniform(-coeff, -0.1) for _ in range(max(n - 2, 0)))
    b = tuple(rng.uniform(-coeff, coeff) for _ in range(n - 1))
    return JacobiMatrix(n, a, b)


def random_float_pair(rng: random.Random, dim: int, coeff: float = 3.0):
    h0 = random_float_jacobi(rng, dim, coeff)
    b1 = tuple(rng.uniform(-coeff, coeff) for _ in range(dim))
    return h0, JacobiMatrix(h0.N, h0.a, b1)


def fd_wronskian_derivative(h0, h1, eps, z, side, n, h=1e-6):
    """Central finite-difference oracle for the closed-sum derivative."""
    solve = solve_plus if side == "plus" else solve_minus

    def at(e):
        return solve(interpolate(h0, h1, e), z).values

    u = at(eps)
    du = [(p - m) / (2 * h) for p, m in zip(at(eps + h), at(eps - h))]
    return h0.extended_a(n) * (u[n] * du[n + 1] - u[n + 1] * du[n])


def derivative_check(h0, h1, eps, z, rel_tol=1e-6, abs_floor=1e-9):
    """Closed-sum Wronskian derivative vs finite differences at every n and
    both sides; returns a list of violation descriptions."""
    bad = []
    for side in ("plus", "minus"):
        for n in range(h0.N + 1):
            exact = wronskian_eps_derivative(h0, h1, eps, z, side, n)
            approx = fd_wronskian_derivative(h0, h1, eps, z, side, n)
            tol = max(abs_floor, rel_tol * max(abs(exact), abs(approx)))
            if abs(exact - approx) > tol:
                bad.append(
                    f"side={side} n={n} eps={eps}: closed {exact} vs fd {approx}"
                )
    return bad


def homotopy_suite(
    trials: int, seed: int, min_dim: int = 1, max_dim: int = 10, margin: float = MARGIN
) -> VerifyReport:
    """Spectral-flow crossing counts, the derivative formula, and the sign
    conditions on the angle derivative for sign-definite perturbations."""
    report = VerifyReport("homotopy", trials, seed, "float")
    eps_samples = (0.0, 0.25, 0.5, 0.75, 1.0)
    for trial in range(trials):
        rng = _trial_rng("homotopy", seed, trial)
        bad = []

        # crossing count along the two-phase path vs the relative count
        for _ in range(MAX_REDRAWS_PER_TRIAL):
            h0, h1 = random_pair(rng, rng.randint(min_dim, max_dim))
            lam = rand_fraction(rng)
            try:
                crossings = signed_crossing_count(h0, h1, float(lam), margin)
            except MarginViolation:
                report.redraws += 1
                continue
            break
        else:
            raise RuntimeError("redraw budget exhausted")
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
                    "lambda": format_scalar(lam, True),
                    "float_instance": {
                        "h0": _describe(h0f, exact=False),
                        "h1": _describe(h1f, exact=False),
                        "z": z,
                        "eps": eps,
                    },
                    "checks": bad,
                }
            )
    return report


SUITES = {
    "thm11": thm11_suite,
    "thm12": lambda trials, seed, **kw: thm12_suite(
        trials, seed, eigen_trials=max(trials // 5, 1), **kw
    ),
    "pruefer": pruefer_suite,
    "homotopy": homotopy_suite,
}

"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py`` doubles
as a release report."""

import random
import subprocess
import sys
import time
from fractions import Fraction

from relosc.homotopy import eigenvalue_branches, pruefer_eps_derivative
from relosc.jacobi import JacobiMatrix, free_matrix, new_jacobi
from relosc.oracle import eigenvalues_dense, free_matrix_spectrum
from relosc.oscillation import count_below, relative_count
from relosc.verify import (
    derivative_check,
    pruefer_suite,
    random_float_jacobi,
    random_float_pair,
    thm11_suite,
    thm12_suite,
)

SEED = 42


def report(name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}{': ' + extra if extra else ''}")
    assert ok, f"{name} failed: {extra}"


def test_criterion_1_node_count_vs_oracle():
    t0 = time.monotonic()
    r = thm11_suite(500, SEED, max_dim=12)
    elapsed = time.monotonic() - t0
    report(
        "1 node-count suite (500 exact trials)",
        r.ok and elapsed <= 10,
        f"failures={len(r.failures)} redraws={r.redraws} time={elapsed:.2f}s",
    )


def test_criterion_2_relative_count_vs_oracle():
    t0 = time.monotonic()
    r = thm12_suite(500, SEED, max_dim=12)
    elapsed = time.monotonic() - t0
    report(
        "2 relative-count suite (500 + 100 eigenvalue-forced trials)",
        r.ok and elapsed <= 20,
        f"failures={len(r.failures)} redraws={r.redraws} time={elapsed:.2f}s",
    )


def test_criterion_3_hand_worked_fixtures():
    zero = new_jacobi(2, [], [Fraction(0)])
    one = new_jacobi(2, [], [Fraction(1)])
    neg = new_jacobi(2, [], [Fraction(-1)])
    got = (
        relative_count(zero, zero, 0, 0),
        relative_count(one, neg, 0, 0),
        count_below(free_matrix(5), 0),
    )
    report("3 hand-worked fixtures", got == (-1, 1, 2), f"got {got}")


def test_criterion_4_angle_consistency():
    t0 = time.monotonic()
    r = pruefer_suite(500, SEED, max_dim=12)
    elapsed = time.monotonic() - t0
    rate = r.rejected / r.trials
    report(
        "4 angle-consistency suite (500 float trials)",
        r.ok and rate < 0.01 and elapsed <= 10,
        f"failures={len(r.failures)} rejected={r.rejected} ({rate:.2%}) time={elapsed:.2f}s",
    )


def test_criterion_5_wronskian_derivative():
    t0 = time.monotonic()
    bad = []
    for trial in range(100):
        rng = random.Random(f"accept-deriv:{SEED}:{trial}")
        h0, h1 = random_float_pair(rng, rng.randint(1, 10))
        z = rng.uniform(-3.0, 3.0)
        for eps in (0.0, 1 / 3, 2 / 3, 1.0):
            bad.extend(derivative_check(h0, h1, eps, z))
    elapsed = time.monotonic() - t0
    report(
        "5 closed-sum derivative vs finite differences (100 float instances)",
        not bad and elapsed <= 10,
        f"violations={len(bad)} time={elapsed:.2f}s" + (f" first: {bad[0]}" if bad else ""),
    )


def test_criterion_6_monotone_flow():
    t0 = time.monotonic()
    bad = []
    grid = [k / 100 for k in range(101)]
    for trial in range(50):
        rng = random.Random(f"accept-flow:{SEED}:{trial}")
        h0 = random_float_jacobi(rng, rng.randint(1, 8))
        # sign-definite perturbation: H1 strictly below H0 entrywise
        h1 = JacobiMatrix(h0.N, h0.a, tuple(b - rng.uniform(0.1, 2.0) for b in h0.b))
        table = eigenvalue_branches(h0, h1, grid)
        for prev, cur in zip(table.branches, table.branches[1:]):
            for x, y in zip(prev, cur):
                if y > x + 1e-10:
                    bad.append(f"trial {trial}: branch rose by {y - x}")
        z = rng.uniform(-3.0, 3.0)
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            for n in range(h0.N + 1):
                if pruefer_eps_derivative(h0, h1, eps, z, "plus", n) > 1e-10:
                    bad.append(f"trial {trial}: plus-side angle derivative positive")
                if pruefer_eps_derivative(h0, h1, eps, z, "minus", n) < -1e-10:
                    bad.append(f"trial {trial}: minus-side angle derivative negative")
    elapsed = time.monotonic() - t0
    report(
        "6 monotone flow (50 sign-definite pairs, 101-point path)",
        not bad and elapsed <= 30,
        f"violations={len(bad)} time={elapsed:.2f}s" + (f" first: {bad[0]}" if bad else ""),
    )


def test_criterion_7_oracle_quality():
    t0 = time.monotonic()
    bad = []
    for n_par in range(2, 51):
        s = eigenvalues_dense(free_matrix(n_par))
        golden = free_matrix_spectrum(n_par)
        err = max(abs(x - y) for x, y in zip(s.eigenvalues, golden))
        if err > 1e-10:
            bad.append(f"free matrix N={n_par}: error {err}")
    for trial in range(200):
        rng = random.Random(f"accept-oracle:{SEED}:{trial}")
        h = random_float_jacobi(rng, rng.randint(1, 12))
        s = eigenvalues_dense(h)
        tr = sum(h.b)
        fro2 = sum(x * x for x in h.b) + 2 * sum(x * x for x in h.a)
        scale = max(1.0, abs(tr), fro2)
        if abs(sum(s.eigenvalues) - tr) > 1e-10 * scale:
            bad.append(f"trial {trial}: trace identity")
        if abs(sum(e * e for e in s.eigenvalues) - fro2) > 1e-10 * scale:
            bad.append(f"trial {trial}: Frobenius identity")
    elapsed = time.monotonic() - t0
    report(
        "7 oracle quality gates",
        not bad and elapsed <= 5,
        f"violations={len(bad)} time={elapsed:.2f}s" + (f" first: {bad[0]}" if bad else ""),
    )


def test_criterion_8_cli_determinism():
    cmd = [
        sys.executable, "-m", "relosc",
        "verify", "--suite", "all", "--trials", "100", "--seed", "7",
    ]
    t0 = time.monotonic()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.monotonic() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and elapsed <= 60
    )
    report(
        "8 CLI determinism (verify --suite all twice)",
        ok,
        f"exits=({first.returncode},{second.returncode}) identical={first.stdout == second.stdout} "
        f"time={elapsed:.2f}s",
    )

"""The benchmark workloads: seeded inputs, reference answers and operations.

Every workload prepares its inputs in batches.  A batch is drawn from its own
generator, seeded by (workload, seed, batch index), so the same seed gives the
same inputs.  Reference answers come from LAPACK's tridiagonal eigensolver
through ``scipy.linalg.eigvalsh_tridiagonal`` and share no code with relosc.
A threshold within ``MARGIN`` of a reference eigenvalue is redrawn, decided
from the reference alone; what the program answers never filters an input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

MARGIN = 1e-6  # the guard band relosc.verify.MARGIN uses for the same purpose
MAX_REDRAWS = 500


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expected: object


# ---- inputs, drawn the way relosc.verify draws them -------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    d = rng.randint(1, 8)
    return Fraction(rng.randint(-5 * d, 5 * d), d)


def rand_negative_fraction(rng: random.Random) -> Fraction:
    d = rng.randint(1, 8)
    return Fraction(-rng.randint(1, 5 * d), d)


def exact_offdiag(rng, dim):
    return tuple(rand_negative_fraction(rng) for _ in range(dim - 1))


def exact_diag(rng, dim):
    return tuple(rand_fraction(rng) for _ in range(dim))


def float_offdiag(rng, dim, coeff=3.0):
    return tuple(rng.uniform(-coeff, -0.1) for _ in range(dim - 1))


def float_diag(rng, dim, coeff=3.0):
    return tuple(rng.uniform(-coeff, coeff) for _ in range(dim))


def uniform_threshold(rng: random.Random) -> float:
    return rng.uniform(-4.0, 4.0)


def mixed_kinds(rng: random.Random, block: dict, n: int) -> list:
    """n operation kinds in blocks holding each kind block[kind] times, each
    block shuffled, so every whole number of blocks has the exact mix."""
    if n % sum(block.values()):
        raise ValueError(f"{n} operations are not a whole number of blocks")
    kinds = []
    while len(kinds) < n:
        b = [k for k, times in block.items() for _ in range(times)]
        rng.shuffle(b)
        kinds.extend(b)
    return kinds


# ---- the reference ----------------------------------------------------------


def spectrum(a, b) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi matrix with off-diagonal a and
    diagonal b, from LAPACK's tridiagonal eigensolver."""
    return eigvalsh_tridiagonal(np.array([float(x) for x in b]), np.array([float(x) for x in a]))


def below(eigs: np.ndarray, lam, strict: bool = True) -> int:
    """#{E < lam} (strict) or #{E <= lam} in an ascending spectrum."""
    return int(np.searchsorted(eigs, float(lam), side="left" if strict else "right"))


def clear_of(eigs: np.ndarray, lam) -> bool:
    x = float(lam)
    i = int(np.searchsorted(eigs, x))
    near = eigs[max(i - 1, 0):i + 1]
    return not np.any(np.abs(near - x) < MARGIN)


def threshold(rng, draw, *spectra):
    """A threshold from draw(rng) that keeps MARGIN from every spectrum."""
    for _ in range(MAX_REDRAWS):
        lam = draw(rng)
        if all(clear_of(e, lam) for e in spectra):
            return lam
    raise RuntimeError("threshold redraw budget exhausted")


# ---- workloads --------------------------------------------------------------


class Workload:
    """A source of operations.  ``batch`` does all the set-up work for
    ``batch_ops`` operations and returns them with one warm-up operation."""

    name = ""
    batch_ops = 0
    block: dict = {}  # kind -> operations of that kind in each block of the mix

    @property
    def block_size(self) -> int:
        return sum(self.block.values())

    def batch(self, relosc, rng: random.Random, workdir: str):
        raise NotImplementedError

    def execute(self, relosc, op: Op):
        raise NotImplementedError

    def check(self, op: Op, answer) -> str | None:
        """None when the answer is right, else the failure's name."""
        return None if answer == op.expected else "wrong_answer"

    def counters(self, kind: str, answer) -> dict:
        """Counts the program reported in an answer, summed per run."""
        return {}


class ExactLarge(Workload):
    """Fresh exact-rational matrices, one per operation: 70% ``count_below``,
    30% ``relative_count``.  No matrix is used twice.  d=900, not 1000: at
    d=1000 about one solution in 20000 exceeds the float range, and the
    seed's ``numeric.seq_scale`` then raises OverflowError."""

    name = "exact-large"
    block = {"count": 7, "relative": 3}

    def __init__(self, dim: int = 900, batch_ops: int = 10):
        self.dim = dim
        self.batch_ops = batch_ops

    def _op(self, relosc, rng, kind):
        a, b0 = exact_offdiag(rng, self.dim), exact_diag(rng, self.dim)
        h0, e0 = relosc.new_jacobi(self.dim + 1, a, b0), spectrum(a, b0)
        if kind == "count":
            lam = threshold(rng, rand_fraction, e0)
            return Op(kind, (h0, lam), below(e0, lam))
        b1 = exact_diag(rng, self.dim)
        h1, e1 = relosc.new_jacobi(self.dim + 1, a, b1), spectrum(a, b1)
        lam = threshold(rng, rand_fraction, e0, e1)
        return Op(kind, (h0, h1, lam), below(e1, lam) - below(e0, lam, strict=False))

    def batch(self, relosc, rng, workdir):
        ops = [self._op(relosc, rng, k) for k in mixed_kinds(rng, self.block, self.batch_ops)]
        return self._op(relosc, rng, "count"), ops

    def execute(self, relosc, op):
        if op.kind == "count":
            return relosc.oscillation.count_below(*op.args)
        h0, h1, lam = op.args
        return relosc.oscillation.relative_count(h0, h1, lam, lam)


class FloatSweep(Workload):
    """One float pair per batch, queried at many thresholds in [-4, 4]:
    ``count_below``, ``relative_count`` and the Prüfer-angle node count.
    Not listed in BENCHMARK.json: at the seed nearly every operation fails
    (the ``numeric.seq_scale`` defect), so it is run by hand to show that."""

    name = "float-sweep"
    block = {"count": 17, "relative": 1, "angles": 2}

    def __init__(self, dim: int = 2000, batch_ops: int = 1000):
        self.dim = dim
        self.batch_ops = batch_ops

    def _op(self, rng, kind, h0, h1, e0, e1):
        if kind == "relative":
            lam = threshold(rng, uniform_threshold, e0, e1)
            return Op(kind, (h0, h1, lam), below(e1, lam) - below(e0, lam, strict=False))
        lam = threshold(rng, uniform_threshold, e0)
        return Op(kind, (h0, lam), below(e0, lam))

    def batch(self, relosc, rng, workdir):
        a = float_offdiag(rng, self.dim)
        b0, b1 = float_diag(rng, self.dim), float_diag(rng, self.dim)
        h0, h1 = relosc.new_jacobi(self.dim + 1, a, b0), relosc.new_jacobi(self.dim + 1, a, b1)
        pair = (h0, h1, spectrum(a, b0), spectrum(a, b1))
        ops = [self._op(rng, k, *pair) for k in mixed_kinds(rng, self.block, self.batch_ops)]
        return self._op(rng, "count", *pair), ops

    def execute(self, relosc, op):
        if op.kind == "count":
            return relosc.oscillation.count_below(*op.args)
        if op.kind == "relative":
            h0, h1, lam = op.args
            return relosc.oscillation.relative_count(h0, h1, lam, lam)
        h0, lam = op.args
        u = relosc.recurrence.solve_minus(h0, lam, renormalize=True)
        return relosc.pruefer.node_count_via_angles(relosc.pruefer.pruefer_sequence(u))


def write_matrix(path: str, a, b) -> None:
    def entry(x):
        return str(x) if isinstance(x, Fraction) else x

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"N": len(b) + 1, "a": [entry(x) for x in a], "b": [entry(x) for x in b]}, fh)


class CliSmall(Workload):
    """In-process ``relosc.cli.main(argv)`` on matrix files written during
    set-up.  The CLI's own oracle runs on every count, relative and flow.
    Counts and relative counts are exact: float ones fail at d=40 at the
    seed (see FloatSweep).  Each verify runs one suite; the homotopy suite
    is left out because its finite-difference derivative check fails about
    once in a thousand runs at the seed."""

    name = "cli-small"
    block = {"count": 4, "relative": 2, "flow": 2, "verify": 2}
    verify_suites = ("thm11", "thm12", "pruefer")

    def __init__(self, dim: int = 40, flow_dim: int = 20, flow_steps: int = 10,
                 verify_trials: int = 3, batch_ops: int = 10):
        self.dim = dim
        self.flow_dim = flow_dim
        self.flow_steps = flow_steps
        self.verify_trials = verify_trials
        self.batch_ops = batch_ops
        self._files = 0

    def _file(self, workdir, a, b) -> str:
        self._files += 1
        path = os.path.join(workdir, f"m{self._files}.json")
        write_matrix(path, a, b)
        return path

    def _op(self, rng, kind, workdir):
        if kind == "verify":
            suite, seed = rng.choice(self.verify_suites), rng.randrange(10**6)
            argv = ["verify", "--suite", suite, "--trials", str(self.verify_trials), "--seed", str(seed)]
            return Op(kind, tuple(argv), True)
        if kind == "flow":
            a, b0 = float_offdiag(rng, self.flow_dim), float_diag(rng, self.flow_dim)
            b1 = float_diag(rng, self.flow_dim)
            grid = [k / self.flow_steps for k in range(self.flow_steps + 1)]
            rows = [spectrum(a, [(1 - e) * x + e * y for x, y in zip(b0, b1)]) for e in grid]
            argv = ["flow", self._file(workdir, a, b0), self._file(workdir, a, b1),
                    "--steps", str(self.flow_steps)]
            return Op(kind, tuple(argv), np.array(rows))
        a, b0 = exact_offdiag(rng, self.dim), exact_diag(rng, self.dim)
        e0 = spectrum(a, b0)
        if kind == "count":
            lam = threshold(rng, rand_fraction, e0)
            argv = ["count", self._file(workdir, a, b0), f"--lambda={lam}"]
            return Op(kind, tuple(argv), below(e0, lam))
        b1 = exact_diag(rng, self.dim)
        e1 = spectrum(a, b1)
        lam0, lam1 = threshold(rng, rand_fraction, e0), threshold(rng, rand_fraction, e1)
        argv = ["relative", self._file(workdir, a, b0), self._file(workdir, a, b1),
                f"--lambda0={lam0}", f"--lambda1={lam1}"]
        return Op(kind, tuple(argv), below(e1, lam1) - below(e0, lam0, strict=False))

    def batch(self, relosc, rng, workdir):
        ops = [self._op(rng, k, workdir) for k in mixed_kinds(rng, self.block, self.batch_ops)]
        return self._op(rng, "count", workdir), ops

    def execute(self, relosc, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = relosc.cli.main(list(op.args))
        lines = out.getvalue().splitlines()
        return code, json.loads(lines[-1]) if code == 0 and lines else None

    def check(self, op, answer):
        code, report = answer
        if code != 0:
            return "exit_code"
        if op.kind == "verify":
            right = report["ok"] is op.expected and report["trials"] == self.verify_trials
        elif op.kind == "flow":
            got = np.array(report["branches"], dtype=float)
            scale = 1.0 + float(np.max(np.abs(op.expected)))
            right = got.shape == op.expected.shape and bool(
                np.all(np.abs(got - op.expected) <= 1e-8 * scale)
            )
        elif op.kind == "count":
            right = report["count"] == op.expected
        else:
            right = report["relative_count"] == op.expected
        return None if right else "wrong_answer"

    def counters(self, kind, answer):
        code, report = answer
        if kind != "verify" or report is None:
            return {}
        suites = report["suites"].values()
        return {key: sum(s[key] for s in suites) for key in ("trials", "redraws", "rejected")}


def all_workloads() -> dict:
    return {w.name: w for w in (ExactLarge(), FloatSweep(), CliSmall())}

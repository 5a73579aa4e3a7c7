"""Command-line front end.

Commands: ``spectrum``, ``count``, ``relative``, ``flow``, ``verify``.
Each run prints a single machine-readable JSON object on stdout and a
human summary on stderr.  Exit codes: 0 success / agreement, 1
verification disagreement, 2 usage or input error.

Matrix files are JSON objects ``{"N": int, "a": [...], "b": [...]}``;
entries are numbers (float mode) or rational strings "p/q" (exact mode).
The RELOSC_MODE environment variable (auto | exact | float) overrides the
mode inferred from the file contents.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import MarginViolation, ParseError, ReloscError
from .jacobi import JacobiMatrix, to_exact_matrix, to_float_matrix
from .homotopy import eigenvalue_branches
from .numeric import format_scalar, parse_scalar
from .oracle import eigenvalues_dense, oracle_count, oracle_relative_count
from .oscillation import count_below, relative_count
from .verify import SUITES

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2

SCALAR_OPTIONS = ("--lambda", "--lambda0", "--lambda1")


def parse_matrix(path: str):
    """Load a matrix file; returns (matrix, exact_mode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or an int past the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key, kind in (("N", int), ("a", list), ("b", list)):
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
        if not isinstance(doc[key], kind):
            name = "an integer" if kind is int else "an array"
            raise ParseError(f"{path}: field {key!r} must be {name}")
    exact = any(
        isinstance(v, str) for field in ("a", "b") for v in doc[field]
    )
    try:
        a = [parse_scalar(v) for v in doc["a"]]
        b = [parse_scalar(v) for v in doc["b"]]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return JacobiMatrix(doc["N"], tuple(a), tuple(b)), exact


def _parse_lambda(text: str):
    """(value, exact): a threshold written "p" or "p/q" is exact, any other
    is float(text), so that a float threshold keeps its bits."""
    exact = "." not in text and "e" not in text.lower()
    try:
        return parse_scalar(text if exact else float(text)), exact
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from exc


def _join_negative_scalars(argv: list) -> list:
    """Rewrite "--lambda -1/2" as "--lambda=-1/2".  argparse reads a separate
    token such as -1/2 or -1e-3 as an option rather than as the value of the
    option before it."""
    out = []
    for token in argv:
        if out and out[-1] in SCALAR_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _load(mode: str, files: list, lambdas: list):
    """(mode, matrices, thresholds): files are parsed before thresholds, and
    "auto" mode is exact when every input is exact."""
    matrices = [parse_matrix(path) for path in files]
    scalars = [_parse_lambda(text) for text in lambdas]
    if mode == "auto":
        mode = "exact" if all(exact for _, exact in matrices + scalars) else "float"
    exact = mode == "exact"
    return (
        mode,
        [to_exact_matrix(h) if exact else to_float_matrix(h) for h, _ in matrices],
        [Fraction(x) if exact else float(x) for x, _ in scalars],
    )


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    sys.stderr.write(summary + "\n")


def _emit_checked(report: dict, count: int, oracle, summary: str) -> int:
    """Emit report with the oracle's answer and whether it agrees with count,
    both null when lambda is within the margin guard; returns the exit code."""
    try:
        report["oracle"] = oracle()
    except MarginViolation:
        report["oracle"] = None
    report["agree"] = None if report["oracle"] is None else report["oracle"] == count
    _emit(report, f"{summary}: {count} (oracle: {report['oracle']})")
    return EXIT_OK if report["agree"] is not False else EXIT_DISAGREE


def cmd_spectrum(args, mode_override: str) -> int:
    h, _ = parse_matrix(args.file)
    s = eigenvalues_dense(h)
    _emit(
        {
            "eigenvalues": list(s.eigenvalues),
            "method": s.method,
            "max_offdiag_residual": s.max_offdiag_residual,
            "n": h.dim,
        },
        f"{h.dim} eigenvalues of {args.file} ({s.method})",
    )
    return EXIT_OK


def cmd_count(args, mode_override: str) -> int:
    mode, (h,), (lam,) = _load(mode_override, [args.file], [args.lam])
    count = count_below(h, lam)
    report = {"count": count, "lambda": format_scalar(lam), "mode": mode}
    return _emit_checked(report, count, lambda: oracle_count(h, lam), f"count below {args.lam}")


def cmd_relative(args, mode_override: str) -> int:
    mode, (h0, h1), (lam0, lam1) = _load(
        mode_override, [args.file0, args.file1], [args.lam0, args.lam1]
    )
    count = relative_count(h0, h1, lam0, lam1)  # raises PairingDisagreement on breach
    report = {
        "relative_count": count,
        "pairings_agree": True,
        "lambda0": format_scalar(lam0),
        "lambda1": format_scalar(lam1),
        "mode": mode,
    }
    return _emit_checked(
        report, count, lambda: oracle_relative_count(h0, h1, lam0, lam1), "relative count"
    )


def cmd_flow(args, mode_override: str) -> int:
    h0, _ = parse_matrix(args.file0)
    h1, _ = parse_matrix(args.file1)
    if args.steps < 1:
        raise ParseError("--steps must be >= 1")
    grid = [k / args.steps for k in range(args.steps + 1)]
    kind = "two-phase" if args.two_phase else "linear"
    table = eigenvalue_branches(h0, h1, grid, kind)
    if args.csv:
        for eps, row in zip(table.grid, table.branches):
            sys.stdout.write(",".join(repr(float(x)) for x in (eps, *row)) + "\n")
    else:
        _emit(
            {
                "path": kind,
                "grid": list(table.grid),
                "branches": [list(r) for r in table.branches],
            },
            f"{len(table.grid)} grid points, {len(table.branches[0])} branches ({kind})",
        )
    return EXIT_OK


def cmd_verify(args, mode_override: str) -> int:
    if args.max_dim < 1:
        raise ParseError("--max-dim must be >= 1")
    if args.trials < 0:
        raise ParseError("--trials must be >= 0")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    ok = True
    for name in names:
        report = SUITES[name](args.trials, args.seed, max_dim=args.max_dim)
        suites[name] = report.to_dict()
        ok = ok and report.ok
    _emit(
        {"suites": suites, "trials": args.trials, "seed": args.seed, "ok": ok},
        "all suites passed"
        if ok
        else "FAILURES in: " + ", ".join(n for n, r in suites.items() if r["failures"]),
    )
    return EXIT_OK if ok else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relosc",
        description="Eigenvalue counting for Jacobi matrices via (relative) oscillation theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="oracle spectrum of a matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("count", help="eigenvalues below a threshold via node counting")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("relative", help="difference of eigenvalue counts via weighted Wronskian nodes")
    p.add_argument("file0")
    p.add_argument("file1")
    p.add_argument("--lambda0", dest="lam0", required=True)
    p.add_argument("--lambda1", dest="lam1", required=True)
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser("flow", help="eigenvalue branches along the interpolation path")
    p.add_argument("file0")
    p.add_argument("file1")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--two-phase", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify", help="randomized verification against the oracle")
    p.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    mode = os.environ.get("RELOSC_MODE", "auto")
    if mode not in ("auto", "exact", "float"):
        sys.stderr.write(f"relosc: bad RELOSC_MODE {mode!r}\n")
        return EXIT_INPUT
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_scalars(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args, mode)
    except ReloscError as exc:
        sys.stderr.write(f"relosc: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

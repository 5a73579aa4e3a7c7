"""relosc benchmark: one closed-loop client timing calls into relosc.

Usage (from the repository root):

    python3 bench/run.py --workload exact-large --seed 1 --seconds 10 --trace 0

The relosc package is imported from ``src/`` next to this directory.  Set-up
prepares every input from the seed, with reference answers from LAPACK, then
the run measures for ``--seconds`` and at least ``MIN_OPS`` operations and
checks every answer.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass over the same operations, followed by an untraced pass over them
that gives the tracing overhead.  The span file goes to ``bench/out/``.
A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

# one thread: a BLAS thread pool would compete with the client for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_BATCHES = 11  # set-up runs this many times per run; setup_s is their median
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
MAX_MEASURE_S = 120.0  # stop early rather than overrun the 180 s limit of a run

# exceptions the workloads are known to raise at some commit; others go to fail.other
FAIL_EXCEPTIONS = (
    "PairingDisagreement", "DegenerateSolution", "BranchAmbiguity",
    "InconsistentSigns", "OverflowError",
)


class SourceMissing(Exception):
    pass


def import_relosc(src: Path = ROOT / "src"):
    """Import relosc from the source tree beside the benchmark; returns the
    package and the import time in seconds."""
    if not (src / "relosc" / "__init__.py").is_file():
        raise SourceMissing(f"no relosc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    relosc = importlib.import_module("relosc")
    for name in ("cli", "verify"):
        importlib.import_module(f"relosc.{name}")
    elapsed = time.perf_counter() - start
    if Path(relosc.__file__).resolve().parent != (src / "relosc").resolve():
        raise SourceMissing(f"relosc was imported from {relosc.__file__}, not {src}")
    return relosc, elapsed


@contextlib.contextmanager
def counted_warnings(counts: dict):
    """Count every warning by category name instead of printing it."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")

        def count(message, category, *rest, **kw):
            counts[category.__name__] = counts.get(category.__name__, 0) + 1

        warnings.showwarning = count
        yield counts


class OpSource:
    """Operations in order, set up batch by batch from the seed.  Unless
    ``keep`` is set, ``measure`` drops each operation once it has run, so
    that peak memory does not grow with the number of operations a run
    completes."""

    def __init__(self, relosc, workload, seed: int, workdir: str, keep: bool = True):
        self.relosc, self.workload, self.seed, self.workdir = relosc, workload, seed, workdir
        self.keep = keep
        self.ops: list = []
        self.setup_s: list = []

    def add_batch(self) -> float:
        """Set up one more batch, run its warm-up operation; returns the time."""
        start = time.perf_counter()
        rng = random.Random(f"{self.workload.name}:{self.seed}:{len(self.setup_s)}")
        warm, ops = self.workload.batch(self.relosc, rng, self.workdir)
        # the warm-up answer is not checked: seed defects fail some of them
        with contextlib.suppress(Exception):
            self.workload.execute(self.relosc, warm)
        elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed)
        self.ops.extend(ops)
        return elapsed


def measure(source: OpSource, seconds: float, count: int | None = None, trace=None):
    """Run operations in a closed loop; returns per-op records and the
    measured seconds.  Without ``count`` the loop runs for ``seconds`` and at
    least MIN_OPS operations, and ends on a whole block of the workload's mix.
    Batches set up during the loop are left out of the measured time."""
    workload, relosc = source.workload, source.relosc
    records = []
    paused = 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - paused

    i = 0
    block = workload.block_size
    while (i < count) if count is not None else (
        (i < MIN_OPS or elapsed() < seconds or i % block) and elapsed() < MAX_MEASURE_S
    ):
        while i >= len(source.ops):
            paused += source.add_batch()
        op = source.ops[i]
        if not source.keep:
            source.ops[i] = None
        span = trace.begin_op(i, op.kind) if trace else None
        error = None
        t0 = time.perf_counter()
        try:
            answer = workload.execute(relosc, op)
        except Exception as exc:
            answer, error = None, type(exc).__name__
        t1 = time.perf_counter()
        if trace:
            trace.end_op(span, t0, t1, error)
        failure = error or workload.check(op, answer)
        records.append((op.kind, t1 - t0, failure, answer))
        i += 1
    return records, elapsed()


def failure_counts(records) -> dict:
    return dict(Counter(failure for _, _, failure, _ in records if failure))


def end_to_end(records, measured_s: float, setup_s: float) -> dict:
    """End-to-end metrics of an untraced pass, as (value, unit) by name."""
    latencies = [r[1] * 1e3 for r in records]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(records) / measured_s, "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(trace, records, workload, warned: dict, overhead: float) -> dict:
    """Per-layer metrics of a traced pass, as (value, unit) by name."""
    totals = trace.layer_totals()

    def layer(name, key):
        return totals.get(name, {}).get(key, 0)

    verify = {"trials": 0, "redraws": 0, "rejected": 0}
    for kind, _, _, answer in records:
        if answer is not None:
            for key, value in workload.counters(kind, answer).items():
                verify[key] += value
    attempts = verify["trials"] + verify["redraws"]
    fails = failure_counts(records)
    dims = trace.oracle_dims
    m = {
        "recurrence.solve.calls": (layer("recurrence.solve", "calls"), "count"),
        "recurrence.solve.self_s": (layer("recurrence.solve", "self_s"), "s"),
        "recurrence.wronskian.calls": (layer("recurrence.wronskian", "calls"), "count"),
        "recurrence.wronskian.self_s": (layer("recurrence.wronskian", "self_s"), "s"),
        "recurrence.exact_bits_max": (trace.exact_bits_max, "bit"),
        "oscillation.classify.calls": (layer("oscillation.classify", "calls"), "count"),
        "oscillation.classify.self_s": (layer("oscillation.classify", "self_s"), "s"),
        "oscillation.near_eigenvalue_warnings": (warned.get("NearEigenvalueWarning", 0), "count"),
        "oracle.eig.calls": (layer("oracle.eig", "calls"), "count"),
        "oracle.eig.self_s": (layer("oracle.eig", "self_s"), "s"),
        "oracle.eig.dim_mean": (statistics.fmean(dims) if dims else 0.0, "count"),
        "pruefer.angles.calls": (layer("pruefer.angles", "calls"), "count"),
        "pruefer.angles.self_s": (layer("pruefer.angles", "self_s"), "s"),
        "pruefer.rejects": (layer("pruefer.angles", "errors"), "count"),
        "homotopy.derivative.calls": (layer("homotopy.derivative", "calls"), "count"),
        "homotopy.derivative.self_s": (layer("homotopy.derivative", "self_s"), "s"),
        "homotopy.branches.self_s": (layer("homotopy.branches", "self_s"), "s"),
        "jacobi.interpolate.calls": (layer("jacobi.interpolate", "calls"), "count"),
        "verify.trials": (verify["trials"], "count"),
        "verify.redraws": (verify["redraws"], "count"),
        "verify.rejected": (verify["rejected"], "count"),
        "verify.useful_ratio": (
            (verify["trials"] - verify["rejected"]) / attempts if attempts else 0.0, "ratio"
        ),
        "cli.parse.calls": (layer("cli.parse", "calls"), "count"),
        "cli.parse.self_s": (layer("cli.parse", "self_s"), "s"),
        "fail.wrong_answer": (fails.get("wrong_answer", 0), "count"),
        "fail.exit_code": (fails.get("exit_code", 0), "count"),
    }
    for name in FAIL_EXCEPTIONS:
        m[f"fail.{name}"] = (fails.get(name, 0), "count")
    known = {"wrong_answer", "exit_code", *FAIL_EXCEPTIONS}
    m["fail.other"] = (sum(n for k, n in fails.items() if k not in known), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def module_table(trace) -> list:
    """(module, self seconds, share) rows, largest first."""
    by_module = {}
    for layer, t in trace.layer_totals().items():
        module = layer.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + t["self_s"]
    total = sum(by_module.values()) or 1.0
    return sorted(((m, s, s / total) for m, s in by_module.items()), key=lambda r: -r[1])


def traced_passes(source: OpSource, seconds: float, warned: dict):
    """A traced pass, then an untraced pass over the same operations for the
    tracing overhead.  Returns the traced records, the per-layer metrics,
    the tracer and whether both passes gave the same outcomes."""
    spans = tracer.Tracer()
    before = dict(warned)
    with spans.installed():
        records, traced_s = measure(source, seconds, trace=spans)
    pass_warnings = {k: n - before.get(k, 0) for k, n in warned.items()}
    gc.collect()  # like the traced pass, start from a collected heap
    plain, plain_s = measure(source, seconds, count=len(records))
    consistent = [r[2:] for r in plain] == [r[2:] for r in records]
    if not consistent:
        print("traced and untraced passes disagree", file=sys.stderr)
    metrics = per_layer(spans, records, source.workload, pass_warnings, traced_s / plain_s - 1)
    return records, metrics, spans, consistent


def run(relosc, workload, seed: int, seconds: float, trace: bool, import_s: float):
    """One benchmark run; returns the result object printed last, a summary
    and the self-time table (empty when untraced)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="files-", dir=OUT_DIR)
    warned: dict = {}
    table = []
    try:
        with counted_warnings(warned):
            # a traced run replays its operations untraced for the overhead
            source = OpSource(relosc, workload, seed, workdir, keep=trace)
            for _ in range(SETUP_BATCHES):
                source.add_batch()
            setup_s = import_s + statistics.median(source.setup_s)
            gc.collect()
            if trace:
                records, metrics, spans, consistent = traced_passes(source, seconds, warned)
                path = OUT_DIR / f"spans-{workload.name}-{seed}.json"
                spans.write(path, {"workload": workload.name, "seed": seed})
                print(f"spans: {path}", file=sys.stderr)
                table = module_table(spans)
            else:
                records, measured = measure(source, seconds)
                metrics, consistent = end_to_end(records, measured, setup_s), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fails = failure_counts(records)
    failed = sum(fails.values())
    summary = {
        "workload": workload.name,
        "ops": len(records),
        "fail_ratio": failed / len(records),
        "failures": fails,
    }
    return {
        "correct": failed == 0 and consistent,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, summary, table


def print_human(result: dict, summary: dict, table: list) -> None:
    err = sys.stderr
    print(f"workload {summary['workload']}: {summary['ops']} ops, "
          f"fail_ratio {summary['fail_ratio']:.4f} (ratio)", file=err)
    for name, n in sorted(summary["failures"].items()):
        print(f"  fail.{name:<24} {n}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}", file=err)
    if table:
        print("  self time by module:", file=err)
        for module, seconds, share in table:
            print(f"    {module:<20} {seconds:>10.4f} s {100 * share:6.1f}%", file=err)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="relosc benchmark")
    p.add_argument("--workload", choices=names, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, available=None) -> int:
    available = available or workloads.all_workloads()
    args = parse_args(argv, list(available))
    try:
        relosc, import_s = import_relosc()
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, summary, table = run(
        relosc, available[args.workload], args.seed, args.seconds, bool(args.trace), import_s
    )
    print_human(result, summary, table)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

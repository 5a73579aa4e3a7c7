"""Spans around the public functions of each relosc layer.

Only the traced run installs the wrappers.  Each wrapper replaces a public
function at every name its callers look it up by (for example both
``relosc.oscillation.solve_minus`` and ``relosc.homotopy.eigenvalues_dense``),
so calls between layers are caught without touching the package.  Spans are
kept in memory and written out when the run ends.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import astuple, dataclass
from time import perf_counter

# layer -> (defining module, public functions whose calls make up the layer)
LAYERS = {
    "recurrence.solve": ("relosc.recurrence", ("solve_minus", "solve_plus")),
    "recurrence.wronskian": ("relosc.recurrence", ("wronskian_pair",)),
    "oscillation.classify": (
        "relosc.oscillation",
        ("count_below", "relative_count", "count_nodes", "is_node",
         "is_eigenvalue", "weighted_node_count"),
    ),
    "oracle.eig": ("relosc.oracle", ("eigenvalues_dense",)),
    "pruefer.angles": (
        "relosc.pruefer",
        ("pruefer_sequence", "node_count_via_angles", "theta_ceils",
         "relative_angle_sequence", "delta_ceils", "weighted_count_via_angles"),
    ),
    "homotopy.derivative": (
        "relosc.homotopy", ("wronskian_eps_derivative", "pruefer_eps_derivative")
    ),
    "homotopy.branches": ("relosc.homotopy", ("eigenvalue_branches", "signed_crossing_count")),
    "jacobi.interpolate": ("relosc.jacobi", ("interpolate",)),
    # argparse's parse_args is wrapped on each parser build_parser returns
    "cli.parse": ("relosc.cli", ("build_parser", "parse_matrix", "_parse_lambda")),
}

OP_LAYER = "op"  # one root span per benchmark operation
BOOKKEEPING_LAYER = "trace.bookkeeping"  # tracer work inside a parent span


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int  # operation the span belongs to
    error: str | None  # exception type that ended the span


def exact_bits(values) -> int:
    """Largest numerator plus denominator bit length among exact values."""
    best = 0
    for v in values:
        if isinstance(v, float):
            return 0
        bits = v.numerator.bit_length() + v.denominator.bit_length()
        if bits > best:
            best = bits
    return best


def relosc_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "relosc" or n.startswith("relosc.")]


class Tracer:
    """Collects spans and the counts measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self.exact_bits_max = 0
        self.oracle_dims: list = []

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # between operations: set-up and warm-up are not measured
                return fn(*args, **kwargs)
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if layer == "oracle.eig":
                self.oracle_dims.append(args[0].dim)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(layer, fn.__name__, start, end, parent, self.op, error)
            self._observe(layer, fn.__name__, result, parent)
            return result

        return traced

    def _observe(self, layer: str, name: str, result, parent: int) -> None:
        if layer == "recurrence.solve":
            start = perf_counter()
            self.exact_bits_max = max(self.exact_bits_max, exact_bits(result.values))
            self.spans.append(
                Span(BOOKKEEPING_LAYER, "exact_bits", start, perf_counter(), parent, self.op, None)
            )
        elif name == "build_parser":
            result.parse_args = self.wrap(layer, result.parse_args)

    def begin_op(self, op: int, kind: str) -> int:
        self.op = op
        index = len(self.spans)
        self.spans.append(Span(OP_LAYER, kind, 0.0, 0.0, -1, op, None))
        self._stack.append(index)
        return index

    def end_op(self, index: int, start: float, end: float, error: str | None) -> None:
        self._stack.pop()
        self.spans[index] = Span(OP_LAYER, self.spans[index].name, start, end, -1, self.op, error)

    @contextlib.contextmanager
    def installed(self):
        """Replace every layer function at all names it is bound to."""
        modules = relosc_modules()
        replaced = []
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                traced = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def layer_totals(self) -> dict:
        """layer -> {"calls": entries from another layer, "self_s", "errors"}."""
        totals = {}
        for s, own in zip(self.spans, self.self_times()):
            t = totals.setdefault(s.layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            t["self_s"] += own
            entered = s.parent < 0 or self.spans[s.parent].layer != s.layer
            if entered:
                t["calls"] += 1
                t["errors"] += s.error is not None
        return totals

    def write(self, path, header: dict) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = []
        for s in self.spans:
            row = list(astuple(s))
            row[2] -= origin
            row[3] -= origin
            rows.append(row)
        doc = dict(header, columns=list(Span.__dataclass_fields__), spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
RELOSC, _ = run.import_relosc()


def tiny() -> dict:
    return {
        w.name: w
        for w in (
            workloads.ExactLarge(dim=30, batch_ops=10),
            workloads.FloatSweep(dim=60, batch_ops=40),
            workloads.CliSmall(dim=8, flow_dim=5, flow_steps=3, verify_trials=1, batch_ops=10),
        )
    }


def source(workload, seed, tmp_path):
    tmp_path.mkdir(exist_ok=True)
    s = run.OpSource(RELOSC, workload, seed, str(tmp_path))
    s.add_batch()
    return s


def outcomes(records):
    return [(kind, failure, answer) for kind, _, failure, answer in records]


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def fingerprint(op):
    """An operation's inputs, with matrix files replaced by their contents."""
    args = tuple(Path(a).read_text() if isinstance(a, str) and a.endswith(".json") else a
                 for a in op.args)
    return op.kind, args


@pytest.mark.parametrize("name", list(tiny()))
def test_traced_and_untraced_passes_agree(name, tmp_path):
    s = source(tiny()[name], 7, tmp_path)
    n = len(s.ops)
    plain, _ = run.measure(s, 0, count=n)
    spans = tracer.Tracer()
    with spans.installed():
        traced, _ = run.measure(s, 0, count=n, trace=spans)
    assert outcomes(traced) == outcomes(plain)
    assert run.failure_counts(traced) == run.failure_counts(plain)
    assert RELOSC.oscillation.count_below.__name__ == "count_below"
    assert not hasattr(RELOSC.oscillation.count_below, "__wrapped__")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(tiny()))
def test_every_listed_metric_is_printed(name, trace, section, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, available=tiny()) == 0
    out, err = capsys.readouterr()
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= run.MIN_OPS
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in SPEC[section]:
        assert m["name"] in err
    if name != "cli-small" and trace:
        assert result["metrics"]["oracle.eig.calls"]["value"] == 0


def test_untraced_source_drops_operations_once_run(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    s = run.OpSource(RELOSC, tiny()["exact-large"], 7, str(tmp_path), keep=False)
    s.add_batch()
    records, _ = run.measure(s, 0, count=len(s.ops))
    assert len(records) == len(s.ops) > 0
    assert s.ops == [None] * len(s.ops)


def test_seeds_change_inputs_not_metric_names(tmp_path, capsys):
    for w in tiny().values():
        one = [fingerprint(op) for op in source(w, 1, tmp_path / "a").ops]
        again = [fingerprint(op) for op in source(w, 1, tmp_path / "b").ops]
        two = [fingerprint(op) for op in source(w, 2, tmp_path / "c").ops]
        assert one == again
        assert one != two
    names = []
    for seed in (1, 2):
        argv = ["--workload", "exact-large", "--seed", str(seed), "--seconds", "0.1", "--trace", "0"]
        run.main(argv, available=tiny())
        names.append(set(last_json(capsys.readouterr().out)["metrics"]))
    assert names[0] == names[1]


def test_checker_counts_an_injected_wrong_answer(tmp_path, monkeypatch):
    real = RELOSC.oscillation.count_below
    monkeypatch.setattr(RELOSC.oscillation, "count_below", lambda h, lam: real(h, lam) + 1)
    s = source(tiny()["exact-large"], 5, tmp_path)
    records, _ = run.measure(s, 0, count=len(s.ops))
    counts = sum(1 for r in records if r[0] == "count")
    assert counts > 0
    assert run.failure_counts(records) == {"wrong_answer": counts}


def test_cli_disagreement_counts_as_exit_code(tmp_path, monkeypatch):
    real = RELOSC.cli.count_below
    monkeypatch.setattr(RELOSC.cli, "count_below", lambda h, lam: real(h, lam) + 1)
    s = source(tiny()["cli-small"], 5, tmp_path)
    records, _ = run.measure(s, 0, count=len(s.ops))
    counts = sum(1 for r in records if r[0].startswith("count"))
    assert counts > 0
    assert run.failure_counts(records).get("exit_code") == counts


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "exact-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

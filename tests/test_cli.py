import json
import time
from fractions import Fraction

import pytest

from relosc import oracle, oscillation
from relosc.cli import main, parse_matrix
from relosc.errors import NoConvergence, PairingDisagreement, ParseError, ReloscError
from relosc.jacobi import free_matrix
from relosc.numeric import parse_scalar
from relosc.verify import SUITES, thm12_suite


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def free5(tmp_path):
    return write(tmp_path, "f5.json", {"N": 5, "a": [-1, -1, -1], "b": [0, 0, 0, 0]})


@pytest.fixture
def one(tmp_path):
    return write(tmp_path, "one.json", {"N": 2, "a": [], "b": ["1/1"]})


@pytest.fixture
def neg(tmp_path):
    return write(tmp_path, "neg.json", {"N": 2, "a": [], "b": ["-1/1"]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_matrix_float_mode(free5):
    h, exact = parse_matrix(free5)
    assert h.N == 5 and not exact


def test_parse_matrix_exact_mode(one):
    h, exact = parse_matrix(one)
    assert exact
    assert h.b == (Fraction(1),)


def test_parse_matrix_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError):
        parse_matrix(str(bad))
    bad.write_text('{"N": 2, "a": []}')
    with pytest.raises(ParseError):
        parse_matrix(str(bad))
    bad.write_text('{"N": 2, "a": [], "b": ["1/0"]}')
    with pytest.raises(ParseError):
        parse_matrix(str(bad))


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_parse_matrix_rejects_non_finite(tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 3, "a": [-1], "b": [%s, 1]}' % entry)
    with pytest.raises(ParseError):
        parse_matrix(str(bad))


def test_spectrum_command(capsys, free5):
    code, out, err = run(capsys, "spectrum", free5)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert len(doc["eigenvalues"]) == 4
    assert "eigenvalues" in err


def test_count_command_agrees(capsys, free5):
    code, out, _ = run(capsys, "count", free5, "--lambda", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["oracle"] == 2 and doc["agree"] is True


def test_count_exact_mode_inferred(capsys, one):
    code, out, _ = run(capsys, "count", one, "--lambda", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    assert doc["lambda"] == "1/2"
    assert doc["count"] == 0


@pytest.mark.parametrize("lam, below", [("-1/2", 2), ("-1e-3", 2), ("-0.5", 2), ("-1", 1)])
def test_count_negative_threshold_as_separate_token(capsys, free5, lam, below):
    # F(5) has eigenvalues -2cos(k pi/5) = -1.618.., -0.618.., 0.618.., 1.618..
    code, out, _ = run(capsys, "count", free5, "--lambda", lam)
    assert code == 0
    assert json.loads(out)["count"] == below


def test_count_negative_rational_stays_exact(capsys, one):
    code, out, _ = run(capsys, "count", one, "--lambda", "-1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact" and doc["lambda"] == "-1/2" and doc["count"] == 0


def test_count_margin_guard_reports_null(capsys, one):
    # lambda within 1e-6 of the eigenvalue 1: the oracle abstains
    code, out, _ = run(capsys, "count", one, "--lambda", "1.0000001")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] is None and doc["agree"] is None


def test_extreme_scale_oracle_agrees(capsys, tmp_path):
    # the square of 1e160 overflows binary64; the oracle must still find +-1e160
    path = write(tmp_path, "big.json", {"N": 3, "a": ["-1e160"], "b": ["0", "0"]})
    code, out, _ = run(capsys, "count", path, "--lambda", "1")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 1 and doc["oracle"] == 1 and doc["agree"] is True
    code, out, _ = run(capsys, "spectrum", path)
    doc = json.loads(out)
    assert code == 0 and doc["eigenvalues"] == pytest.approx([-1e160, 1e160], rel=1e-12)
    assert doc["max_offdiag_residual"] <= 1e-14 * 1e160


def test_relative_command(capsys, one, neg):
    code, out, _ = run(
        capsys, "relative", one, neg, "--lambda0", "0", "--lambda1", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["relative_count"] == 1
    assert doc["pairings_agree"] is True
    assert doc["oracle"] == 1 and doc["agree"] is True


def test_relative_negative_thresholds_as_separate_tokens(capsys, one, neg):
    # #{E < -1e-3 in {-1}} - #{E <= -1/2 in {1}} = 1
    code, out, _ = run(
        capsys, "relative", one, neg, "--lambda0", "-1/2", "--lambda1", "-1e-3"
    )
    assert code == 0
    assert json.loads(out)["relative_count"] == 1


def test_flow_command_json(capsys, one, neg):
    code, out, _ = run(capsys, "flow", one, neg, "--steps", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == "linear"
    assert doc["grid"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [row[0] for row in doc["branches"]] == pytest.approx([1, 0.5, 0, -0.5, -1])


def test_flow_command_csv_and_two_phase(capsys, one, neg):
    code, out, _ = run(capsys, "flow", one, neg, "--steps", "2", "--two-phase", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [float(r[1]) for r in rows] == pytest.approx([1.0, -1.0, -1.0])


def test_invalid_matrix_exits_2(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"N": 3, "a": [1], "b": [0, 0]})
    code, _, err = run(capsys, "count", bad, "--lambda", "0")
    assert code == 2
    assert "relosc:" in err


def test_non_finite_inputs_exit_2(capsys, tmp_path, free5):
    nan = tmp_path / "nan.json"
    nan.write_text('{"N": 3, "a": [-1], "b": [NaN, 1]}')
    code, out, err = run(capsys, "count", str(nan), "--lambda", "0")
    assert code == 2 and out == "" and "finite" in err
    for lam in ("1e999", "-1e999"):
        code, out, err = run(capsys, "count", free5, "--lambda", lam)
        assert code == 2 and out == "" and "finite" in err
    code, out, _ = run(capsys, "relative", free5, free5, "--lambda0", "0", "--lambda1", "1e999")
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [("--max-dim", "0"), ("--max-dim", "-3"), ("--trials", "-5")])
def test_verify_out_of_range_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, "verify", "--suite", "thm11", *argv)
    assert code == 2 and out == "" and "relosc:" in err


def test_bad_usage_exits_2(capsys):
    code, _, _ = run(capsys, "count")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_bad_steps_exits_2(capsys, one, neg):
    code, _, _ = run(capsys, "flow", one, neg, "--steps", "0")
    assert code == 2


def test_mode_override(capsys, one, monkeypatch):
    monkeypatch.setenv("RELOSC_MODE", "float")
    code, out, _ = run(capsys, "count", one, "--lambda", "1/2")
    assert code == 0
    assert json.loads(out)["mode"] == "float"
    monkeypatch.setenv("RELOSC_MODE", "bogus")
    assert run(capsys, "count", one, "--lambda", "0")[0] == 2


@pytest.mark.parametrize("trials, total", [(0, 0), (3, 4), (500, 600)])
def test_thm12_adds_one_forced_eigenvalue_trial_per_five(trials, total):
    assert thm12_suite(trials, 1, max_dim=1).trials == total
    assert SUITES["thm12"](trials, 1, max_dim=1).trials == total


def test_verify_zero_trials_runs_no_trial_of_any_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "0")
    assert code == 0
    doc = json.loads(out)
    assert {name: r["trials"] for name, r in doc["suites"].items()} == dict.fromkeys(SUITES, 0)


def test_verify_command_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "thm11", "--trials", "5", "--seed", "3")
    code2, out2, _ = run(capsys, "verify", "--suite", "thm11", "--trials", "5", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["ok"] is True
    assert doc["suites"]["thm11"]["failures"] == []


@pytest.mark.parametrize(
    "doc",
    [{"N": 3, "a": 5, "b": [0, 0]}, {"N": 3, "a": None, "b": [0, 0]}, {"N": 3, "a": [-1], "b": "00"}],
    ids=["a-number", "a-null", "b-string"],
)
def test_matrix_fields_must_be_arrays(capsys, tmp_path, doc):
    code, out, err = run(capsys, "count", write(tmp_path, "m.json", doc), "--lambda", "0")
    assert code == 2 and out == "" and "relosc:" in err


BIG = "1" + "0" * 400  # an integer beyond binary64
BIG_FILES = {
    "string": '{"N": 3, "a": ["-1"], "b": ["%s", "0"]}' % BIG,
    "integer": '{"N": 3, "a": [-1], "b": [%s, 0]}' % BIG,
    "digit-limit": '{"N": 3, "a": [-1], "b": [%s, 0]}' % ("1" * 5000),
    "float": '{"N": 3, "a": [-1], "b": [0.5, 0]}',
}


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("string", ("count", "F", "--lambda", "0")),
        ("string", ("spectrum", "F")),
        ("string", ("relative", "F", "F", "--lambda0", "0", "--lambda1", "0")),
        ("integer", ("count", "F", "--lambda", "0")),
        ("digit-limit", ("count", "F", "--lambda", "0")),
        ("float", ("count", "F", "--lambda", BIG)),
    ],
    ids=["count", "spectrum", "relative", "json-integer", "json-digit-limit", "lambda"],
)
def test_inputs_beyond_binary64_exit_2(capsys, tmp_path, kind, argv):
    path = tmp_path / "big.json"
    path.write_text(BIG_FILES[kind])
    code, out, err = run(capsys, *(str(path) if arg == "F" else arg for arg in argv))
    assert code == 2 and out == "" and "relosc:" in err


def test_matrix_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"N": 2, "a": [], "b": [1]}\xff')
    code, out, err = run(capsys, "count", str(path), "--lambda", "0")
    assert code == 2 and out == "" and "relosc:" in err


@pytest.mark.parametrize("entry", ["1e999999999", "1e-999999999"])
def test_huge_decimal_exponent_exits_2_quickly(capsys, tmp_path, entry):
    path = write(tmp_path, "exp.json", {"N": 3, "a": ["-1"], "b": [entry, "0"]})
    start = time.perf_counter()
    code, out, err = run(capsys, "count", path, "--lambda", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "relosc:" in err


def test_decimal_exponent_bound():
    assert parse_scalar("1e-4300") == Fraction(1, 10**4300)
    for text in ("1e4301", "1E-4301", "1e-5000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(text)
    with pytest.raises(ValueError, match="not finite"):
        parse_scalar("1e999")


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("relosc: ") and err.count("\n") == 1


def test_pairing_disagreement_is_typed_and_exits_2(capsys, monkeypatch, one, neg):
    # W_0 = 0 in the second pairing only: its boundary correction and first
    # indicator change, so the two counts differ (negating all of its signs
    # would leave its report unchanged)
    signs = oscillation._wronskian_signs

    def broken(*args):
        sw_a, sw_b, sb = signs(*args)
        return sw_a, [0] + sw_b[1:], sb

    monkeypatch.setattr(oscillation, "_wronskian_signs", broken)
    h0, h1 = parse_matrix(one)[0], parse_matrix(neg)[0]
    with pytest.raises(PairingDisagreement) as exc:
        oscillation.relative_count(h0, h1, 0, 0)
    assert isinstance(exc.value, ReloscError)
    result = run(capsys, "relative", one, neg, "--lambda0", "0", "--lambda1", "0")
    assert_one_error_line(*result)
    assert "pairings disagree" in result[2]


def test_malformed_json_names_path_and_line(capsys, tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"N": 2,')
    with pytest.raises(ParseError) as exc:
        parse_matrix(str(path))
    assert str(exc.value).startswith(f"{path}:1: ")
    result = run(capsys, "count", str(path), "--lambda", "0")
    assert_one_error_line(*result)
    assert f"{path}:1: " in result[2]


def test_oracle_no_convergence_is_typed_and_exits_2(capsys, monkeypatch, free5):
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as exc:
        oracle.eigenvalues_dense(free_matrix(4))
    assert isinstance(exc.value, ReloscError)
    assert_one_error_line(*run(capsys, "spectrum", free5))

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

from se3sym.cli import main
from test_claims import _assert_matches_golden

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
VERIFY_GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_solutions_default.json"
EXAMPLES_GOLDEN = Path(__file__).resolve().parent / "golden" / "classify_equiv_examples.json"


def _run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    return status, buffer.getvalue()


def _validate(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_table_csv_cell():
    status, out = _run(["table"])
    assert status == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    header = rows[0]
    body = {row[0]: row[1:] for row in rows[1:]}
    col = header.index("X_5") - 1
    assert body["X_4"][col] == "-X_6"
    assert body["X_1"][header.index("X_1") - 1] == "0"


def test_table_json_schema():
    status, out = _run(["table", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "table.json")
    assert payload["cells"][3][4] == "-X_6"


def test_adjoint_symbolic_and_evaluated():
    status, out = _run(["adjoint", "--gen", "1"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "adjoint.json")
    assert payload["symbolic"][4] == ["0", "0", "s", "0", "1", "0"]
    assert payload["symbolic"][5] == ["0", "-s", "0", "0", "0", "1"]

    status, out = _run(["adjoint", "--gen", "6", "--param", str(math.pi / 2)])
    payload = json.loads(out)
    _validate(payload, "adjoint.json")
    assert abs(payload["evaluated"][0][1] - 1.0) < 1e-12
    assert abs(payload["evaluated"][0][0]) < 1e-12


def test_adjoint_gen_out_of_range():
    status, _ = _run(["adjoint", "--gen", "9"])
    assert status == 2


def test_adjoint_rejects_non_finite_param(capsys):
    for value in ("nan", "inf", "1e400"):
        status, out = _run(["adjoint", "--gen", "4", "--param", value])
        assert status == 2
        assert out == ""
        assert "--param" in capsys.readouterr().err


def test_classify_axis_rotation():
    status, out = _run(["classify", "--vector", "0,0,0,0,0,1"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "classify.json")
    assert payload["representative"]["case"] == "A11"
    assert payload["screw"]["pitch"] == 0.0
    assert payload["screw"]["canonical"] == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_classify_accepts_rationals_and_floats():
    status, out = _run(["classify", "--vector", "1/2,0,0,3,1,2"])
    assert status == 0
    payload = json.loads(out)
    assert payload["representative"]["case"] == "A14"
    status, _ = _run(["classify", "--vector", "0.5,0,0,3.0,1,2"])
    assert status == 0


@pytest.mark.parametrize(
    "vector", ["1e160,2e160,0,3e160,1e160,2e160", "1e-170,2e-170,0,3e-170,1e-170,2e-170"]
)
def test_classify_and_equiv_at_extreme_magnitudes(vector):
    status, out = _run(["classify", "--vector", vector])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "classify.json")
    assert payload["representative"]["case"] == "A14"
    for x, y in ((vector, "1,2,0,3,1,2"), ("1,2,0,3,1,2", vector)):
        status, out = _run(["equiv", "--x", x, "--y", y])
        assert status == 0
        payload = json.loads(out)
        _validate(payload, "equiv.json")
        assert payload["equivalent"] is True


@pytest.mark.parametrize(
    "x, y, word",
    [
        # the same element up to a factor of 1e-400, below float64
        ("1e-200,0,0,0,0,0", "1e200,0,0,0,0,0", []),
        # a 45-degree turn of x would overflow at x's own magnitude
        ("1.5e308,1.5e308,0,0,0,0", "1,0,0,0,0,0", [[6, -math.pi / 4]]),
    ],
)
def test_equiv_beyond_float64_scale_reports_a_null_scale(x, y, word):
    status, out = _run(["equiv", "--x", x, "--y", y])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    assert payload == {"equivalent": True, "word": word, "scale": None}


@pytest.mark.parametrize(
    "x, y", [("1,0,0,0,0,0", "4e-320,0,0,0,0,0"), ("4e-320,0,0,0,0,0", "1,0,0,0,0,0")]
)
def test_equiv_with_a_subnormal_side_is_verified(x, y):
    # the pitch and words come from each side at unit scale, so a subnormal
    # maximum has no scale to overflow
    status, out = _run(["equiv", "--x", x, "--y", y])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    assert payload["equivalent"] is True and payload["word"] == []


@pytest.mark.parametrize("vector", ["1e-320,0,0,0,0,1e-320", "5e-309,0,0,0,0,0"])
def test_classify_with_a_subnormal_maximum_is_a_usage_error(vector, capsys):
    # the scale 1 / max |coordinate| overflows float64
    status, out = _run(["classify", "--vector", vector])
    assert status == 2
    assert out == ""
    assert "--vector" in capsys.readouterr().err


def test_classify_and_equiv_examples_match_the_golden():
    """classify stdout byte for byte, and equiv's verdict and word exactly,
    for the README examples, one element per case pattern, a translation, a
    zero-pitch element, an exact rational input, the extreme magnitudes and
    the conjugacy pairs of the one-dim claim; recorded while the scalar and
    the batched seven-case drivers still both existed."""
    golden = json.loads(EXAMPLES_GOLDEN.read_text())
    for example in golden["classify"]:
        status, out = _run(["classify", "--vector", example["vector"]])
        assert status == 0
        _validate(json.loads(out), "classify.json")
        assert out.encode() == example["stdout"].encode(), example["vector"]
    for example in golden["equiv"]:
        status, out = _run(["equiv", "--x", example["x"], "--y", example["y"]])
        assert status == 0
        payload, want = json.loads(out), example["payload"]
        _validate(payload, "equiv.json")
        assert (payload["equivalent"], payload["word"]) == (want["equivalent"], want["word"])
        _assert_matches_golden(payload["scale"], want["scale"], "scale")


def test_classify_malformed_vector():
    status, _ = _run(["classify", "--vector", "1,2,bad,0,0,1"])
    assert status == 2
    status, _ = _run(["classify", "--vector", "1,2,3"])
    assert status == 2
    status, _ = _run(["classify", "--vector", "0,0,0,0,0,0"])
    assert status == 2


def test_non_finite_vector_entries_are_usage_errors(capsys):
    huge_integer = "1" + "0" * 400
    for argv in (
        ["classify", "--vector", "1e400,0,0,1,0,0"],
        ["classify", "--vector", f"{huge_integer},0,0,1,0,0"],
        ["equiv", "--x", "1,0,0,0,0,0", "--y", "0,0,0,0,0,-1e999"],
    ):
        status, out = _run(argv)
        assert status == 2
        assert out == ""
        assert argv[-2] in capsys.readouterr().err


# nonzero exactly, but every coordinate is 0.0 in float64
_ROUNDS_TO_ZERO = "1/1" + "0" * 400 + ",0,0,0,0,0"


@pytest.mark.parametrize(
    "x, y, flag",
    [(_ROUNDS_TO_ZERO, "1,0,0,0,0,0", "--x"), ("1,0,0,0,0,0", _ROUNDS_TO_ZERO, "--y")],
)
def test_equiv_side_that_rounds_to_zero_is_a_usage_error(x, y, flag, capsys):
    status, out = _run(["equiv", "--x", x, "--y", y])
    assert status == 2
    assert out == ""
    assert f"{flag} is nonzero" in capsys.readouterr().err


def test_equiv_quarter_turn():
    status, out = _run(["equiv", "--x", "1,0,0,2,0,0", "--y", "0,1,0,0,2,0"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    assert payload["equivalent"] is True
    assert len(payload["word"]) == 1
    assert payload["word"][0][0] == 6
    assert abs(payload["word"][0][1] - math.pi / 2) < 1e-9


def test_equiv_inequivalent_pair():
    status, out = _run(["equiv", "--x", "0,0,0,0,0,1", "--y", "1,0,0,0,0,0"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    assert payload["equivalent"] is False and payload["word"] is None


def test_prolong_named_field():
    status, out = _run(["prolong", "--field", "X5"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "prolong.json")
    assert payload["all_zero"] is True
    assert payload["invariance_residual"] == "0"


def test_prolong_dilation_shows_counterexample():
    status, out = _run(["prolong", "--field", "dilation"])
    assert status == 0
    payload = json.loads(out)
    assert payload["all_zero"] is False
    assert payload["invariance_residual"] == "-2*f"


def test_prolong_custom_field():
    status, out = _run(["prolong", "--field", "z;0;-x;0"])
    assert status == 0
    payload = json.loads(out)
    assert payload["all_zero"] is True


def test_prolong_malformed_field():
    for spec in ("z;0", "1/0;0;0;0", "2 3;0;0;0", "x y;0;0;0", "x +;0;0;0"):
        status, _ = _run(["prolong", "--field", spec])
        assert status == 2


def test_verify_solutions_family():
    status, out = _run(["verify-solutions", "--family", "exp_x", "--samples", "20"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "verify_solutions.json")
    worst = max(payload["families"]["exp_x"]["max_residual_by_generator"].values())
    assert worst <= 1e-6
    assert 3.5 <= payload["convergence_ratio"] <= 4.5
    assert payload["flow_vs_closed_form_max"] <= 1e-8


def test_verify_solutions_unknown_family():
    status, _ = _run(["verify-solutions", "--family", "nope"])
    assert status == 2


def test_verify_solutions_default_matches_the_golden():
    """Default verify-solutions stdout, recorded before the residuals were
    evaluated on point arrays."""
    status, out = _run(["verify-solutions"])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "verify_solutions.json")
    _assert_matches_golden(payload, json.loads(VERIFY_GOLDEN.read_text()))


@pytest.mark.parametrize("command", ["check-claims", "verify-solutions"])
def test_negative_seed_is_a_usage_error(command, capsys):
    status, out = _run([command, "--seed", "-1"])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: --seed must be a nonnegative integer\n"


def test_check_claims_exit_code_and_schema():
    status, out = _run(["check-claims", "--samples", "2000"])
    assert status == 1  # discrepancies are present by design
    payload = json.loads(out)
    _validate(payload, "claims_report.json")
    statuses = {c["id"]: c["status"] for c in payload["claims"]}
    assert statuses["adjoint-matrix-x4"] == "discrepancy"
    assert statuses["two-dim-subalgebras"] == "discrepancy"


def test_check_claims_byte_identical_runs():
    status_a, out_a = _run(["check-claims", "--samples", "2000", "--seed", "42"])
    status_b, out_b = _run(["check-claims", "--samples", "2000", "--seed", "42"])
    assert status_a == status_b == 1
    assert out_a.encode() == out_b.encode()


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        _run(["table", "--nope"])
    assert info.value.code == 2
    # only check-claims and verify-solutions draw random numbers
    with pytest.raises(SystemExit) as info:
        _run(["table", "--seed", "1"])
    assert info.value.code == 2

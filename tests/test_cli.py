import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se3sym.adjoint import AdjointWord, apply_word
from se3sym.algebra import AlgebraElement
from se3sym.cli import UsageError, _parse_vector, _representative_payload, main
from se3sym.optimal import PATTERN_TOL, pitch_of, proportionality_scale
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


def _assert_contract(argv, schema_name):
    """The run exits 0 with stdout valid against the schema, or exits 2 with
    empty stdout; an argparse error counts as exit 2."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    out = buffer.getvalue()
    if status != 0:
        assert status == 2 and out == "", argv
        return
    if argv[0] == "table" and "--format=json" not in argv:
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0][0] == "" and all(len(row) == 7 for row in rows), argv
        payload = {"basis": rows[0][1:], "cells": [row[1:] for row in rows[1:]]}
    else:
        payload = json.loads(out)
    _validate(payload, schema_name)


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
    the conjugacy pairs of the one-dim claim, recorded while the scalar and
    the batched seven-case drivers still both existed; then one input per
    fallback kind, one only the raw case pattern accepts, signed zeros in
    the output, and exact and mixed-tower equiv pairs, recorded before the
    pitch, unit scale and pattern residual each got one definition."""
    golden = json.loads(EXAMPLES_GOLDEN.read_text())
    for example in golden["classify"]:
        status, out = _run(["classify", f"--vector={example['vector']}"])
        assert status == 0
        _validate(json.loads(out), "classify.json")
        assert out.encode() == example["stdout"].encode(), example["vector"]
    for example in golden["equiv"]:
        status, out = _run(["equiv", f"--x={example['x']}", f"--y={example['y']}"])
        assert status == 0
        payload, want = json.loads(out), example["payload"]
        _validate(payload, "equiv.json")
        assert (payload["equivalent"], payload["word"]) == (want["equivalent"], want["word"])
        _assert_matches_golden(payload["scale"], want["scale"], "scale")


def _orbit_of_representative(representative):
    """(kind, pitch) that the seven-case representative names, from ROADMAP
    item 2's table: A11 has pitch 0; A15 has pitch 0 and every other case
    pitch 1/b, and b = 0 leaves a translation (A11 has no b)."""
    tag, b = representative["case"], representative["b"]
    if tag == "A11":
        return "screw", 0.0
    if b == 0:
        return "translation", None
    return "screw", 0.0 if tag == "A15" else 1 / b


def _assert_one_orbit(payload):
    """classify's two normal forms name the same orbit: the same kind and,
    for screws, pitches that agree as equivalence_search compares them."""
    kind, p = _orbit_of_representative(payload["representative"])
    screw = payload["screw"]
    assert kind == screw["kind"], payload["input"]
    if kind == "screw":
        q = screw["pitch"]
        assert abs(p - q) <= PATTERN_TOL * max(1.0, abs(p), abs(q)), payload["input"]


def _classify(vector):
    status, out = _run(["classify", f"--vector={vector}"])
    assert status == 0
    return json.loads(out)


def test_classify_names_one_orbit_in_both_normal_forms():
    for example in json.loads(EXAMPLES_GOLDEN.read_text())["classify"]:
        _assert_one_orbit(_classify(example["vector"]))
    # the payload builder of classify, without parsing flags 2,000 times
    for row in np.random.default_rng(0).standard_normal((2000, 6)):
        _assert_one_orbit(_representative_payload(AlgebraElement.numeric(row)))


@pytest.mark.parametrize(
    "vector",
    [
        # exact pitch 1e11; the representative is A15 with b = 0
        "1,2,3,1/100000000000,0,0",
        # pitch 0; the representative is A14 with b = -0.0
        "0,0,1e-12,0,1,0",
        # pitch 1e-12; the representative is A17 with b = -2.5e-13
        "0,1e-12,-2e-12,0,1,-2",
    ],
)
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a recipe's tiny coordinate passes the scale-relative "
    "pattern test, so the seven-case representative names another orbit than the screw form",
)
def test_classify_names_one_orbit_for_a_tiny_coordinate(vector):
    _assert_one_orbit(_classify(vector))


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


@pytest.mark.parametrize(
    "x, y, multiple",
    [
        # exact pitches 1e-10 and 0, which agree within the float tolerance
        ("0,0,1/10000000000,0,0,1", "0,0,0,0,0,1", "0,0,-3/10000000000,0,0,-3"),
        ("0,0,0,0,0,1", "0,0,1/10000000000,0,0,1", "0,0,0,0,0,2"),
        # pitches (1 + 1e-12) / 9 and 1 / 9, at different scales
        ("0,0,1000000000001/3000000000000,0,0,3", "0,0,2/9,0,0,2", "0,0,1000000000001/1500000000000,0,0,6"),
    ],
)
def test_equiv_decides_exact_input_by_its_exact_pitch(x, y, multiple):
    status, out = _run(["equiv", "--x", x, "--y", y])
    assert status == 0
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    assert payload == {"equivalent": False, "word": None, "scale": None}
    # a multiple of x has x's exact pitch and stays equivalent, with a witness
    status, out = _run(["equiv", "--x", x, "--y", multiple])
    assert status == 0
    assert json.loads(out)["equivalent"] is True


# an exact pure rotation (v.w = 0, pitch 0) about an axis ~9.3e6 from the
# origin; the same axis ten times closer classifies and reads equivalent
_FAR_AXIS = "-20000000,-20000000,20000000,1,2,3"
_NEAR_AXIS = "-2000000,-2000000,2000000,1,2,3"


def test_classify_and_equiv_of_a_rotation_off_the_origin():
    status, out = _run(["classify", f"--vector={_NEAR_AXIS}"])
    assert status == 0
    _validate(json.loads(out), "classify.json")
    status, out = _run(["equiv", f"--x={_NEAR_AXIS}", "--y=0,0,0,0,0,1"])
    assert status == 0 and json.loads(out)["equivalent"] is True


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: far from the origin the screw canonical form misses "
    "X_6 + pX_3 by more than PATTERN_TOL, and classify raises AssertionError",
)
def test_classify_of_a_rotation_far_from_the_origin():
    status, out = _run(["classify", f"--vector={_FAR_AXIS}"])
    assert status == 0
    _validate(json.loads(out), "classify.json")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: both sides are exact with pitch 0, so conjugate, "
    "but the float witness fails and equiv reads false",
)
def test_equiv_of_a_rotation_far_from_the_origin():
    status, out = _run(["equiv", f"--x={_FAR_AXIS}", "--y=0,0,0,0,0,1"])
    assert status == 0
    assert json.loads(out)["equivalent"] is True


# equiv sides: exact rationals, integers of up to 30 digits, signed floats
# from 1e-320 to 1e308 with subnormals and zeros, screws whose pitch lies in
# and around the band of ROADMAP item 1, and axes far from the origin; a
# side is exact when every entry is, so drawing entries of both kinds gives
# mixed towers
_EXACT_ENTRIES = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(-(10**30) + 1, 10**30 - 1).map(str),
    st.builds("{}/{}".format, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)
_FLOAT_ENTRIES = st.one_of(
    st.builds(
        "{}{}e{}".format, st.sampled_from(["", "-"]), st.floats(1, 9.99).map("{:.6f}".format), st.integers(-320, 307)
    ),
    st.sampled_from(["0.0", "-0.0", "5e-324", "4e-320", "2.2250738585072014e-308", "1.7976931348623157e308"]),
    st.floats(-10, 10).map(repr),
)


def _screw(p, d, axis, offset, exact):
    """(v, w) with w = axis and v = d u + p w, u the part of offset
    perpendicular to w, as exact or float entries."""
    w = [Fraction(c) for c in axis]
    a = [Fraction(c) for c in offset]
    dot = sum(x * y for x, y in zip(a, w)) / sum(x * x for x in w)
    v = [d * (x - dot * y) + p * y for x, y in zip(a, w)]
    return ",".join(str(c) if exact else repr(float(c)) for c in v + w)


_AXES = st.lists(st.integers(-5, 5), min_size=3, max_size=3).filter(any)
_STRUCTURED = st.builds(
    _screw,
    st.builds(
        lambda sign, k, e: sign * Fraction(k, 10**e),
        st.sampled_from([1, -1]),
        st.integers(1, 99),
        st.integers(4, 14),
    ),
    st.sampled_from([1, 10**2, 10**4, 10**6, 10**7, 10**8, 10**9]),
    _AXES,
    _AXES,
    st.booleans(),
)
_SIDES = st.one_of(
    st.lists(_EXACT_ENTRIES, min_size=6, max_size=6).map(",".join),
    st.lists(st.one_of(_EXACT_ENTRIES, _FLOAT_ENTRIES), min_size=6, max_size=6).map(",".join),
    st.lists(_FLOAT_ENTRIES, min_size=6, max_size=6).map(",".join),
    _STRUCTURED,
)


@st.composite
def _equiv_pairs(draw):
    """x, and a y that is independent, a multiple of x, or the canonical
    screw or translation of x's exact pitch."""
    x = draw(_SIDES)
    partner = draw(st.sampled_from(["independent", "multiple", "canonical"]))
    if partner == "independent":
        return x, draw(_SIDES)
    try:
        coeffs = _parse_vector(x, "--x").coeffs
    except UsageError:
        return x, draw(_SIDES)
    if partner == "multiple":
        k = draw(st.sampled_from([Fraction(-3), Fraction(1, 7), Fraction(10**12)]))
        exact = all(isinstance(c, Fraction) for c in coeffs)
        return x, ",".join(str(c * k) if exact else repr(float(c * k)) for c in coeffs)
    p = pitch_of(AlgebraElement.exact(coeffs)) if any(coeffs) else None
    if p is None or abs(p) > 1e300:
        return x, "1,0,0,0,0,0"
    return x, f"0,0,{draw(st.sampled_from([str(p), repr(float(p))]))},0,0,1"


def _unit_element(element):
    coords = element.as_array()
    return AlgebraElement.numeric(coords / np.abs(coords).max())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_equiv_pairs())
@example(("0,0,1/10000000000,0,0,1", "0,0,0,0,0,1"))
@example(("1,0,0,0,0,0", "4e-320,0,0,0,0,0"))
@example((_ROUNDS_TO_ZERO, "1,0,0,0,0,0"))
@example((_FAR_AXIS, "0,0,0,0,0,1"))
def test_equiv_gives_a_verified_verdict_or_a_usage_error(pair):
    x, y = pair
    status, out = _run(["equiv", f"--x={x}", f"--y={y}"])
    if status != 0:
        assert status == 2 and out == "", pair
        return
    payload = json.loads(out)
    _validate(payload, "equiv.json")
    ex, ey = _parse_vector(x, "--x"), _parse_vector(y, "--y")
    if payload["equivalent"]:
        word = AdjointWord.of(*payload["word"])
        assert proportionality_scale(apply_word(word, _unit_element(ex)), _unit_element(ey)) is not None, pair
    if ex.tower == ey.tower == "exact" and pitch_of(ex) != pitch_of(ey):
        assert payload["equivalent"] is False, pair


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
    for spec in ("z;0", "1/0;0;0;0", "2 3;0;0;0", "x y;0;0;0", "x +;0;0;0", "x**2;0;0;0"):
        status, out = _run(["prolong", "--field", spec])
        assert status == 2 and out == "", spec


# --field specs: 4 ';'-separated parts, sometimes 3 or 5; a part is a
# signed sum of products of x, y, z, u, integers of up to 30 digits, powers
# with large exponents and quotients, or such a sum with a fault: a
# near-name, a zero denominator, '**', juxtaposition, a stray sign, a
# blank or a comma
_INTEGERS = st.integers(min_value=0, max_value=10**30 - 1).map(str)


def _sums(names, denominators):
    factors = st.one_of(
        names,
        _INTEGERS,
        st.builds("{}^{}".format, names, st.integers(min_value=0, max_value=10**12)),
        st.builds("{}/{}".format, _INTEGERS, denominators),
    )
    products = st.lists(factors, min_size=1, max_size=3).map("*".join)
    signed = st.builds("{}{}".format, st.sampled_from([" + ", " - ", "-"]), products)
    return st.builds(
        "{}{}{}".format, st.sampled_from(["", "-", " - "]), products, st.lists(signed, max_size=2).map("".join)
    )


_CLEAN = _sums(st.sampled_from(["x", "y", "z", "u"]), st.integers(min_value=1, max_value=99))
_FAULTY = st.one_of(
    _sums(st.sampled_from(["u_x", "u_yx", "u_", "xy", "f'", "X1", "w"]), st.integers(0, 9)),
    _sums(st.sampled_from(["x", "u"]), st.just(0)),
    st.builds("{}{}{}".format, _CLEAN, st.sampled_from(["**", " ", "", "^", "+", ",", "  - "]), _CLEAN),
)
_FIELD_SPECS = st.builds(
    lambda parts, k: ";".join(parts[: 3 if k > 89 else 5 if k > 79 else 4]),
    st.lists(st.one_of(_CLEAN, _CLEAN, _CLEAN, _FAULTY), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=99),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_FIELD_SPECS)
def test_prolong_field_gives_a_valid_payload_or_a_usage_error(spec):
    status, out = _run(["prolong", f"--field={spec}"])
    if status == 0:
        _validate(json.loads(out), "prolong.json")
    else:
        assert status == 2 and out == "", spec


# junk for any flag value: empty, blanks, words, hex, other separators
_JUNK = st.sampled_from(["", " ", "x", "six", "1,2", "0x10", "1_0e", "--", "1/2", "None"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(-9, 9).map(str), st.integers(-(10**30) + 1, 10**30 - 1).map(str), _JUNK),
    st.one_of(
        st.none(),
        st.sampled_from(["1e308", "-1e308", "5e-324", "-5e-324", "-0.0", "nan", "inf", "-inf", "1e400"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        _JUNK,
    ),
)
def test_adjoint_gives_a_valid_payload_or_a_usage_error(gen, param):
    argv = ["adjoint", f"--gen={gen}"] + ([] if param is None else [f"--param={param}"])
    _assert_contract(argv, "adjoint.json")


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.one_of(st.none(), st.sampled_from(["csv", "json", "JSON", "csv "]), _JUNK))
def test_table_gives_a_valid_payload_or_a_usage_error(fmt):
    _assert_contract(["table"] + ([] if fmt is None else [f"--format={fmt}"]), "table.json")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.one_of(st.integers(-2, 5).map(str), _JUNK),
    st.one_of(st.integers(-1, 2**128).map(str), _JUNK),
    st.one_of(
        st.none(),
        st.sampled_from(["exp_x", "r2", "x2_minus_y2", "xy", "EXP_X", "exp_x ", "exp", "r2,xy", "x2-y2"]),
        _JUNK,
    ),
)
def test_verify_solutions_gives_a_valid_payload_or_a_usage_error(samples, seed, family):
    argv = ["verify-solutions", f"--samples={samples}", f"--seed={seed}"]
    _assert_contract(argv + ([] if family is None else [f"--family={family}"]), "verify_solutions.json")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--format=--"],
        ["adjoint", "--gen=--"],
        ["classify", "--vector=--"],
        ["equiv", "--x=--", "--y=1,0,0,0,0,0"],
        ["check-claims", "--seed=--"],
        ["prolong", "--field=--"],
        ["verify-solutions", "--samples=--"],
    ],
)
def test_a_flag_given_only_the_separator_is_a_usage_error(argv, capsys):
    status, out = _run(argv)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == f"error: {argv[1].split('=')[0]} needs a value\n"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        _run(["table", "--nope"])
    assert info.value.code == 2
    # only check-claims and verify-solutions draw random numbers
    with pytest.raises(SystemExit) as info:
        _run(["table", "--seed", "1"])
    assert info.value.code == 2

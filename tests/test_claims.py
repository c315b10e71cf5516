import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from se3sym import claims
from se3sym.claims import (
    CONFIRMED,
    DISCREPANCY,
    PUBLISHED_ADJOINT_TOKENS,
    PUBLISHED_COMMUTATORS,
    _claim_one_dim,
    claims_report,
    gaussian_sweep,
    published_adjoint_matrix,
)
from se3sym.adjoint import AdjointWord, TrigPoly, closed_form
from se3sym.optimal import HyperplaneScan

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden" / "check_claims_seed42.json"


@pytest.fixture(scope="module")
def report():
    return claims_report(samples=3000, seed=42)


def test_every_published_item_graded_once(report):
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))
    expected = {
        "commutator-table",
        "adjoint-matrix-x1", "adjoint-matrix-x2", "adjoint-matrix-x3",
        "adjoint-matrix-x4", "adjoint-matrix-x5", "adjoint-matrix-x6",
        "symmetry-generator-family",
        "rigid-motion-symmetries",
        "laplace-special-symmetries",
        "one-dim-representatives",
        "two-dim-subalgebras",
        "three-dim-subalgebra",
        "three-dim-commutator-table",
        "four-dim-subalgebra",
        "four-dim-commutator-table",
        "no-five-dim-subalgebra",
        "solution-transformations",
    }
    assert set(ids) == expected


def test_statuses(report):
    statuses = {c.claim_id: c.status for c in report.claims}
    assert statuses["commutator-table"] == CONFIRMED
    for i in (1, 2, 3, 5, 6):
        assert statuses[f"adjoint-matrix-x{i}"] == CONFIRMED
    assert statuses["adjoint-matrix-x4"] == DISCREPANCY
    assert statuses["two-dim-subalgebras"] == DISCREPANCY
    assert statuses["three-dim-commutator-table"] == DISCREPANCY
    assert statuses["four-dim-commutator-table"] == CONFIRMED
    assert statuses["laplace-special-symmetries"] == DISCREPANCY
    assert statuses["one-dim-representatives"] == DISCREPANCY
    assert statuses["rigid-motion-symmetries"] == CONFIRMED
    assert statuses["no-five-dim-subalgebra"] == CONFIRMED
    assert statuses["solution-transformations"] == CONFIRMED
    assert report.has_discrepancy()


def test_adjoint_x4_mismatch_is_exactly_the_third_row_sign(report):
    claim = next(c for c in report.claims if c.claim_id == "adjoint-matrix-x4")
    mismatches = claim.evidence["mismatched_entries"]
    assert len(mismatches) == 1
    assert mismatches[0]["row"] == 3 and mismatches[0]["col"] == 2
    assert mismatches[0]["published"] == "S"
    assert mismatches[0]["recomputed"] == "-S"


def test_published_adjoint_fixture_matches_for_other_generators():
    for i in (1, 2, 3, 5, 6):
        assert closed_form(i).entries == published_adjoint_matrix(i)


def test_published_adjoint_matrices_read_the_printed_tokens():
    """Each printed token read by TrigPoly.parse is the polynomial it names,
    built from the ring operations, coefficient types included; absent
    entries are the zero polynomial."""
    s, c, sn = (TrigPoly.variable(n) for n in ("s", "C", "S"))
    named = {"1": TrigPoly.constant(1), "s": s, "-s": -s, "C": c, "S": sn, "-S": -sn}
    for i, tokens in PUBLISHED_ADJOINT_TOKENS.items():
        want = [
            [named[tokens[(r, k)]] if (r, k) in tokens else TrigPoly() for k in range(1, 7)]
            for r in range(1, 7)
        ]
        got = published_adjoint_matrix(i)
        assert [[list(e.terms.items()) for e in row] for row in got] == [
            [list(e.terms.items()) for e in row] for row in want
        ]
        assert all(type(v) is int for row in got for e in row for v in e.terms.values())


def test_two_dim_witness_recorded(report):
    claim = next(c for c in report.claims if c.claim_id == "two-dim-subalgebras")
    failing = [
        row
        for row in claim.evidence["verdicts"]
        if row["case"] == "A2_6" and not row["closed"]
    ]
    assert failing
    for row in failing:
        a = row["a"]
        assert row["witness_bracket"][1] == str(-int(a))
    variant = [
        row for row in claim.evidence["verdicts"] if row["case"] == "A2_6_proof_variant"
    ]
    assert variant and all(row["closed"] and row["abelian"] for row in variant)


def test_laplace_claim_records_all_fields(report):
    claim = next(c for c in report.claims if c.claim_id == "laplace-special-symmetries")
    fields = claim.evidence["fields"]
    assert fields["printed_conformal_z"]["phi_space_for_xi"].startswith("inconsistent")
    assert fields["conformal_z"]["u_coefficient_gauge_fixed"] == "-z"
    assert fields["conformal_x"]["matches"] and fields["conformal_y"]["matches"]
    assert fields["zero_field"]["homogeneous_dimension"] == 10
    assert fields["u_shift"]["printed_component_admissible"]
    assert fields["diagonal_translation"]["printed_component_admissible"]


def test_laplace_rule_asks_a_printed_conformal_extra_only_for_some_u_part(monkeypatch):
    """A printed_conformal* extra is consistent when its xi admits some
    u-part, even if the printed field is not admissible as printed."""
    extras = (
        ("u_shift", "0", "0", "0", "1"),
        ("printed_conformal_z", "2*x*z", "2*y*z", "z^2 - x^2 - y^2", "0"),
    )
    monkeypatch.setattr(claims, "PUBLISHED_LAPLACE_EXTRAS", extras)
    claim = claims._claim_laplace_extras()
    assert claim.status == CONFIRMED
    assert claim.evidence["fields"]["printed_conformal_z"]["printed_component_admissible"] is False


def test_laplace_rule_asks_any_other_extra_for_admissibility_as_printed(monkeypatch):
    monkeypatch.setattr(claims, "PUBLISHED_LAPLACE_EXTRAS", (("u_shift", "0", "0", "0", "u^2"),))
    assert claims._claim_laplace_extras().status == DISCREPANCY


def test_one_dim_claim_has_conjugacy_words(report):
    claim = next(c for c in report.claims if c.claim_id == "one-dim-representatives")
    assert claim.evidence["distinct_cases_conjugate_by_rotations"]
    sweep = claim.evidence["random_sweep"]
    assert sweep["max_disallowed_coordinate"] < 1e-9
    recipe = claim.evidence["published_recipe_sample"]
    assert recipe["max_disallowed_after_recipe"] > 1.0
    assert recipe["verified_fallback"]["case"] == "A14"


def test_an_identity_witness_is_reported_as_a_word(monkeypatch):
    """The empty word witnesses a conjugacy as any other word does, so the
    claim prints it and counts it."""
    monkeypatch.setattr(claims, "equivalence_search", lambda left, right: AdjointWord(()))
    evidence = _claim_one_dim(42).evidence
    assert [c["word"] for c in evidence["conjugacy_words"]] == [[], []]
    assert evidence["distinct_cases_conjugate_by_rotations"] is True


@pytest.mark.parametrize("seed", [0, 42, 7])
def test_one_dim_sweep_is_the_scripts_sweep(seed):
    """The claim's random sweep is gaussian_sweep of its own seeded stream,
    so classify_sweep.py --seed S --count 2000 classifies its elements."""
    _, sweep = gaussian_sweep(np.random.default_rng(seed), 2000)
    assert _claim_one_dim(seed).evidence["random_sweep"] == {
        "elements": 2000,
        "max_disallowed_coordinate": float(sweep.disallowed.max()),
        "fallback_count": int(sweep.fallback.sum()),
    }


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a sweep element in the open pitch band meets no fallback pattern",
)
def test_report_survives_a_pitch_band_element_in_the_sweep():
    claims_report(samples=1000, seed=1363)


def test_five_dim_claim_label(report):
    claim = next(c for c in report.claims if c.claim_id == "no-five-dim-subalgebra")
    assert "consistent" in claim.evidence["label"]
    assert claim.evidence["min_closure_residual"] > 1e-6
    assert not claim.evidence["closed_hyperplane_found"]
    assert claim.evidence["targeted_hyperplanes"]["dual_of_x5"]["closed"] is False


def test_a_scan_minimum_below_the_proved_floor_is_a_discrepancy(monkeypatch):
    # 0.3 lies below the certificate's 2/5 by far more than rounding, with no
    # covector found: the scan contradicts the proof all the same
    monkeypatch.setattr(claims, "hyperplane_scan", lambda samples, seed: HyperplaneScan(1, 1, 0.3, None))
    claim = claims._claim_five_dim(100, 42)
    assert claim.status == DISCREPANCY
    assert claim.evidence["min_closure_residual"] == 0.3
    assert not claim.evidence["closed_hyperplane_found"]


def test_report_json_refuses_nan():
    evidence = {"max_residual": float("nan")}
    report = claims.ClaimsReport((claims.Claim("commutator-table", CONFIRMED, evidence),), 42, 1)
    with pytest.raises(ValueError):
        report.to_json()


def test_report_deterministic_and_schema_valid(report):
    again = claims_report(samples=3000, seed=42)
    assert report.to_json() == again.to_json()
    schema = json.loads((SCHEMA_DIR / "claims_report.json").read_text())
    jsonschema.validate(json.loads(report.to_json()), schema)


def test_different_seed_still_confirms(tmp_path):
    other = claims_report(samples=500, seed=7)
    statuses = {c.claim_id: c.status for c in other.claims}
    assert statuses["commutator-table"] == CONFIRMED
    assert statuses["adjoint-matrix-x4"] == DISCREPANCY


def test_published_commutator_fixture_is_antisymmetric():
    """Each printed entry is the negation of its mirror: a leading "-"
    toggled, "0" kept."""
    negate = lambda e: e if e == "0" else e[1:] if e.startswith("-") else "-" + e
    for i in range(6):
        for j in range(6):
            assert PUBLISHED_COMMUTATORS[i][j] == negate(PUBLISHED_COMMUTATORS[j][i])


def _assert_matches_golden(got, want, path="report"):
    """Keys, strings, integers and booleans exactly; floats within 1e-9
    relative or 1e-12 absolute."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= max(1e-9 * abs(want), 1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_default_report_matches_the_golden():
    """The default check-claims report, recorded when the generator family
    became exact and each claim took its own seeded stream; see CHANGES.md
    for the fields that moved."""
    got = json.loads(claims_report(samples=100000, seed=42).to_json())
    _assert_matches_golden(got, json.loads(GOLDEN.read_text()))


def test_million_sample_report_differs_from_the_golden_only_in_its_counts():
    """At 10^6 draws the diagonal bound skips every slice of draws after the
    grid, so the report equals the default one but for the two counts."""
    got = json.loads(claims_report(samples=1_000_000, seed=42).to_json())
    want = json.loads(GOLDEN.read_text())
    for report, samples in ((got, 1_000_000), (want, 100_000)):
        assert report.pop("samples") == samples
        evidence = [c["evidence"] for c in report["claims"] if "random_samples" in c["evidence"]]
        assert [e.pop("random_samples") for e in evidence] == [samples]
    _assert_matches_golden(got, want)

"""Golden strings printed by the two polynomial cores.

Pins every exact string that reaches users through the adjoint closed forms
and the jet engine: the symbolic adjoint matrices, the prolong output of the
named and printed fields, the invariance residual of one combination of
the generator family, and the string evidence of the claims built from
them.  Float fields are left out so the file does not
depend on the platform.

Regenerate (only when a printed form is meant to change) with
    PYTHONPATH=src python tests/test_printed_forms.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from se3sym import claims
from se3sym.cli import main
from se3sym.jets import JetPolynomial, PointVectorField, invariance_residual

GOLDEN = Path(__file__).resolve().parent / "golden" / "printed_forms.json"


def _cli_json(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return json.loads(buffer.getvalue())


def _without_floats(value):
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [_without_floats(v) for v in value if not isinstance(v, float)]
    return value


def collect_printed_forms():
    adjoint = {
        str(i): _cli_json(["adjoint", "--gen", str(i)])["symbolic"] for i in range(1, 7)
    }
    fields = [f"X{i}" for i in range(1, 7)] + ["dilation"]
    fields += [
        ";".join(components)
        for label, *components in claims.PUBLISHED_LAPLACE_EXTRAS
        if label.startswith("printed_conformal")
    ]
    prolong = {spec: _cli_json(["prolong", "--field", spec]) for spec in fields}
    # a1 + 2 a2 + 3 a3 + a5 + 2 a7 + a11 of the eleven-member family
    weights = (1, 2, 3, 0, 1, 0, 2, 0, 0, 0, 1)
    parts = [JetPolynomial.zero()] * 4
    for weight, (_, *components) in zip(weights, claims.PUBLISHED_GENERATOR_FAMILY):
        member = PointVectorField.parse(";".join(components))
        parts = [p + weight * comp for p, (_, comp) in zip(parts, member.components())]
    combination = PointVectorField(*parts)
    evidence = {
        claim.claim_id: _without_floats(claim.evidence)
        for claim in (
            claims._claim_laplace_extras(),
            claims._claim_rigid_symmetries(),
            *claims._claim_adjoint_matrices(),
        )
    }
    return {
        "adjoint_symbolic": adjoint,
        "prolong": prolong,
        "ansatz_invariance_residual": str(invariance_residual(combination)),
        "claim_evidence": evidence,
    }


def test_printed_forms_match_golden():
    assert collect_printed_forms() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect_printed_forms(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")

"""Recompute every published table, matrix and theorem and report verdicts.

Each claim is recomputed from first principles by the other modules and
compared against a frozen copy of the published data; the report records
confirmations and discrepancies with numeric evidence and replayable words.
Statuses are deterministic for a fixed seed and sample count.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .algebra import (
    BASIS,
    DIM,
    AlgebraElement,
    SubalgebraBasis,
    closure_check,
    commutator_table,
    format_element,
)
from .adjoint import (
    TrigPoly,
    adjoint_series,
    apply_word,
    closed_form,
)
from .jets import (
    JetPolynomial,
    PointVectorField,
    defining_equations,
    dilation_field,
    element_field,
    invariance_residual,
    rigid_basis_field,
    solve_phi_for_xi,
    substitute_zero_source,
    vf_commutator,
)
from .optimal import (
    CASE_ALLOWED,
    OneDimBatch,
    classify_1d_many,
    classify_1d_paper,
    equivalence_search,
    hyperplane_certificate,
    hyperplane_scan,
    verify_2d_list,
    verify_3d_4d,
    _published_recipe,
)
from .solutions import RESIDUAL_BOUND, check_solutions

CONFIRMED = "confirmed"
DISCREPANCY = "discrepancy"


class Claim(NamedTuple):
    claim_id: str
    status: str
    evidence: Dict


class ClaimsReport(NamedTuple):
    claims: Tuple[Claim, ...]
    seed: int
    samples: int

    def has_discrepancy(self) -> bool:
        return any(c.status == DISCREPANCY for c in self.claims)

    def to_json(self) -> str:
        claims = [{"id": c.claim_id, "status": c.status, "evidence": c.evidence} for c in self.claims]
        payload = {"seed": self.seed, "samples": self.samples, "claims": claims}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# frozen copies of the published data
# ---------------------------------------------------------------------------

# commutator table: entry [i][j] holds the coordinates of [X_{i+1}, X_{j+1}]
_E = lambda k, sign=1: tuple(sign if t == k - 1 else 0 for t in range(6))
_Z6 = (0,) * 6
PUBLISHED_COMMUTATORS: Tuple[Tuple[Tuple[int, ...], ...], ...] = (
    (_Z6, _Z6, _Z6, _Z6, _E(3, -1), _E(2)),
    (_Z6, _Z6, _Z6, _E(3), _Z6, _E(1, -1)),
    (_Z6, _Z6, _Z6, _E(2, -1), _E(1), _Z6),
    (_Z6, _E(3, -1), _E(2), _Z6, _E(6, -1), _E(5)),
    (_E(3), _Z6, _E(1, -1), _E(6), _Z6, _E(4, -1)),
    (_E(2, -1), _E(1), _Z6, _E(5, -1), _E(4), _Z6),
)

# one-parameter adjoint matrices, rows = images of basis elements; entries
# in the printed form of TrigPoly (absent entries are 0)
PUBLISHED_ADJOINT_TOKENS: Dict[int, Dict[Tuple[int, int], str]] = {
    1: {(1, 1): "1", (2, 2): "1", (3, 3): "1", (4, 4): "1",
        (5, 3): "s", (5, 5): "1", (6, 2): "-s", (6, 6): "1"},
    2: {(1, 1): "1", (2, 2): "1", (3, 3): "1", (4, 3): "-s", (4, 4): "1",
        (5, 5): "1", (6, 1): "s", (6, 6): "1"},
    3: {(1, 1): "1", (2, 2): "1", (3, 3): "1", (4, 2): "s", (4, 4): "1",
        (5, 1): "-s", (5, 5): "1", (6, 6): "1"},
    4: {(1, 1): "1", (2, 2): "C", (2, 3): "S", (3, 2): "S", (3, 3): "C",
        (4, 4): "1", (5, 5): "C", (5, 6): "S", (6, 5): "-S", (6, 6): "C"},
    5: {(1, 1): "C", (1, 3): "-S", (2, 2): "1", (3, 1): "S", (3, 3): "C",
        (4, 4): "C", (4, 6): "-S", (5, 5): "1", (6, 4): "S", (6, 6): "C"},
    6: {(1, 1): "C", (1, 2): "S", (2, 1): "-S", (2, 2): "C", (3, 3): "1",
        (4, 4): "C", (4, 5): "S", (5, 4): "-S", (5, 5): "C", (6, 6): "1"},
}

# three-dimensional subalgebra table as printed (X = X_1 + a X_4, Y = X_2,
# Z = X_3); note the scalar entries
PUBLISHED_A3_TABLE = (("0", "-a", "0"), ("a", "0", "0"), ("0", "0", "0"))

PUBLISHED_A4_TABLE = (
    ("0", "0", "0", "0"),
    ("0", "0", "0", "X_3"),
    ("0", "0", "0", "-X_2"),
    ("0", "-X_3", "X_2", "0"),
)

# extra generators claimed for the vanishing source (beyond X_1..X_6):
# (label, xi1, xi2, xi3, phi) in the printed polynomial form
PUBLISHED_LAPLACE_EXTRAS = (
    ("u_shift", "0", "0", "0", "1"),
    ("diagonal_translation", "1", "1", "1", "0"),
    ("printed_conformal_z", "x*z", "y*z", "z^2 - x^2 - y^2", "z*u"),
    ("printed_conformal_x", "x^2 - y^2 - z^2", "x*y", "x*z", "x*u"),
    ("printed_conformal_y", "x*y", "x^2 + y^2 + z^2", "y*z", "y*u"),
)

# the eleven-coefficient generator family, one member per coefficient
# a1..a11 with F2 = 0: (label, xi1, xi2, xi3, phi) in the printed form
PUBLISHED_GENERATOR_FAMILY = (
    ("conformal_z", "2*x*z", "2*y*z", "z^2 - x^2 - y^2", "-z*u"),
    ("rotation_yz", "0", "z", "-y", "0"),
    ("translation_z", "0", "0", "1", "0"),
    ("rotation_xz", "-z", "0", "x", "0"),
    ("conformal_y", "2*x*y", "y^2 - x^2 - z^2", "2*y*z", "-y*u"),
    ("dilation", "x", "y", "z", "0"),
    ("conformal_x", "x^2 - y^2 - z^2", "2*x*y", "2*x*z", "-x*u"),
    ("rotation_xy", "y", "-x", "0", "0"),
    ("translation_x", "1", "0", "0", "0"),
    ("translation_y", "0", "1", "0", "0"),
    ("u_scaling", "0", "0", "0", "u"),
)


def published_adjoint_matrix(i: int) -> Tuple[Tuple[TrigPoly, ...], ...]:
    tokens = PUBLISHED_ADJOINT_TOKENS[i]
    entries = {token: TrigPoly.parse(token) for token in set(tokens.values())}
    return tuple(
        tuple(entries[tokens[(r, c)]] if (r, c) in tokens else TrigPoly() for c in range(1, DIM + 1))
        for r in range(1, DIM + 1)
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _coords_json(element: AlgebraElement) -> List:
    if element.tower == "exact":
        return [str(c) for c in element.coeffs]
    return [float(c) for c in element.coeffs]


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------


def _claim_commutator_table() -> Claim:
    table = commutator_table(BASIS)
    matches_published = all(
        table[i][j].coeffs == tuple(Fraction(t) for t in PUBLISHED_COMMUTATORS[i][j])
        for i in range(DIM)
        for j in range(DIM)
    )
    # each bracket's field against the Lie bracket of the fields, which does
    # not read the structure constants
    fields = [rigid_basis_field(i) for i in range(1, 7)]
    matches_fields = all(
        vf_commutator(fields[i], fields[j]) == element_field(table[i][j])
        for i in range(DIM)
        for j in range(DIM)
    )
    status = CONFIRMED if matches_published and matches_fields else DISCREPANCY
    return Claim(
        "commutator-table",
        status,
        {
            "cells": DIM * DIM,
            "matches_published_table": matches_published,
            "matches_vector_field_recomputation": matches_fields,
        },
    )


def _claim_adjoint_matrices() -> List[Claim]:
    claims = []
    sigmas = np.linspace(-math.pi, math.pi, 50)
    for i in range(1, 7):
        computed = closed_form(i)
        published = published_adjoint_matrix(i)
        mismatches = []
        for r in range(DIM):
            for c in range(DIM):
                if computed.entries[r][c] != published[r][c]:
                    mismatches.append(
                        {
                            "row": r + 1,
                            "col": c + 1,
                            "published": str(published[r][c]),
                            "recomputed": str(computed.entries[r][c]),
                        }
                    )
        diff = np.abs(adjoint_series(i, sigmas, 30) - computed.evaluate(sigmas))
        series_error = float(diff.max())
        claims.append(
            Claim(
                f"adjoint-matrix-x{i}",
                CONFIRMED if not mismatches else DISCREPANCY,
                {
                    "mismatched_entries": mismatches,
                    "series_vs_closed_form_max_error": series_error,
                },
            )
        )
    return claims


def _claim_generator_family() -> Claim:
    # defining_equations is linear in the field and the field is linear in
    # a1..a11, so the eleven members decide every coefficient vector
    linear_rows_ok = True
    rigid_ok = True
    for label, *components in PUBLISHED_GENERATOR_FAMILY:
        residuals = defining_equations(PointVectorField.parse(";".join(components)))
        # every row not involving the source must vanish identically
        linear_rows_ok = linear_rows_ok and all(r.is_zero() for r in residuals[:12])
        if label.startswith(("translation", "rotation")):
            rigid_ok = rigid_ok and all(r.is_zero() for r in residuals)
    status = CONFIRMED if linear_rows_ok and rigid_ok else DISCREPANCY
    return Claim(
        "symmetry-generator-family",
        status,
        {
            "basis_fields": len(PUBLISHED_GENERATOR_FAMILY),
            "linear_rows_identically_zero": linear_rows_ok,
            "rigid_slices_fully_admissible": rigid_ok,
            "note": (
                "the defining system is linear in the field and the field in "
                "a1..a11, so the eleven one-coefficient members decide every "
                "coefficient vector; the source row is checked on the rigid "
                "members only; the constraint tying the inhomogeneous u-part to "
                "the source is not solved here"
            ),
        },
    )


def _claim_rigid_symmetries() -> Claim:
    all_zero = True
    for i in range(1, 7):
        field_i = rigid_basis_field(i)
        all_zero = all_zero and invariance_residual(field_i).is_zero()
        all_zero = all_zero and all(r.is_zero() for r in defining_equations(field_i))
    dilation_residual = str(invariance_residual(dilation_field()))
    return Claim(
        "rigid-motion-symmetries",
        CONFIRMED if all_zero else DISCREPANCY,
        {
            "exact_invariance_for_all_six_generators": all_zero,
            "dilation_counterexample_residual": dilation_residual,
        },
    )


def _claim_laplace_extras() -> Claim:
    results = {}
    printed_all_consistent = True
    for label, *components in PUBLISHED_LAPLACE_EXTRAS:
        field_v = PointVectorField.parse(";".join(components))
        residuals = [substitute_zero_source(r) for r in defining_equations(field_v)]
        direct_ok = all(r.is_zero() for r in residuals)
        space = solve_phi_for_xi(field_v.xi(), "zero", 2)
        results[label] = {
            "printed_component_admissible": direct_ok,
            "phi_space_for_xi": "inconsistent: no admissible u-part at all" if space is None else {
                "u_coefficient_gauge_fixed": str(space.gauge_fixed_g()),
                "homogeneous_dimension": space.dimension,
            },
        }
        # a printed conformal extra is consistent when its xi admits some
        # u-part, any other extra when it is admissible as printed
        conformal = label.startswith("printed_conformal")
        printed_all_consistent &= space is not None if conformal else direct_ok
    # the solver settles what the corrected fields admit
    zero_space = solve_phi_for_xi(
        (JetPolynomial.zero(), JetPolynomial.zero(), JetPolynomial.zero()), "zero", 2
    )
    results["zero_field"] = {
        "homogeneous_dimension": zero_space.dimension,
        "note": "u-coefficient constant plus any harmonic polynomial of degree <= 2",
    }
    for label, *components in PUBLISHED_GENERATOR_FAMILY:
        if not label.startswith("conformal"):
            continue
        field_v = PointVectorField.parse(";".join(components))
        space = solve_phi_for_xi(field_v.xi(), "zero", 2)
        gauge_fixed = None if space is None else str(space.gauge_fixed_g())
        expected_g = str(field_v.phi.partial("u"))
        results[label] = {
            "u_coefficient_gauge_fixed": gauge_fixed,
            "expected": expected_g,
            "matches": gauge_fixed == expected_g,
        }
    status = DISCREPANCY if not printed_all_consistent else CONFIRMED
    return Claim(
        "laplace-special-symmetries",
        status,
        {
            "fields": results,
            "note": (
                "the printed conformal generators fail the linear consistency rows; "
                "the coefficient-corrected fields admit the u-coefficients listed, "
                "and the printed diagonal translation already lies in the span of "
                "the coordinate translations"
            ),
        },
    )


def gaussian_sweep(rng: np.random.Generator, count: int) -> Tuple[np.ndarray, OneDimBatch]:
    """count Gaussian elements drawn from rng, shape (count, 6), and their
    seven-case normalization: the random sweep of the one-dim claim."""
    coords = rng.standard_normal((count, DIM))
    return coords, classify_1d_many(coords)


def _claim_one_dim(seed: int) -> Claim:
    _, sweep = gaussian_sweep(np.random.default_rng(seed), 2000)
    # the printed recipe for the open two-translation case, applied verbatim
    sample = AlgebraElement.numeric([1.0, 0.0, 0.0, 3.0, 1.0, 2.0])
    recipe = _published_recipe(sample.coeffs)
    after = apply_word(recipe, sample)
    recipe_residual = max(abs(c) for i, c in enumerate(after.coeffs, 1) if i not in CASE_ALLOWED["A12"])
    rep = classify_1d_paper(sample)
    conjugacies = []
    for left, right in (
        (AlgebraElement.numeric([1, 0, 0, 2, 0, 0]), AlgebraElement.numeric([0, 1, 0, 0, 2, 0])),
        (AlgebraElement.numeric([0, 1, 0, 0, 2, 0]), AlgebraElement.numeric([0, 0, 1, 0, 0, 2])),
    ):
        word = equivalence_search(left, right)
        conjugacies.append(
            {
                "from": _coords_json(left),
                "to": _coords_json(right),
                "word": word.to_json() if word is not None else None,
            }
        )
    redundant = all(c["word"] is not None for c in conjugacies)
    return Claim(
        "one-dim-representatives",
        DISCREPANCY,
        {
            "random_sweep": {
                "elements": len(sweep.scale),
                "max_disallowed_coordinate": float(sweep.disallowed.max()),
                "fallback_count": int(sweep.fallback.sum()),
            },
            "published_recipe_sample": {
                "input": _coords_json(sample),
                "word": recipe.to_json(),
                "max_disallowed_after_recipe": recipe_residual,
                "verified_fallback": {
                    "case": rep.case_tag,
                    "word": rep.word.to_json(),
                    "representative": _coords_json(rep.representative),
                },
            },
            "distinct_cases_conjugate_by_rotations": redundant,
            "conjugacy_words": conjugacies,
            "note": (
                "every nonzero element reduces to a screw about an axis or a "
                "translation; the published list separates rotation-axis "
                "orientations that explicit adjoint words identify"
            ),
        },
    )


def _claim_two_dim() -> Claim:
    verdicts = verify_2d_list((-2, -1, 0, 1, 2, 3))
    rows = []
    printed_failures = []
    for verdict in verdicts:
        row = {
            "case": verdict.case,
            "a": None if verdict.a is None else str(verdict.a),
            "independent": verdict.independent,
            "closed": verdict.closed,
            "abelian": verdict.abelian,
        }
        if verdict.witness is not None:
            row["witness_pair"] = list(verdict.witness_pair)
            row["witness_bracket"] = _coords_json(verdict.witness)
        rows.append(row)
        if verdict.case == "A2_6" and not verdict.closed:
            printed_failures.append(row)
    status = DISCREPANCY if printed_failures else CONFIRMED
    return Claim(
        "two-dim-subalgebras",
        status,
        {
            "verdicts": rows,
            "note": (
                "the printed sixth pair fails closure whenever its parameter is "
                "nonzero; the variant used in its own derivation (rotation about "
                "the first axis replaced by the sixth generator) closes and is "
                "checked alongside"
            ),
        },
    )


def _claim_three_four_dim() -> List[Claim]:
    grid = (-2, 1, 3)
    verdicts = verify_3d_4d(grid)
    closed3 = all(v.closed for v in verdicts if v.case == "A3")
    closed4 = all(v.closed for v in verdicts if v.case == "A4")

    def render(verdict, letters):
        """The structure constants in the letters of the verdict's generators."""
        return [[format_element(cell, letters) for cell in row] for row in verdict.structure]

    recomputed3 = {}
    mismatch3 = False
    for verdict in verdicts:
        if verdict.case != "A3":
            continue
        rendered = render(verdict, ("X", "Y", "Z"))
        recomputed3[f"a={verdict.a}"] = rendered
        letters = {"a": str(verdict.a), "-a": str(-verdict.a)}
        expect_published = [[letters.get(cell, cell) for cell in row] for row in PUBLISHED_A3_TABLE]
        mismatch3 = mismatch3 or rendered != expect_published
    rendered4 = render(next(v for v in verdicts if v.case == "A4"), ("X_1", "X_2", "X_3", "X_4"))
    match4 = rendered4 == [list(r) for r in PUBLISHED_A4_TABLE]
    return [
        Claim(
            "three-dim-subalgebra",
            CONFIRMED if closed3 else DISCREPANCY,
            {"closed_for_sampled_parameters": closed3, "parameters": [str(a) for a in grid]},
        ),
        Claim(
            "three-dim-commutator-table",
            DISCREPANCY if mismatch3 else CONFIRMED,
            {
                "published": [list(r) for r in PUBLISHED_A3_TABLE],
                "recomputed": recomputed3,
                "note": (
                    "recomputation yields [X, Y] = -a Z and [X, Z] = a Y; the "
                    "published table carries a scalar in place of -a Z and drops "
                    "the [X, Z] entry"
                ),
            },
        ),
        Claim(
            "four-dim-subalgebra",
            CONFIRMED if closed4 else DISCREPANCY,
            {"closed": closed4},
        ),
        Claim(
            "four-dim-commutator-table",
            CONFIRMED if match4 else DISCREPANCY,
            {"recomputed": rendered4, "matches_published": match4},
        ),
    ]


def _claim_five_dim(samples: int, seed: int) -> Claim:
    scan = hyperplane_scan(samples, seed)
    certificate = hyperplane_certificate()
    targeted = {}
    for index, name in ((5, "dual_of_x5"), (6, "dual_of_x6")):
        gens = tuple(BASIS[t] for t in range(DIM) if t != index - 1)
        verdict = closure_check(SubalgebraBasis(gens))
        targeted[name] = {
            "closed": verdict.closed,
            "witness_bracket": None if verdict.witness is None else _coords_json(verdict.witness),
        }
    # the scan contradicts the certificate with a found covector or a minimum below the floor
    below_floor = scan.min_residual < float(certificate.residual_floor) * (1 - 1e-12)
    status = DISCREPANCY if scan.found is not None or below_floor else CONFIRMED
    return Claim(
        "no-five-dim-subalgebra",
        status,
        {
            "grid_points": scan.grid_points,
            "random_samples": scan.random_samples,
            "min_closure_residual": scan.min_residual,
            "closed_hyperplane_found": scan.found is not None,
            "targeted_hyperplanes": targeted,
            # keys name the quadric (lam ^ dlam)(X_a, X_b, X_c) by 1-based a,b,c
            "certificate": {
                "diagonal_quadrics": {
                    ",".join(str(t + 1) for t in triple): format_element(
                        [quadric.get((i, i), 0) for i in range(DIM)],
                        [f"lambda_{i}^2" for i in range(1, DIM + 1)],
                    )
                    for triple, quadric in certificate.diagonal.items()
                },
                "witness": list(certificate.witness),
            },
            "residual_floor": float(certificate.residual_floor),
            "label": (
                "proved exactly by the diagonal quadrics of lam ^ dlam: those in "
                "lambda_1..lambda_3 cover each square twice and the fourth is "
                "lambda_4^2 + lambda_5^2 + lambda_6^2, so every unit covector has "
                "residual at least 2/5 and no hyperplane is closed; the witness "
                "attains 2/5; the sampling scan is consistent with it"
            ),
        },
    )


def _claim_solutions(seed: int) -> Claim:
    checks = check_solutions(40, seed)
    return Claim(
        "solution-transformations",
        CONFIRMED if checks.holds() else DISCREPANCY,
        {
            "max_residual_by_family": checks.family_max(),
            "residual_bound": RESIDUAL_BOUND,
            "flow_vs_closed_form_max_error": checks.flow_error,
            "second_order_convergence_ratio": checks.convergence_ratio,
        },
    )


def claims_report(samples: int, seed: int) -> ClaimsReport:
    """Recompute and grade every published claim; deterministic per seed."""
    claims: List[Claim] = [_claim_commutator_table()]
    claims.extend(_claim_adjoint_matrices())
    claims.append(_claim_generator_family())
    claims.append(_claim_rigid_symmetries())
    claims.append(_claim_laplace_extras())
    claims.append(_claim_one_dim(seed))
    claims.append(_claim_two_dim())
    claims.extend(_claim_three_four_dim())
    claims.append(_claim_five_dim(samples, seed))
    claims.append(_claim_solutions(seed))
    return ClaimsReport(tuple(claims), seed, samples)

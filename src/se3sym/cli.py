"""Command-line front end; machine output is JSON (or CSV for the table)."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .algebra import BASIS, DIM, AlgebraElement, commutator_table, format_element
from .adjoint import apply_word, closed_form
from .claims import claims_report
from .jets import (
    DEFINING_EQUATION_LABELS,
    PointVectorField,
    defining_equations,
    dilation_field,
    invariance_residual,
    rigid_basis_field,
)
from .optimal import canonicalize_screw, classify_1d_paper, equivalence_search, proportionality_scale
from .solutions import builtin_fields, flow_vs_closed_form, pde_residual, verify_invariance

DEFAULT_SEED = 42


class UsageError(ValueError):
    """Bad flag value; the message names the offending flag."""


@dataclass(frozen=True)
class CommandRequest:
    subcommand: str
    flags: Dict[str, object] = field(default_factory=dict)
    seed: int = DEFAULT_SEED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se3sym",
        description="verify rigid-motion symmetry claims for the nonlinear Poisson equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_table = sub.add_parser("table", help="print the basis commutator table")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_adj = sub.add_parser("adjoint", help="one-parameter adjoint matrix")
    p_adj.add_argument("--gen", type=int, required=True)
    p_adj.add_argument("--param", type=float, default=None)
    p_adj.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_cls = sub.add_parser("classify", help="canonical forms of an element")
    p_cls.add_argument("--vector", type=str, required=True)
    p_cls.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_eq = sub.add_parser("equiv", help="search for an adjoint word linking two elements")
    p_eq.add_argument("--x", type=str, required=True)
    p_eq.add_argument("--y", type=str, required=True)
    p_eq.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_claims = sub.add_parser("check-claims", help="recompute all published claims")
    p_claims.add_argument("--samples", type=int, default=100000)
    p_claims.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_pro = sub.add_parser("prolong", help="defining-system residuals of a point field")
    p_pro.add_argument("--field", type=str, required=True)
    p_pro.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_ver = sub.add_parser("verify-solutions", help="residuals of the transported solutions")
    p_ver.add_argument("--family", type=str, default=None)
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def parse_request(argv: Sequence[str]) -> CommandRequest:
    namespace = _build_parser().parse_args(list(argv))
    flags = dict(vars(namespace))
    subcommand = flags.pop("subcommand")
    seed = flags.pop("seed")
    if seed < 0:
        raise UsageError("--seed must be a nonnegative integer")
    return CommandRequest(subcommand, flags, seed)


def _parse_vector(text: str, flag: str) -> AlgebraElement:
    pieces = [p.strip() for p in text.split(",")]
    if len(pieces) != DIM:
        raise UsageError(f"{flag} needs six comma-separated numbers, got {len(pieces)}")
    exact = True
    values = []
    for piece in pieces:
        try:
            if "/" in piece:
                values.append(Fraction(piece))
            elif any(ch in piece.lower() for ch in (".", "e")):
                values.append(float(piece))
                exact = False
            else:
                values.append(Fraction(int(piece)))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{flag} has a malformed entry {piece!r}") from None
        if not _is_finite(values[-1]):
            raise UsageError(f"{flag} has a non-finite entry {piece!r}")
    if exact:
        return AlgebraElement.exact(values)
    return AlgebraElement.numeric([float(v) for v in values])


def _is_finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _run_table(flags: Dict) -> int:
    table = commutator_table(BASIS)
    names = [f"X_{i}" for i in range(1, DIM + 1)]
    cells = [[format_element(table[i][j].coeffs) for j in range(DIM)] for i in range(DIM)]
    if flags["format"] == "csv":
        lines = ["," + ",".join(names)]
        for name, row in zip(names, cells):
            lines.append(name + "," + ",".join(row))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_json({"basis": names, "cells": cells})
    return 0


def _run_adjoint(flags: Dict) -> int:
    gen = flags["gen"]
    if not 1 <= gen <= DIM:
        raise UsageError("--gen must lie in 1..6")
    if flags["param"] is not None and not math.isfinite(flags["param"]):
        raise UsageError(f"--param must be finite, got {flags['param']!r}")
    matrix = closed_form(gen)
    payload = {
        "generator": gen,
        "symbolic": [[str(e) for e in row] for row in matrix.entries],
        "parameter": flags["param"],
        "evaluated": None,
    }
    if flags["param"] is not None:
        payload["evaluated"] = matrix.evaluate(flags["param"]).tolist()
    _print_json(payload)
    return 0


def _representative_payload(element: AlgebraElement) -> Dict:
    rep = classify_1d_paper(element)
    screw = canonicalize_screw(element.to_float())
    return {
        "input": [float(c) for c in element.to_float().coeffs],
        "representative": {
            "case": rep.case_tag,
            "a": rep.a,
            "b": rep.b,
            "word": rep.word.to_json(),
            "scale": rep.scale,
            "fallback": rep.fallback,
            "coordinates": [float(c) for c in rep.representative.coeffs],
        },
        "screw": {
            "kind": screw.kind,
            "pitch": screw.pitch,
            "word": screw.word.to_json(),
            "scale": screw.scale,
            "canonical": [float(c) for c in screw.canonical_element().coeffs],
        },
    }


def _run_classify(flags: Dict) -> int:
    element = _parse_vector(flags["vector"], "--vector")
    if element.is_zero():
        raise UsageError("--vector must be a nonzero element")
    _print_json(_representative_payload(element))
    return 0


def _run_equiv(flags: Dict) -> int:
    ex = _parse_vector(flags["x"], "--x")
    ey = _parse_vector(flags["y"], "--y")
    if ex.is_zero() or ey.is_zero():
        raise UsageError("--x and --y must be nonzero elements")
    word = equivalence_search(ex, ey)
    if word is None:
        _print_json({"equivalent": False, "word": None, "scale": None})
    else:
        lam = proportionality_scale(apply_word(word, ex), ey.to_float())
        _print_json({"equivalent": True, "word": word.to_json(), "scale": lam})
    return 0


def _run_check_claims(flags: Dict, seed: int) -> int:
    if flags["samples"] < 1:
        raise UsageError("--samples must be at least 1")
    report = claims_report(samples=flags["samples"], seed=seed)
    sys.stdout.write(report.to_json())
    return 1 if report.has_discrepancy() else 0


_NAMED_FIELDS = {
    **{f"X{i}": i for i in range(1, 7)},
}


def _parse_field(text: str) -> PointVectorField:
    name = text.strip()
    if name in _NAMED_FIELDS:
        return rigid_basis_field(_NAMED_FIELDS[name])
    if name == "dilation":
        return dilation_field()
    try:
        return PointVectorField.parse(text)
    except ValueError as exc:
        raise UsageError(f"--field: {exc}") from None


def _run_prolong(flags: Dict) -> int:
    field_v = _parse_field(flags["field"])
    residuals = defining_equations(field_v)
    payload = {
        "field": {label: str(comp) for label, comp in field_v.components()},
        "defining_residuals": [
            {"label": label, "residual": str(res)}
            for label, res in zip(DEFINING_EQUATION_LABELS, residuals)
        ],
        "all_zero": all(res.is_zero() for res in residuals),
        "invariance_residual": str(invariance_residual(field_v)),
    }
    _print_json(payload)
    return 0


def _run_verify_solutions(flags: Dict, seed: int) -> int:
    if flags["samples"] < 1:
        raise UsageError("--samples must be at least 1")
    fields = builtin_fields()
    family = flags["family"]
    if family is not None:
        if family not in fields:
            raise UsageError(
                f"--family must be one of {sorted(fields)}, got {family!r}"
            )
        fields = {family: fields[family]}
    parameters = [0.3, -0.7]
    families_payload = {}
    for name, field_obj in fields.items():
        per_generator = {}
        for k in range(1, 7):
            worst = max(
                verify_invariance(field_obj, field_obj.source, k, s, flags["samples"], seed)
                for s in parameters
            )
            per_generator[str(k)] = worst
        families_payload[name] = {
            "source": field_obj.source.kind,
            "max_residual_by_generator": per_generator,
        }
    exp_field = builtin_fields()["exp_x"]
    coarse = abs(pde_residual(exp_field, exp_field.source, (0.0, 0.0, 0.0), 4e-3))
    fine = abs(pde_residual(exp_field, exp_field.source, (0.0, 0.0, 0.0), 2e-3))
    s_grid = [t / 4 for t in range(-4, 5)]
    points = [(0.3, 0.4, 0.5), (-0.2, 0.7, -0.1)]
    payload = {
        "families": families_payload,
        "parameters": parameters,
        "samples": flags["samples"],
        "seed": seed,
        "convergence_ratio": coarse / fine,
        "flow_vs_closed_form_max": max(
            flow_vs_closed_form(k, s_grid, points) for k in range(1, 7)
        ),
    }
    _print_json(payload)
    return 0


def run(request: CommandRequest) -> int:
    """Dispatch a parsed request; returns the process exit status."""
    handlers = {
        "table": lambda: _run_table(request.flags),
        "adjoint": lambda: _run_adjoint(request.flags),
        "classify": lambda: _run_classify(request.flags),
        "equiv": lambda: _run_equiv(request.flags),
        "check-claims": lambda: _run_check_claims(request.flags, request.seed),
        "prolong": lambda: _run_prolong(request.flags),
        "verify-solutions": lambda: _run_verify_solutions(request.flags, request.seed),
    }
    return handlers[request.subcommand]()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        request = parse_request(argv)
        return run(request)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

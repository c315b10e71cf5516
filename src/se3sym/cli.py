"""Command-line front end; machine output is JSON (or CSV for the table)."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence

# no matrix here has more than six columns, so BLAS threads would only spin;
# this must run before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import BASIS, DIM, AlgebraElement, commutator_table, format_element
from .adjoint import closed_form
from .claims import claims_report
from .jets import (
    DEFINING_EQUATION_LABELS,
    PointVectorField,
    defining_equations,
    dilation_field,
    invariance_residual,
    rigid_basis_field,
)
from .optimal import canonicalize_screw, classify_1d_paper, equivalence_search, unit_proportionality
from .solutions import SOLUTION_PARAMETERS, builtin_fields, check_solutions

DEFAULT_SEED = 42


class UsageError(ValueError):
    """Bad flag value; the message names the offending flag."""


def _seed(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be a nonnegative integer")
    return args.seed


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
    if not exact:
        return AlgebraElement.numeric([float(v) for v in values])
    if any(values) and not any(map(float, values)):
        raise UsageError(f"{flag} is nonzero but every entry rounds to 0.0 in float64")
    return AlgebraElement.exact(values)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _run_table(args: argparse.Namespace) -> int:
    table = commutator_table(BASIS)
    names = [f"X_{i}" for i in range(1, DIM + 1)]
    cells = [[format_element(table[i][j].coeffs) for j in range(DIM)] for i in range(DIM)]
    if args.format == "csv":
        lines = ["," + ",".join(names)]
        for name, row in zip(names, cells):
            lines.append(name + "," + ",".join(row))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_json({"basis": names, "cells": cells})
    return 0


def _run_adjoint(args: argparse.Namespace) -> int:
    gen = args.gen
    if not 1 <= gen <= DIM:
        raise UsageError("--gen must lie in 1..6")
    if args.param is not None and not math.isfinite(args.param):
        raise UsageError(f"--param must be finite, got {args.param!r}")
    matrix = closed_form(gen)
    payload = {
        "generator": gen,
        "symbolic": [[str(e) for e in row] for row in matrix.entries],
        "parameter": args.param,
        "evaluated": None,
    }
    if args.param is not None:
        payload["evaluated"] = matrix.evaluate(args.param).tolist()
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


def _run_classify(args: argparse.Namespace) -> int:
    element = _parse_vector(args.vector, "--vector")
    if element.is_zero():
        raise UsageError("--vector must be a nonzero element")
    try:
        payload = _representative_payload(element)
    except ValueError as exc:
        raise UsageError("--vector is too small: its reported scale overflows float64") from exc
    _print_json(payload)
    return 0


def _equiv_scale(word, ex: AlgebraElement, ey: AlgebraElement) -> Optional[float]:
    """Ad_word(x) = scale * y: the unit-scale factor times max|x| / max|y|,
    rounded once; None where that is not a finite, nonzero float64."""
    mx, my = (Fraction(max(abs(c) for c in e.to_float().coeffs)) for e in (ex, ey))
    try:
        return float(Fraction(unit_proportionality(word, ex, ey)) * mx / my) or None
    except OverflowError:
        return None


def _run_equiv(args: argparse.Namespace) -> int:
    ex = _parse_vector(args.x, "--x")
    ey = _parse_vector(args.y, "--y")
    if ex.is_zero() or ey.is_zero():
        raise UsageError("--x and --y must be nonzero elements")
    word = equivalence_search(ex, ey)
    if word is None:
        _print_json({"equivalent": False, "word": None, "scale": None})
    else:
        _print_json({"equivalent": True, "word": word.to_json(), "scale": _equiv_scale(word, ex, ey)})
    return 0


def _run_check_claims(args: argparse.Namespace) -> int:
    seed = _seed(args)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    report = claims_report(samples=args.samples, seed=seed)
    sys.stdout.write(report.to_json())
    return 1 if report.has_discrepancy() else 0


def _parse_field(text: str) -> PointVectorField:
    name = text.strip()
    if name in {f"X{i}" for i in range(1, 7)}:
        return rigid_basis_field(int(name[1:]))
    if name == "dilation":
        return dilation_field()
    try:
        return PointVectorField.parse(text)
    except ValueError as exc:
        raise UsageError(f"--field: {exc}") from None


def _run_prolong(args: argparse.Namespace) -> int:
    field_v = _parse_field(args.field)
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


def _run_verify_solutions(args: argparse.Namespace) -> int:
    seed = _seed(args)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    fields = builtin_fields()
    family = args.family
    if family is not None and family not in fields:
        raise UsageError(f"--family must be one of {sorted(fields)}, got {family!r}")
    checks = check_solutions(args.samples, seed, None if family is None else [family])
    payload = {
        "families": {
            name: {
                "source": fields[name].source.kind,
                "max_residual_by_generator": {str(k): r for k, r in by_k.items()},
            }
            for name, by_k in checks.residuals.items()
        },
        "parameters": list(SOLUTION_PARAMETERS),
        "samples": args.samples,
        "seed": seed,
        "convergence_ratio": checks.convergence_ratio,
        "flow_vs_closed_form_max": checks.flow_error,
    }
    _print_json(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se3sym",
        description="verify rigid-motion symmetry claims for the nonlinear Poisson equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_table = sub.add_parser("table", help="print the basis commutator table")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=_run_table)

    p_adj = sub.add_parser("adjoint", help="one-parameter adjoint matrix")
    p_adj.add_argument("--gen", type=int, required=True)
    p_adj.add_argument("--param", type=float, default=None)
    p_adj.set_defaults(handler=_run_adjoint)

    p_cls = sub.add_parser("classify", help="canonical forms of an element")
    p_cls.add_argument("--vector", type=str, required=True)
    p_cls.set_defaults(handler=_run_classify)

    p_eq = sub.add_parser("equiv", help="search for an adjoint word linking two elements")
    p_eq.add_argument("--x", type=str, required=True)
    p_eq.add_argument("--y", type=str, required=True)
    p_eq.set_defaults(handler=_run_equiv)

    p_claims = sub.add_parser("check-claims", help="recompute all published claims")
    p_claims.add_argument("--samples", type=int, default=100000)
    p_claims.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_claims.set_defaults(handler=_run_check_claims)

    p_pro = sub.add_parser("prolong", help="defining-system residuals of a point field")
    p_pro.add_argument("--field", type=str, required=True)
    p_pro.set_defaults(handler=_run_prolong)

    p_ver = sub.add_parser("verify-solutions", help="residuals of the transported solutions")
    p_ver.add_argument("--family", type=str, default=None)
    p_ver.add_argument("--samples", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.set_defaults(handler=_run_verify_solutions)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # argparse (as in Python 3.11) reads "--flag=--" as [] and skips the type
        missing = [name for name, value in vars(args).items() if value == []]
        if missing:
            raise UsageError(f"--{missing[0]} needs a value")
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Exact finite-dimensional arithmetic for the rigid-motion algebra se(3).

Elements are coordinate vectors over the fixed basis X_1..X_6, where X_1,
X_2, X_3 generate translations along x, y, z and X_4, X_5, X_6 the rotations
y dz - z dy, z dx - x dz, x dy - y dx.  Coordinates live in one of two
numeric towers: exact rationals for algebraic identities, float64 for orbit
searches.  Towers never mix inside a value.  Subalgebra queries (independence,
span membership, closure, commutator tables) are decided exactly and take
exact generators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .linalg import exact_nullspace, exact_rank, exact_solve_in_span

DIM = 6

Scalar = Union[int, Fraction, float]


class TowerError(TypeError):
    """Raised when exact and float coordinates are mixed in one operation."""


class DependentBasisError(ValueError):
    """Raised for generator lists that are not linearly independent."""

    def __init__(self, rank: int, relation):
        self.rank = rank
        self.relation = relation
        super().__init__(
            f"generators are dependent: rank {rank}, relation coefficients {relation}"
        )


def _classify_scalar(value) -> str:
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, (int, Fraction)):
        return "exact"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite coordinate {value!r}")
        return "float"
    raise TypeError(f"unsupported coordinate type {type(value).__name__}")


@dataclass(frozen=True)
class AlgebraElement:
    """Coordinate 6-vector over X_1..X_6.

    coeffs[0:3] is the translation part v, coeffs[3:6] the rotation part w.
    """

    coeffs: Tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != DIM:
            raise ValueError(f"expected {DIM} coordinates, got {len(self.coeffs)}")
        towers = {_classify_scalar(c) for c in self.coeffs}
        if len(towers) > 1:
            raise TowerError(f"mixed numeric towers in coordinates {self.coeffs!r}")

    @classmethod
    def exact(cls, coeffs: Sequence[Scalar]) -> "AlgebraElement":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def numeric(cls, coeffs: Sequence[float]) -> "AlgebraElement":
        return cls(tuple(float(c) for c in coeffs))

    @property
    def tower(self) -> str:
        return _classify_scalar(self.coeffs[0])

    @property
    def v(self) -> Tuple[Scalar, Scalar, Scalar]:
        """Translation part (coefficients of X_1, X_2, X_3)."""
        return self.coeffs[:3]

    @property
    def w(self) -> Tuple[Scalar, Scalar, Scalar]:
        """Rotation part (coefficients of X_4, X_5, X_6)."""
        return self.coeffs[3:]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_float(self) -> "AlgebraElement":
        return AlgebraElement.numeric([float(c) for c in self.coeffs])

    def as_array(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs], dtype=float)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_tower(self, other)
        return AlgebraElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_tower(self, other)
        return AlgebraElement(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: Scalar) -> "AlgebraElement":
        if self.tower == "exact" and isinstance(scalar, float):
            raise TowerError("float scalar on an exact element")
        if self.tower == "float" and isinstance(scalar, Fraction):
            scalar = float(scalar)
        return AlgebraElement(tuple(scalar * a for a in self.coeffs))

    def __str__(self) -> str:
        return format_element(self.coeffs)


def _require_same_tower(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.tower != y.tower:
        raise TowerError(f"mixed numeric towers: {x.tower} and {y.tower}")


def format_element(coeffs: Sequence[Scalar], names: Optional[Sequence[str]] = None) -> str:
    """Render a coordinate vector as a signed combination of the names
    (default X_1..X_6)."""
    parts: List[str] = []
    names = names or [f"X_{index}" for index in range(1, len(coeffs) + 1)]
    for value, name in zip(coeffs, names):
        if value == 0:
            continue
        if value == 1:
            term = name
        elif value == -1:
            term = f"-{name}"
        else:
            term = f"{value}*{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def basis_element(index: int) -> AlgebraElement:
    """Exact basis element X_index, index in 1..6."""
    if not 1 <= index <= DIM:
        raise ValueError(f"basis index {index} out of range 1..{DIM}")
    coeffs = [Fraction(0)] * DIM
    coeffs[index - 1] = Fraction(1)
    return AlgebraElement(tuple(coeffs))


X1, X2, X3, X4, X5, X6 = (basis_element(i) for i in range(1, 7))
BASIS = (X1, X2, X3, X4, X5, X6)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


class StructureConstants(NamedTuple):
    """Tensor c with [X_i, X_j] = sum_k c[i][j][k] X_k (indices 0-based).

    Single source of truth for every bracket in the package.
    """

    c: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    @classmethod
    def rigid_motions(cls) -> "StructureConstants":
        """Structure constants of se(3) in the fixed basis.

        For elements written as pairs (v, w) the bracket is
        [(v, w), (v', w')] = (v' x w - v x w', -w x w').
        """
        # the constants are integers: work on ints, store Fractions
        tensor = []
        for i in range(DIM):
            vi = tuple(int(i == t) for t in range(3))
            wi = tuple(int(i - 3 == t) for t in range(3))
            row = []
            for j in range(DIM):
                vj = tuple(int(j == t) for t in range(3))
                wj = tuple(int(j - 3 == t) for t in range(3))
                v_part = tuple(
                    a - b for a, b in zip(_cross(vj, wi), _cross(vi, wj))
                )
                w_part = tuple(-t for t in _cross(wi, wj))
                row.append(tuple(map(Fraction, v_part + w_part)))
            tensor.append(tuple(row))
        return cls(tuple(tensor))

    def nonzero_entries(self) -> List[Tuple[int, int, int, Fraction]]:
        out = []
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    if self.c[i][j][k] != 0:
                        out.append((i, j, k, self.c[i][j][k]))
        return out


SE3 = StructureConstants.rigid_motions()
_NONZERO = SE3.nonzero_entries()


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y] through the structure constants."""
    _require_same_tower(x, y)
    exact = x.tower == "exact"
    out = [Fraction(0) if exact else 0.0] * DIM
    xc, yc = x.coeffs, y.coeffs
    for i, j, k, value in _NONZERO:
        xi = xc[i]
        yj = yc[j]
        if xi == 0 or yj == 0:
            continue
        out[k] += (value if exact else float(value)) * xi * yj
    return AlgebraElement(tuple(out))


@dataclass(frozen=True)
class SubalgebraBasis:
    """Linearly independent list of 1..6 exact generators."""

    generators: Tuple[AlgebraElement, ...]

    def __post_init__(self):
        if not 1 <= len(self.generators) <= DIM:
            raise ValueError("a basis holds between 1 and 6 generators")
        _check_independent(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _require_exact(elements: Sequence[AlgebraElement]) -> None:
    if any(e.tower != "exact" for e in elements):
        raise TowerError("subalgebra queries take exact coordinates")


def _check_independent(generators: Sequence[AlgebraElement]) -> None:
    _require_exact(generators)
    rows = [g.coeffs for g in generators]
    rank = exact_rank(rows)
    if rank < len(generators):
        relation = exact_nullspace(
            [[rows[j][i] for j in range(len(rows))] for i in range(DIM)]
        )
        raise DependentBasisError(rank, relation[0] if relation else None)


def commutator_table(basis: Sequence[AlgebraElement]) -> List[List[AlgebraElement]]:
    """All pairwise brackets of an independent generator list."""
    generators = tuple(basis.generators if isinstance(basis, SubalgebraBasis) else basis)
    _check_independent(generators)
    return [[bracket(a, b) for b in generators] for a in generators]


def in_span(x: AlgebraElement, basis: SubalgebraBasis) -> Optional[Tuple[Fraction, ...]]:
    """Coordinates of x in the basis (a SubalgebraBasis or a sequence of
    exact generators) when x lies in its span, else None."""
    generators = basis.generators if isinstance(basis, SubalgebraBasis) else tuple(basis)
    _require_exact((x, *generators))
    return exact_solve_in_span([g.coeffs for g in generators], x.coeffs)


class ClosureWitness(NamedTuple):
    i: int
    j: int
    value: AlgebraElement


class ClosureVerdict(NamedTuple):
    closed: bool
    witness: Optional[ClosureWitness] = None


def closure_check(basis: SubalgebraBasis) -> ClosureVerdict:
    """Check whether every pairwise bracket stays inside the span.

    Returns the first failing ordered pair (i < j) with the offending bracket.
    """
    if not isinstance(basis, SubalgebraBasis):
        basis = SubalgebraBasis(tuple(basis))
    gens = basis.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            value = bracket(gens[i], gens[j])
            if value.is_zero():
                continue
            if in_span(value, basis) is None:
                return ClosureVerdict(False, ClosureWitness(i, j, value))
    return ClosureVerdict(True)


def is_abelian(basis: SubalgebraBasis) -> bool:
    gens = basis.generators if isinstance(basis, SubalgebraBasis) else tuple(basis)
    return all(
        bracket(gens[i], gens[j]).is_zero()
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )

"""Adjoint action of SE(3) on its algebra.

Closed-form matrices are constructed from the bracket series itself, never
transcribed from a table: write ad for the bracket operator of a basis
generator, then exp(-s ad) is I - s ad for the nilpotent translation
generators and I - sin(s) ad + (1 - cos(s)) ad^2 for the rotation generators
(which satisfy ad^3 = -ad).  Matrices are stored row-wise: row j holds the
coordinates of the image of X_j, so coordinate vectors transform as rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .algebra import DIM, SE3, AlgebraElement, bracket, basis_element
from .poly import SparsePoly

# ---------------------------------------------------------------------------
# trig polynomials: rational coefficients in the symbols s, C, S with the
# single relation C^2 + S^2 = 1, kept in normal form (C-degree at most 1)
# ---------------------------------------------------------------------------


class TrigPoly(SparsePoly):
    """Polynomial in s, C=cos(s), S=sin(s), reduced modulo C^2 + S^2 = 1."""

    VARIABLES = ("s", "C", "S")

    __slots__ = ()

    @staticmethod
    def _accumulate(store, key, value) -> None:
        """Add value * s^a C^b S^c after rewriting C^2 -> 1 - S^2."""
        a, b, c = key
        if b >= 2:
            TrigPoly._accumulate(store, (a, b - 2, c), value)
            TrigPoly._accumulate(store, (a, b - 2, c + 2), -value)
        else:
            SparsePoly._accumulate(store, key, value)

    @classmethod
    def symbol(cls, name: str) -> "TrigPoly":
        return cls.variable(name)

    def evaluate(self, sigma: float) -> float:
        c, s = math.cos(sigma), math.sin(sigma)
        total = 0.0
        for (es, ec, esin), value in self.terms.items():
            total += float(value) * sigma**es * c**ec * s**esin
        return total


@dataclass(frozen=True)
class TrigPolyMatrix:
    """6x6 matrix of TrigPoly entries, row-convention as described above."""

    entries: Tuple[Tuple[TrigPoly, ...], ...]

    def evaluate(self, sigma: float) -> np.ndarray:
        return np.array(
            [[e.evaluate(sigma) for e in row] for row in self.entries], dtype=float
        )

    def apply_rows(self, coeffs: Sequence) -> Tuple[TrigPoly, ...]:
        """Row-vector action: image coordinates of sum_j coeffs[j] X_j."""
        out = [TrigPoly() for _ in range(DIM)]
        for j, cj in enumerate(coeffs):
            if cj == 0:
                continue
            for k in range(DIM):
                out[k] = out[k] + self.entries[j][k] * cj
        return tuple(out)

    def __str__(self) -> str:
        return "\n".join("  ".join(str(e) for e in row) for row in self.entries)


# ---------------------------------------------------------------------------
# ad matrices and the adjoint series
# ---------------------------------------------------------------------------


def ad_matrix(x: AlgebraElement) -> Tuple[Tuple[Fraction, ...], ...]:
    """Matrix of y -> [x, y], columns holding images of basis elements."""
    if x.tower != "exact":
        raise TypeError("ad_matrix expects the exact tower")
    cols = []
    for j in range(DIM):
        image = bracket(x, basis_element(j + 1))
        cols.append(image.coeffs)
    return tuple(tuple(cols[j][k] for j in range(DIM)) for k in range(DIM))


def _ad_float(i: int) -> np.ndarray:
    return np.array(
        [[float(v) for v in row] for row in ad_matrix(basis_element(i))], dtype=float
    )


_AD = {i: _ad_float(i) for i in range(1, 7)}
_AD2 = {i: _AD[i] @ _AD[i] for i in range(1, 7)}


def adjoint_series(i: int, sigma: float, order: int) -> np.ndarray:
    """Truncated series sum_k (-sigma ad)^k / k!, returned row-convention."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    ad = _AD[i]
    total = np.eye(DIM)
    term = np.eye(DIM)
    for k in range(1, order + 1):
        term = term @ (-sigma * ad) / k
        total = total + term
    return total.T


def _exact_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n))
        for r in range(n)
    )


def adjoint_closed_form(i: int) -> TrigPolyMatrix:
    """Exact matrix of Ad(exp(s X_i)) built from the bracket operator."""
    if not 1 <= i <= DIM:
        raise ValueError(f"generator index {i} out of range 1..6")
    ad = ad_matrix(basis_element(i))
    ad2 = _exact_matmul(ad, ad)
    if i <= 3:
        ad3 = _exact_matmul(ad2, ad)
        if any(any(v != 0 for v in row) for row in ad3):
            raise AssertionError("translation generator is not nilpotent of order 3")
        s = TrigPoly.symbol("s")
        entry = lambda r, c: TrigPoly.constant(int(r == c)) - s * ad[r][c] + (
            s * s * Fraction(1, 2)
        ) * ad2[r][c]
    else:
        ad3 = _exact_matmul(ad2, ad)
        if any(
            ad3[r][c] != -ad[r][c] for r in range(DIM) for c in range(DIM)
        ):
            raise AssertionError("rotation generator does not satisfy ad^3 = -ad")
        sin = TrigPoly.symbol("S")
        one_minus_cos = TrigPoly.constant(1) - TrigPoly.symbol("C")
        entry = lambda r, c: TrigPoly.constant(int(r == c)) - sin * ad[r][c] + (
            one_minus_cos
        ) * ad2[r][c]
    # exp(-s ad) has images in columns; transpose to the row convention.
    rows = tuple(tuple(entry(c, r) for c in range(DIM)) for r in range(DIM))
    return TrigPolyMatrix(rows)


_CLOSED_FORMS = {i: adjoint_closed_form(i) for i in range(1, 7)}


def closed_form(i: int) -> TrigPolyMatrix:
    return _CLOSED_FORMS[i]


def step_matrix(i: int, sigma: float) -> np.ndarray:
    """Float matrix of one adjoint step, row-convention."""
    if i <= 3:
        m = np.eye(DIM) - sigma * _AD[i]
    else:
        m = (
            np.eye(DIM)
            - math.sin(sigma) * _AD[i]
            + (1.0 - math.cos(sigma)) * _AD2[i]
        )
    return m.T


# ---------------------------------------------------------------------------
# adjoint words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjointWord:
    """Ordered steps (generator index, parameter); first step acts first."""

    steps: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self):
        for index, parameter in self.steps:
            if not 1 <= index <= DIM:
                raise ValueError(f"generator index {index} out of range 1..6")
            if not math.isfinite(parameter):
                raise ValueError(f"non-finite parameter {parameter!r}")

    @classmethod
    def of(cls, *steps: Tuple[int, float]) -> "AdjointWord":
        return cls(tuple((int(i), float(s)) for i, s in steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def inverse(self) -> "AdjointWord":
        return AdjointWord(tuple((i, -s) for i, s in reversed(self.steps)))

    def concat(self, other: "AdjointWord") -> "AdjointWord":
        return AdjointWord(self.steps + other.steps)

    def simplified(self, tol: float = 0.0) -> "AdjointWord":
        """Drop zero steps and merge adjacent steps of the same generator."""
        steps: List[Tuple[int, float]] = []
        for index, parameter in self.steps:
            if steps and steps[-1][0] == index:
                merged = steps[-1][1] + parameter
                steps.pop()
                if abs(merged) > tol:
                    steps.append((index, merged))
            elif abs(parameter) > tol:
                steps.append((index, parameter))
        # merging may expose new adjacent pairs
        word = AdjointWord(tuple(steps))
        return word if len(word) == len(self) else word.simplified(tol)

    def matrix(self) -> np.ndarray:
        total = np.eye(DIM)
        for index, parameter in self.steps:
            total = total @ step_matrix(index, parameter)
        return total

    def to_json(self) -> List[List[float]]:
        return [[index, parameter] for index, parameter in self.steps]


def apply_word(word: AdjointWord, x: AlgebraElement) -> AlgebraElement:
    """Apply the adjoint word to x; returns a float-tower element."""
    coords = x.as_array()
    if word.steps:
        coords = coords @ word.matrix()
    return AlgebraElement.numeric(coords)


def automorphism_defect(
    word: AdjointWord, x: AlgebraElement, y: AlgebraElement
) -> AlgebraElement:
    """apply_word(w, [x, y]) - [apply_word(w, x), apply_word(w, y)]."""
    lhs = apply_word(word, bracket(x, y))
    rhs = bracket(apply_word(word, x), apply_word(word, y))
    return lhs - rhs


def symbolic_automorphism_defect(
    i: int, x: AlgebraElement, y: AlgebraElement
) -> Tuple[TrigPoly, ...]:
    """Defect of a single symbolic step, as TrigPoly coordinates.

    Vanishes identically modulo C^2 + S^2 = 1 because Ad is an automorphism.
    """
    matrix = closed_form(i)
    img_x = matrix.apply_rows([Fraction(c) for c in x.coeffs])
    img_y = matrix.apply_rows([Fraction(c) for c in y.coeffs])
    img_bracket = matrix.apply_rows([Fraction(c) for c in bracket(x, y).coeffs])
    out = [TrigPoly() for _ in range(DIM)]
    for a, b, k, value in SE3.nonzero_entries():
        out[k] = out[k] + img_x[a] * img_y[b] * value
    return tuple(img_bracket[k] - out[k] for k in range(DIM))


def omega_norm_sq(x: AlgebraElement) -> float:
    return float(sum(float(c) ** 2 for c in x.w))


def translation_dot(x: AlgebraElement) -> float:
    return float(sum(float(a) * float(b) for a, b in zip(x.v, x.w)))

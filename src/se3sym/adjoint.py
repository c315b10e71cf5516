"""Adjoint action of SE(3) on its algebra.

Closed-form matrices are constructed from the bracket series itself, never
transcribed from a table: write ad for the bracket operator of a basis
generator, read from the structure constants SE3 by contraction; then
exp(-s ad) is I + ad^2 - P ad - cos(s) ad^2, with P = s and ad^2 = 0 for the
translation generators and P = sin(s) for the rotation generators (which
satisfy ad^3 = -ad).  Matrices are stored row-wise: row j holds the coordinates of
the image of X_j, so coordinate vectors transform as rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

import numpy as np

from .algebra import DIM, SE3, AlgebraElement, Scalar, bracket, basis_element
from .poly import SparsePoly

# ---------------------------------------------------------------------------
# trig polynomials: rational coefficients in the symbols s, C, S with the
# single relation C^2 + S^2 = 1, kept in normal form (C-degree at most 1)
# ---------------------------------------------------------------------------


class TrigPoly(SparsePoly):
    """Polynomial in s, C=cos(s), S=sin(s), reduced modulo C^2 + S^2 = 1."""

    VARIABLES = ("s", "C", "S")

    __slots__ = ()

    @classmethod
    def _canonical(cls, store):
        """Rewrite C^b = C^(b mod 2) (1 - S^2)^(b // 2).  A key of C-degree at
        most 1 keeps its place, and a rewritten key's terms enter where it
        stood, in rising powers of S: TrigPolyMatrix.evaluate sums in order."""
        normal = {}
        for (a, b, c), value in store.items():
            half, b = divmod(b, 2)
            for j in range(half + 1):
                key = (a, b, c + 2 * j)
                normal[key] = normal.get(key, 0) + (-1) ** j * math.comb(half, j) * value
        return super()._canonical(normal)


class TrigPolyMatrix(NamedTuple):
    """6x6 matrix of TrigPoly entries, row-convention as described above."""

    entries: Tuple[Tuple[TrigPoly, ...], ...]

    def evaluate(self, sigma) -> np.ndarray:
        """The (6, 6) matrix at one parameter, or an (n, 6, 6) stack at n."""
        sigma = np.asarray(sigma, dtype=float)
        c, s = np.cos(sigma), np.sin(sigma)
        values = np.zeros((DIM, DIM) + sigma.shape)
        for r, row in enumerate(self.entries):
            for k, entry in enumerate(row):
                for (es, ec, esin), value in entry.terms.items():
                    values[r, k] += float(value) * sigma**es * c**ec * s**esin
        return np.moveaxis(values, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# ad matrices and the adjoint series
# ---------------------------------------------------------------------------


def ad_matrix(x: AlgebraElement) -> Tuple[Tuple[Fraction, ...], ...]:
    """Matrix of y -> [x, y], columns holding images of basis elements: the
    contraction sum_i x_i SE3[i][j][k] in row k, column j."""
    if x.tower != "exact":
        raise TypeError("ad_matrix expects the exact tower")
    terms = [(c, SE3[i]) for i, c in enumerate(x.coeffs) if c]
    return tuple(
        tuple(sum((c * t[j][k] for c, t in terms), Fraction(0)) for j in range(DIM))
        for k in range(DIM)
    )


# (ad X_i)^T and ((ad X_i)^2)^T at index i - 1: exact -1, 0 and 1 floats, as
# the structure constants are integers.  Row vectors multiply them from the
# left; C-contiguous, since a product with a transposed view is ~3x slower.
_AD_T = np.array([np.transpose(ad_matrix(basis_element(i))) for i in range(1, DIM + 1)], float)
_AD2_T = _AD_T @ _AD_T


def adjoint_series(i: int, sigma, order: int) -> np.ndarray:
    """Truncated series sum_k (-sigma ad)^k / k!, returned row-convention.

    sigma is one parameter, giving a (6, 6) matrix, or an array of n, giving
    an (n, 6, 6) stack.  Each column of ad holds at most one nonzero entry,
    so every matrix product sums one product and zeros: a stacked entry is
    the same float as the scalar one.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    step = -np.multiply.outer(np.asarray(sigma, dtype=float), _AD_T[i - 1].T)
    total = np.broadcast_to(np.eye(DIM), step.shape)
    term = total
    for k in range(1, order + 1):
        term = term @ step / k
        total = total + term
    return np.swapaxes(total, -2, -1)


def closed_form(i: int) -> TrigPolyMatrix:
    """Exact matrix of Ad(exp(s X_i)) built from the bracket operator."""
    if not 1 <= i <= DIM:
        raise ValueError(f"generator index {i} out of range 1..6")
    ad_t, ad2_t = _AD_T[i - 1], _AD2_T[i - 1]
    if i <= 3 and ad2_t.any():
        raise AssertionError("translation generator does not satisfy ad^2 = 0")
    if i > 3 and (ad_t @ ad2_t != -ad_t).any():
        raise AssertionError("rotation generator does not satisfy ad^3 = -ad")
    # 1 + ad^2 - P ad - C ad^2 keyed by exponents of (s, C, S); P = s (ad^2 = 0)
    # or S.  The transposed tables already hold it in the row convention.
    p = (1, 0, 0) if i <= 3 else (0, 0, 1)
    ad, ad2 = ad_t.astype(int).tolist(), ad2_t.astype(int).tolist()
    entry = lambda r, c: TrigPoly(
        {(0, 0, 0): int(r == c) + ad2[r][c], p: -ad[r][c], (0, 1, 0): -ad2[r][c]}
    )
    rows = tuple(tuple(entry(r, c) for c in range(DIM)) for r in range(DIM))
    return TrigPolyMatrix(rows)


# the package's name for it, bound after the def: perfbench/spans.py names a
# function's spans after the last name bound to it (adjoint.adjoint_closed_form)
adjoint_closed_form = closed_form


def apply_step(i: int, sigma, coords: np.ndarray) -> np.ndarray:
    """coords @ closed_form(i).evaluate(sigma), computed from the bracket operator.

    coords holds one element, shape (6,), or one per row, shape (n, 6);
    sigma is one parameter or one per row.  A zero parameter leaves the
    coordinates unchanged.  Each row of the matrices of ad X_i and
    (ad X_i)^2 has at most one nonzero entry, so the products below are
    exact and a row's image does not depend on the other rows.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim:
        sigma = sigma[:, None]
    if i <= 3:
        return coords - sigma * (coords @ _AD_T[i - 1])
    return (
        coords
        - np.sin(sigma) * (coords @ _AD_T[i - 1])
        + (1.0 - np.cos(sigma)) * (coords @ _AD2_T[i - 1])
    )


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

    def inverse(self) -> "AdjointWord":
        return AdjointWord(tuple((i, -s) for i, s in reversed(self.steps)))

    def concat(self, other: "AdjointWord") -> "AdjointWord":
        return AdjointWord(self.steps + other.steps)

    def simplified(self, tol: float = 0.0) -> "AdjointWord":
        """Drop zero steps and merge adjacent steps of the same generator.

        One pass suffices: neighbouring steps on the stack always differ in
        generator, so a step whose merge drops out meets the one below it
        as the next input would."""
        steps: List[Tuple[int, float]] = []
        for index, parameter in self.steps:
            if steps and steps[-1][0] == index:
                merged = steps[-1][1] + parameter
                steps.pop()
                if abs(merged) > tol:
                    steps.append((index, merged))
            elif abs(parameter) > tol:
                steps.append((index, parameter))
        return AdjointWord(tuple(steps))

    def to_json(self) -> List[List[float]]:
        return [[index, parameter] for index, parameter in self.steps]


def _apply_steps(steps, coords: np.ndarray) -> np.ndarray:
    """apply_step of every (generator, parameter) of steps, in order; a
    parameter is one number or one per row of coords."""
    for index, parameter in steps:
        coords = apply_step(index, parameter, coords)
    return coords


def apply_word(word: AdjointWord, x: AlgebraElement) -> AlgebraElement:
    """Apply the adjoint word to x; returns a float-tower element."""
    return AlgebraElement.numeric(_apply_steps(word.steps, x.as_array()))


def automorphism_defect(
    word: AdjointWord, x: AlgebraElement, y: AlgebraElement
) -> AlgebraElement:
    """apply_word(w, [x, y]) - [apply_word(w, x), apply_word(w, y)]."""
    lhs = apply_word(word, bracket(x, y))
    rhs = bracket(apply_word(word, x), apply_word(word, y))
    return lhs - rhs


def omega_norm_sq(x: AlgebraElement) -> Scalar:
    """|w|^2, the Ad-invariant form of the rotation part, in x's tower (a
    Fraction for exact x, int coordinates included)."""
    return sum((c * c for c in x.w), Fraction(0))


def translation_dot(x: AlgebraElement) -> Scalar:
    """v.w, the Ad-invariant pairing of the two parts, in x's tower (a
    Fraction for exact x, int coordinates included)."""
    return sum((a * b for a, b in zip(x.v, x.w)), Fraction(0))

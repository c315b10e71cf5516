"""Adjoint action of SE(3) on its algebra.

Closed-form matrices are constructed from the bracket series itself, never
transcribed from a table: write ad for the bracket operator of a basis
generator, then exp(-s ad) is I - s ad for the nilpotent translation
generators and I - sin(s) ad + (1 - cos(s)) ad^2 for the rotation generators
(which satisfy ad^3 = -ad).  Matrices are stored row-wise: row j holds the
coordinates of the image of X_j, so coordinate vectors transform as rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

import numpy as np

from .algebra import DIM, AlgebraElement, bracket, basis_element
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
        stood, in rising powers of S: _at sums in that order."""
        normal = {}
        for (a, b, c), value in store.items():
            half, b = divmod(b, 2)
            for j in range(half + 1):
                key = (a, b, c + 2 * j)
                normal[key] = normal.get(key, 0) + (-1) ** j * math.comb(half, j) * value
        return super()._canonical(normal)

    def evaluate(self, sigma):
        """Value at one parameter (a float) or at each of an array of them."""
        sigma = np.asarray(sigma, dtype=float)
        total = self._at(sigma, np.cos(sigma), np.sin(sigma))
        return float(total) if sigma.ndim == 0 else total

    def _at(self, sigma: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Value at the parameters sigma, given c = cos(sigma), s = sin(sigma)."""
        total = np.zeros_like(sigma)
        for (es, ec, esin), value in self.terms.items():
            total += float(value) * sigma**es * c**ec * s**esin
        return total


class TrigPolyMatrix(NamedTuple):
    """6x6 matrix of TrigPoly entries, row-convention as described above."""

    entries: Tuple[Tuple[TrigPoly, ...], ...]

    def evaluate(self, sigma) -> np.ndarray:
        """The (6, 6) matrix at one parameter, or an (n, 6, 6) stack at n."""
        sigma = np.asarray(sigma, dtype=float)
        c, s = np.cos(sigma), np.sin(sigma)
        values = np.array([[e._at(sigma, c, s) for e in row] for row in self.entries])
        return np.moveaxis(values, (0, 1), (-2, -1))


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


def _ad_int(i: int) -> np.ndarray:
    """Matrix of ad X_i on ints: the structure constants are integers."""
    return np.array(ad_matrix(basis_element(i)), dtype=np.int64)


_AD = {i: _ad_int(i).astype(float) for i in range(1, 7)}
_AD2 = {i: _AD[i] @ _AD[i] for i in range(1, 7)}


def adjoint_series(i: int, sigma, order: int) -> np.ndarray:
    """Truncated series sum_k (-sigma ad)^k / k!, returned row-convention.

    sigma is one parameter, giving a (6, 6) matrix, or an array of n, giving
    an (n, 6, 6) stack.  Each column of ad holds at most one nonzero entry,
    so every matrix product sums one product and zeros: a stacked entry is
    the same float as the scalar one.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    step = -np.multiply.outer(sigma, _AD[i])
    total = np.broadcast_to(np.eye(DIM), step.shape)
    term = total
    for k in range(1, order + 1):
        term = term @ step / k
        total = total + term
    return np.swapaxes(total, -2, -1)


def adjoint_closed_form(i: int) -> TrigPolyMatrix:
    """Exact matrix of Ad(exp(s X_i)) built from the bracket operator."""
    if not 1 <= i <= DIM:
        raise ValueError(f"generator index {i} out of range 1..6")
    ad_int = _ad_int(i)
    ad2_int = ad_int @ ad_int
    ad3_int = ad2_int @ ad_int
    ad, ad2 = ad_int.tolist(), ad2_int.tolist()
    if i <= 3:
        if ad3_int.any():
            raise AssertionError("translation generator is not nilpotent of order 3")
        # 1 - s ad + (s^2 / 2) ad^2, keyed by exponents of (s, C, S)
        entry = lambda r, c: TrigPoly(
            {(0, 0, 0): int(r == c), (1, 0, 0): -ad[r][c], (2, 0, 0): Fraction(ad2[r][c], 2)}
        )
    else:
        if (ad3_int != -ad_int).any():
            raise AssertionError("rotation generator does not satisfy ad^3 = -ad")
        # 1 - S ad + (1 - C) ad^2
        entry = lambda r, c: TrigPoly(
            {(0, 0, 0): int(r == c) + ad2[r][c], (0, 0, 1): -ad[r][c], (0, 1, 0): -ad2[r][c]}
        )
    # exp(-s ad) has images in columns; transpose to the row convention.
    rows = tuple(tuple(entry(c, r) for c in range(DIM)) for r in range(DIM))
    return TrigPolyMatrix(rows)


@functools.lru_cache(maxsize=None)
def closed_form(i: int) -> TrigPolyMatrix:
    """adjoint_closed_form(i), built on first use and kept."""
    return adjoint_closed_form(i)


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
        return coords - sigma * (coords @ _AD[i].T)
    return (
        coords
        - np.sin(sigma) * (coords @ _AD[i].T)
        + (1.0 - np.cos(sigma)) * (coords @ _AD2[i].T)
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

    @classmethod
    def of(cls, *steps: Tuple[int, float]) -> "AdjointWord":
        return cls(tuple((int(i), float(s)) for i, s in steps))

    def __len__(self) -> int:
        return len(self.steps)

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

    def to_json(self) -> List[List[float]]:
        return [[index, parameter] for index, parameter in self.steps]


def apply_word(word: AdjointWord, x: AlgebraElement) -> AlgebraElement:
    """Apply the adjoint word to x; returns a float-tower element."""
    coords = x.as_array()
    for index, parameter in word.steps:
        coords = apply_step(index, parameter, coords)
    return AlgebraElement.numeric(coords)


def automorphism_defect(
    word: AdjointWord, x: AlgebraElement, y: AlgebraElement
) -> AlgebraElement:
    """apply_word(w, [x, y]) - [apply_word(w, x), apply_word(w, y)]."""
    lhs = apply_word(word, bracket(x, y))
    rhs = bracket(apply_word(word, x), apply_word(word, y))
    return lhs - rhs


def omega_norm_sq(x: AlgebraElement) -> float:
    return float(sum(float(c) ** 2 for c in x.w))


def translation_dot(x: AlgebraElement) -> float:
    return float(sum(float(a) * float(b) for a, b in zip(x.v, x.w)))

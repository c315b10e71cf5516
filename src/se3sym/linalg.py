"""Small dense linear algebra over exact rationals.

The routines take rows of Fractions (or ints) and never round.  They
clear each row's denominators and eliminate on Python ints, fraction-free:
a row is cross-multiplied by the pivot over the gcd of the two leading
entries, then divided by the gcd of its entries, so numbers stay small and no
Fraction is built while eliminating.  Results are Fractions again, made once
from the finished echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row) -> List[int]:
    """The row times the lcm of its denominators, as ints."""
    scale = lcm(*(e.denominator for e in row))
    return [e.numerator * (scale // e.denominator) for e in row]


def _integer_rref(rows) -> Tuple[List[List[int]], List[int]]:
    """Echelon form on ints: pivot rows first, each pivot the only nonzero
    entry of its column, rows past the rank zero."""
    mat = [_integer_row(row) for row in rows]
    nrows = len(mat)
    pivots: List[int] = []
    row = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot_row = next((r for r in range(row, nrows) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        prow = mat[row]
        lead = prow[col]
        for r in range(nrows):
            entry = mat[r][col]
            if r == row or not entry:
                continue
            g = gcd(lead, entry)
            a, b = lead // g, entry // g
            new = [a * p - b * q for p, q in zip(mat[r], prow)]
            content = gcd(*new)
            mat[r] = [v // content for v in new] if content > 1 else new
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return mat, pivots


def exact_rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form with the list of pivot columns."""
    mat, pivots = _integer_rref(rows)
    out = [[_ZERO] * len(row) for row in mat]
    for r, col in enumerate(pivots):
        lead = mat[r][col]
        out[r] = [Fraction(v, lead) if v else _ZERO for v in mat[r]]
    return out, pivots


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_integer_rref(rows)[1])


def nullspace_from_rref(
    mat: Sequence[Sequence[Fraction]], pivots: Sequence[int], ncols: int
) -> List[Tuple[Fraction, ...]]:
    """Nullspace basis of the first ncols columns of an RREF whose pivots in
    those columns are given: one vector per free column, set to 1 there."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for r, piv in enumerate(pivots):
            vec[piv] = -mat[r][free]
        basis.append(tuple(vec))
    return basis


def exact_nullspace(rows: Sequence[Sequence[Fraction]]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right nullspace of the matrix given by rows."""
    if not rows:
        return []
    mat, pivots = exact_rref(rows)
    return nullspace_from_rref(mat, pivots, len(rows[0]))


def exact_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[Tuple[Tuple[Fraction, ...], List[Tuple[Fraction, ...]]]]:
    """Solve A x = b exactly.

    Returns (particular solution with free variables set to zero, nullspace
    basis), or None when the system is inconsistent.  Both come from one
    RREF of the augmented matrix [A | b].
    """
    if not rows:
        return (), []
    ncols = len(rows[0])
    mat, pivots = exact_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    particular = [_ZERO] * ncols
    for r, piv in enumerate(pivots):
        particular[piv] = mat[r][ncols]
    return tuple(particular), nullspace_from_rref(mat, pivots, ncols)

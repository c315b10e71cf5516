"""The integer elimination core against a plain-Fraction Gauss-Jordan."""

import random
from fractions import Fraction

from se3sym.linalg import exact_nullspace, exact_rank, exact_rref, exact_solve


def reference_rref(rows):
    """Textbook Gauss-Jordan on Fractions: scale the pivot row to 1, then
    clear the pivot column in every other row."""
    mat = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    row = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot_row = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [e * inv for e in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat, pivots


def reference_nullspace(rows, ncols):
    mat, pivots = reference_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, piv in enumerate(pivots):
            vec[piv] = -mat[r][free]
        basis.append(tuple(vec))
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    mat, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, piv in enumerate(pivots):
        particular[piv] = mat[r][ncols]
    return tuple(particular), reference_nullspace(rows, ncols)


def _entry(rnd):
    if rnd.random() < 0.4:
        return 0
    value = Fraction(rnd.randint(-9, 9), rnd.randint(1, 12))
    # mix ints and Fractions, as callers do
    return int(value) if value.denominator == 1 and rnd.random() < 0.5 else value


def _matrix(rnd, shape_kind):
    if shape_kind == "tall":
        nrows, ncols = rnd.randint(4, 9), rnd.randint(1, 4)
    elif shape_kind == "wide":
        nrows, ncols = rnd.randint(1, 4), rnd.randint(4, 9)
    elif shape_kind == "row":
        nrows, ncols = 1, rnd.randint(1, 8)
    elif shape_kind == "column":
        nrows, ncols = rnd.randint(1, 8), 1
    else:
        nrows, ncols = rnd.randint(1, 7), rnd.randint(1, 7)
    if shape_kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    if shape_kind == "dependent":
        base = [[_entry(rnd) for _ in range(ncols)] for _ in range(rnd.randint(1, 3))]
        rows = []
        for _ in range(nrows):
            weights = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)) for _ in base]
            rows.append([sum((w * b[c] for w, b in zip(weights, base)), Fraction(0)) for c in range(ncols)])
        return rows
    return [[_entry(rnd) for _ in range(ncols)] for _ in range(nrows)]


def _system(rnd, rows, mode):
    """(rows, rhs): rhs the image of a random x ("image"), random
    ("random"), or set against an added zero row ("zero_row")."""
    rows = [list(row) for row in rows]
    if mode == "image":
        x0 = [_entry(rnd) for _ in rows[0]]
        return rows, [sum((Fraction(a) * b for a, b in zip(row, x0)), Fraction(0)) for row in rows]
    rhs = [_entry(rnd) for _ in rows]
    if mode == "zero_row":
        rows.append([0] * len(rows[0]))
        rhs.append(Fraction(rnd.choice([-3, 1, 5]), rnd.randint(1, 4)))
    return rows, rhs


KINDS = ("tall", "wide", "row", "column", "zero", "dependent", "square")
CASES = [(seed, KINDS[seed % len(KINDS)]) for seed in range(350)]


def _all_fractions(rows):
    return all(type(e) is Fraction for row in rows for e in row)


def test_integer_core_matches_fraction_gauss_jordan():
    for seed, kind in CASES:
        rnd = random.Random(seed)
        rows = _matrix(rnd, kind)
        ncols = len(rows[0])
        mat, pivots = exact_rref(rows)
        assert (mat, pivots) == reference_rref(rows), (seed, kind)
        assert _all_fractions(mat)
        assert exact_rank(rows) == len(pivots)

        basis = exact_nullspace(rows)
        assert basis == reference_nullspace(rows, ncols), (seed, kind)
        assert _all_fractions(basis)
        for vec in basis:
            assert all(sum(Fraction(a) * v for a, v in zip(row, vec)) == 0 for row in rows)

        for mode in ("image", "random", "zero_row"):
            system, rhs = _system(rnd, rows, mode)
            solved = exact_solve(system, rhs)
            assert solved == reference_solve(system, rhs), (seed, kind, mode)
            assert (solved is None) == (mode == "zero_row") or mode == "random"
            if solved is None:
                continue
            particular, null = solved
            assert _all_fractions([particular]) and _all_fractions(null)
            assert all(
                sum(Fraction(a) * v for a, v in zip(row, particular)) == b
                for row, b in zip(system, rhs)
            )


def test_inconsistent_system_is_none_and_empty_inputs():
    assert exact_solve([[1, 2], [2, 4]], [1, 3]) is None
    assert exact_solve([[0, 0]], [Fraction(1, 2)]) is None
    assert exact_rref([]) == ([], [])
    assert exact_nullspace([]) == []
    assert exact_solve([], []) == ((), [])

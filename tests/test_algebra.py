import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from se3sym.algebra import (
    BASIS,
    SE3,
    AlgebraElement,
    DependentBasisError,
    SubalgebraBasis,
    TowerError,
    X1,
    X2,
    X3,
    X4,
    X5,
    X6,
    bracket,
    closure_check,
    commutator_table,
    format_element,
    in_span,
    is_abelian,
)

ZERO = (0, 0, 0, 0, 0, 0)


def jacobi_defect(x, y, z):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; exactly zero for valid constants."""
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def _e(k, sign=1):
    return tuple(sign * Fraction(1) if t == k - 1 else Fraction(0) for t in range(6))


# frozen expected table: entry [i][j] = [X_{i+1}, X_{j+1}]
EXPECTED_TABLE = (
    (ZERO, ZERO, ZERO, ZERO, _e(3, -1), _e(2)),
    (ZERO, ZERO, ZERO, _e(3), ZERO, _e(1, -1)),
    (ZERO, ZERO, ZERO, _e(2, -1), _e(1), ZERO),
    (ZERO, _e(3, -1), _e(2), ZERO, _e(6, -1), _e(5)),
    (_e(3), ZERO, _e(1, -1), _e(6), ZERO, _e(4, -1)),
    (_e(2, -1), _e(1), ZERO, _e(5, -1), _e(4), ZERO),
)


def test_basis_table_matches_frozen_entries():
    table = commutator_table(BASIS)
    for i in range(6):
        for j in range(6):
            expected = tuple(Fraction(c) for c in EXPECTED_TABLE[i][j])
            assert table[i][j].coeffs == expected, (i + 1, j + 1)


def test_bracket_examples():
    assert bracket(X1, X5) == -X3
    assert bracket(X4, X4).is_zero()
    assert bracket(X4 + X5, X6) == X5 - X4


def test_structure_constants_antisymmetry():
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert SE3.c[i][j][k] == -SE3.c[j][i][k]


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
elements = st.lists(small_fractions, min_size=6, max_size=6).map(AlgebraElement.exact)


@given(elements, elements)
def test_bracket_antisymmetry(a, b):
    assert (bracket(a, b) + bracket(b, a)).is_zero()


@given(elements, elements, elements, small_fractions, small_fractions)
def test_bracket_bilinearity(a, b, c, alpha, beta):
    left = bracket(alpha * a + beta * b, c)
    right = alpha * bracket(a, c) + beta * bracket(b, c)
    assert left == right


@given(elements, elements, elements)
def test_jacobi_identity_property(a, b, c):
    assert jacobi_defect(a, b, c).is_zero()


def test_jacobi_examples_and_bulk():
    assert jacobi_defect(X1, X4, X5).is_zero()
    assert jacobi_defect(X2, X2, X6).is_zero()
    rng = random.Random(20240811)
    for _ in range(1000):
        triple = [
            AlgebraElement.exact([Fraction(rng.randint(-4, 4)) for _ in range(6)])
            for _ in range(3)
        ]
        assert jacobi_defect(*triple).is_zero()


def test_in_span_examples():
    assert in_span(X3, SubalgebraBasis((X3, X6))) == (1, 0)
    assert in_span(X2, SubalgebraBasis((X1, X3))) is None
    coords = in_span(
        AlgebraElement.exact([2, 0, 0, 3, 0, 0]),
        SubalgebraBasis((X1 + X4, X1 - X4)),
    )
    assert coords == (Fraction(5, 2), Fraction(-1, 2))


def test_subalgebra_queries_reject_the_float_tower():
    floats = (X1.to_float(), (X2 + X4).to_float())
    for generators in (floats, (X1, (X2 + X4).to_float())):
        with pytest.raises(TowerError):
            SubalgebraBasis(generators)
        with pytest.raises(TowerError):
            in_span(X1, generators)
        with pytest.raises(TowerError):
            closure_check(generators)
        with pytest.raises(TowerError):
            commutator_table(generators)
    with pytest.raises(TowerError):
        in_span(X1.to_float(), SubalgebraBasis((X1, X2 + X4)))


def test_closure_check_examples():
    assert closure_check(SubalgebraBasis((X1, X2, X3, X4))).closed

    verdict = closure_check(SubalgebraBasis((X2, X4)))
    assert not verdict.closed
    assert (verdict.witness.i, verdict.witness.j) == (0, 1)
    assert verdict.witness.value == X3

    verdict = closure_check(SubalgebraBasis((X3, X1 + X4)))
    assert not verdict.closed
    assert verdict.witness.value == -X2


def test_translations_are_abelian_and_closed():
    basis = SubalgebraBasis((X1, X2, X3))
    assert closure_check(basis).closed
    assert is_abelian(basis)
    table = commutator_table(basis)
    assert all(cell.is_zero() for row in table for cell in row)


def test_commutator_table_with_parameter():
    a = Fraction(2)
    table = commutator_table([X1 + a * X4, X2, X3])
    assert table[0][1] == AlgebraElement.exact([0, 0, -2, 0, 0, 0])
    assert table[0][2] == AlgebraElement.exact([0, 2, 0, 0, 0, 0])


def test_dependent_basis_rejected_with_witness():
    with pytest.raises(DependentBasisError) as info:
        commutator_table([X1, X2, X1 + X2])
    assert info.value.rank == 2
    assert info.value.relation is not None


def test_mixed_towers_rejected():
    with pytest.raises(TowerError):
        bracket(X1, X2.to_float())
    with pytest.raises(TowerError):
        AlgebraElement((Fraction(1), 0.5, 0, 0, 0, 0))


def test_float_bracket_matches_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.integers(-3, 4, size=6)
        b = rng.integers(-3, 4, size=6)
        exact = bracket(AlgebraElement.exact(list(a)), AlgebraElement.exact(list(b)))
        numeric = bracket(
            AlgebraElement.numeric(a.astype(float)), AlgebraElement.numeric(b.astype(float))
        )
        assert np.allclose(exact.as_array(), numeric.as_array())


def test_format_element():
    assert format_element((0, 0, 0, 0, 0, -1)) == "-X_6"
    assert format_element((0, 0, 0, 0, 0, 0)) == "0"
    assert format_element((1, 0, 0, Fraction(-1, 2), 0, 0)) == "X_1 - 1/2*X_4"
    assert format_element((Fraction(3), -1, 0), ("X", "Y", "Z")) == "3*X - Y"

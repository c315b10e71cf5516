"""The coefficient normal form of the sparse-polynomial core.

A coefficient is stored as an int where it is integral and as a Fraction
otherwise.  Arithmetic may leave an integral Fraction behind; it equals,
hashes and prints as its int, so every result must agree with the same
computation on all-Fraction coefficients.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from se3sym.adjoint import TrigPoly
from se3sym.jets import JetPolynomial, x, y, z

X_KEY = next(iter(JetPolynomial.variable("x").terms))
C_SYM, S_SYM, s_SYM = (TrigPoly.symbol(n) for n in ("C", "S", "s"))


@pytest.mark.parametrize("cls", [JetPolynomial, TrigPoly])
def test_int_and_integral_fraction_build_the_same_polynomial(cls):
    key = (1,) + (0,) * (len(cls.VARIABLES) - 1)
    pairs = [
        (cls.constant(3), cls.constant(Fraction(3))),
        (cls({key: 3}), cls({key: Fraction(6, 2)})),
        (cls.variable(cls.VARIABLES[0]) * 3, cls.variable(cls.VARIABLES[0]) * Fraction(3)),
        (cls.constant(1) + 3, cls.constant(1) + Fraction(3)),
    ]
    for from_int, from_fraction in pairs:
        assert from_int == from_fraction
        assert hash(from_int) == hash(from_fraction)
        assert str(from_int) == str(from_fraction)
        assert all(type(v) is int for v in from_fraction.terms.values())
    assert cls.constant(Fraction(3)) == 3 and hash(cls.constant(Fraction(3))) == hash(3)


def test_parser_stores_integral_quotients_as_ints():
    assert JetPolynomial.parse("2/2*x").terms == {X_KEY: 1}
    assert type(JetPolynomial.parse("2/2*x").terms[X_KEY]) is int
    assert type(JetPolynomial.parse("-4/2*x").terms[X_KEY]) is int
    assert JetPolynomial.parse("1/2*x").terms == {X_KEY: Fraction(1, 2)}


def test_c_squared_rewrite_is_the_same_for_int_and_fraction_inputs():
    expected = {(0, 0, 0): 3, (0, 0, 2): -3}
    for value in (3, Fraction(3), Fraction(6, 2)):
        assert TrigPoly({(0, 2, 0): value}).terms == expected
        assert (C_SYM * value * C_SYM).terms == expected
        # an all-Fraction operand meets the rewrite inside the product
        fractional = TrigPoly._canonical({(0, 1, 0): Fraction(value)})
        assert (fractional * C_SYM).terms == expected
    assert TrigPoly({(1, 3, 0): Fraction(1, 2)}).terms == {
        (1, 1, 0): Fraction(1, 2),
        (1, 1, 2): Fraction(-1, 2),
    }


def _as_fractions(p):
    """p with every coefficient a Fraction: the representation before ints."""
    return type(p)._canonical({k: Fraction(v) for k, v in p.terms.items()})


def _normalized(p):
    """p rebuilt through the constructor, which normalizes coefficients."""
    return type(p)(dict(p.terms))


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)

point_polys = st.lists(
    st.tuples(coefficients, *[st.integers(min_value=0, max_value=2)] * 3), max_size=4
).map(
    lambda entries: sum(
        (c * x**a * y**b * z**e for c, a, b, e in entries), JetPolynomial.zero()
    )
)

trig_polys = st.lists(
    st.tuples(coefficients, *[st.integers(min_value=0, max_value=2)] * 3), max_size=4
).map(
    lambda entries: sum(
        (c * s_SYM**a * C_SYM**b * S_SYM**e for c, a, b, e in entries), TrigPoly()
    )
)

operand_pairs = st.sampled_from([point_polys, trig_polys]).flatmap(
    lambda polys: st.tuples(polys, polys)
)


def _agree(from_fractions, from_ints):
    assert from_fractions == from_ints
    assert from_fractions.terms == from_ints.terms
    assert hash(from_fractions) == hash(from_ints)
    assert str(from_fractions) == str(from_ints)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(operand_pairs, coefficients, st.integers(min_value=0, max_value=3))
def test_operations_agree_between_fraction_and_int_coefficients(pair, scalar, exponent):
    pf, qf = (_as_fractions(p) for p in pair)
    pi, qi = (_normalized(p) for p in pair)
    int_scalar = scalar.numerator if scalar.denominator == 1 else scalar
    for p in (pi, qi):
        assert all(type(v) is int or v.denominator != 1 for v in p.terms.values())
    for op in (operator.add, operator.sub, operator.mul):
        _agree(op(pf, qf), op(pi, qi))
        _agree(op(pf, scalar), op(pi, int_scalar))
        _agree(op(scalar, pf), op(int_scalar, pi))
    _agree(pf**exponent, pi**exponent)
    _agree(-pf, -pi)

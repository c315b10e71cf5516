import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from se3sym.jets import (
    DEFINING_EQUATION_LABELS,
    JetPolynomial,
    OrderOverflowError,
    PointVectorField,
    SymmetryAnsatz,
    ansatz_residuals,
    defining_equations,
    dilation_field,
    explicit_phi_x,
    f_atom,
    f_prime,
    field_from_phi,
    invariance_residual,
    reduce_on_shell,
    rigid_basis_field,
    second_prolongation,
    solve_phi_for_xi,
    substitute_zero_source,
    vf_commutator,
    x,
    y,
    z,
    u,
    ONE,
)
from se3sym.adjoint import TrigPoly
from se3sym.algebra import SE3

u_x = JetPolynomial.variable("u_x")
u_y = JetPolynomial.variable("u_y")
u_z = JetPolynomial.variable("u_z")
u_xx = JetPolynomial.variable("u_xx")
u_xy = JetPolynomial.variable("u_xy")
u_yy = JetPolynomial.variable("u_yy")
u_zz = JetPolynomial.variable("u_zz")
ZERO = JetPolynomial.zero()


# ---------------------------------------------------------------------------
# polynomial ring
# ---------------------------------------------------------------------------

point_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=5,
).map(
    lambda entries: sum(
        (c * x**dx * y**dy * z**dz * u**du for c, dx, dy, dz, du in entries),
        JetPolynomial.zero(),
    )
)


s_sym, C_sym, S_sym = (TrigPoly.symbol(n) for n in ("s", "C", "S"))

trig_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=5,
).map(
    lambda entries: sum(
        (c * s_sym**a * C_sym**b * S_sym**e for c, a, b, e in entries),
        TrigPoly(),
    )
)

# both subclasses of the sparse-polynomial core obey the same ring laws
ring_triples = st.sampled_from([point_polys, trig_polys]).flatmap(
    lambda polys: st.tuples(polys, polys, polys)
)


def _in_normal_form(p):
    """TrigPoly keys carry C-degree at most 1 (C^2 is rewritten as 1 - S^2)."""
    return not isinstance(p, TrigPoly) or all(key[1] <= 1 for key in p.terms)


@given(ring_triples)
def test_ring_laws(triple):
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    for product in (p, p * q, (p * q) * r, p * (q + r), q * q * q):
        assert _in_normal_form(product)


@given(ring_triples)
def test_canonical_form_independent_of_construction_order(triple):
    p, q, _ = triple
    assert p + q - q == p
    assert str(p + q) == str(q + p)


def test_total_derivative_examples():
    assert u.total_derivative("x") == u_x
    assert (x * u_y).total_derivative("x") == u_y + x * u_xy
    assert (u * u).total_derivative("z") == 2 * u * u_z


def test_total_derivative_chain_rule_on_atoms():
    assert f_atom.total_derivative("x") == f_prime * u_x
    assert (x * f_atom).total_derivative("x") == f_atom + x * f_prime * u_x


def test_total_derivative_order_overflow():
    with pytest.raises(OrderOverflowError) as info:
        u_xx.total_derivative("x")
    assert "u_xx" in str(info.value)


def test_partial_derivative_of_source_atoms():
    assert f_atom.partial("u") == f_prime
    assert (u * f_atom).partial("u") == f_atom + u * f_prime


def test_substitution_and_on_shell_idempotence():
    p = u_zz * u_zz + x * u_zz + u_x
    reduced = reduce_on_shell(p)
    assert not reduced.uses(["u_zz"])
    assert reduce_on_shell(reduced) == reduced
    expected = (f_atom - u_xx - u_yy) ** 2 + x * (f_atom - u_xx - u_yy) + u_x
    assert reduced == expected


def test_parser_round_trip_fixed():
    samples = [
        "0",
        "1",
        "-1/2",
        "x^2 + x*y + y^2",
        "3*x^2 - 1/2*u_x*f' + u",
        "u_zz - f + u_xx",
        "2*u*u_z - f''",
    ]
    for text in samples:
        poly = JetPolynomial.parse(text)
        assert JetPolynomial.parse(str(poly)) == poly


@given(point_polys)
def test_parser_round_trip_random(p):
    assert JetPolynomial.parse(str(p)) == p


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


def test_prolongation_of_translation_vanishes():
    pro = second_prolongation(rigid_basis_field(1))
    for poly in (pro.phi_x, pro.phi_y, pro.phi_z, pro.phi_xx, pro.phi_xy,
                 pro.phi_xz, pro.phi_yy, pro.phi_yz, pro.phi_zz):
        assert poly.is_zero()


def test_prolongation_of_rotation():
    pro = second_prolongation(rigid_basis_field(4))
    assert pro.phi_x.is_zero()
    assert pro.phi_y == -u_z
    assert pro.phi_z == u_y


def test_prolongation_of_dilation():
    pro = second_prolongation(dilation_field())
    assert pro.phi_xx == -2 * u_xx
    assert pro.phi_yy == -2 * u_yy
    assert pro.phi_zz == -2 * u_zz


def _random_point_poly(rng, degree=2):
    total = JetPolynomial.zero()
    basis = [ONE, x, y, z, u]
    for _ in range(4):
        term = JetPolynomial.constant(Fraction(rng.randint(-3, 3)))
        for _ in range(degree):
            term = term * basis[rng.randrange(len(basis))]
        total = total + term
    return total


def test_first_order_recursion_matches_explicit_formula():
    rng = random.Random(1234)
    for _ in range(100):
        field = PointVectorField(
            _random_point_poly(rng),
            _random_point_poly(rng),
            _random_point_poly(rng),
            _random_point_poly(rng),
        )
        assert second_prolongation(field).phi_x == explicit_phi_x(field)


def test_prolongation_linearity():
    rng = random.Random(99)
    for _ in range(20):
        v = PointVectorField(*(_random_point_poly(rng) for _ in range(4)))
        w = PointVectorField(*(_random_point_poly(rng) for _ in range(4)))
        combined = PointVectorField(
            *(2 * a + 3 * b for (_, a), (_, b) in zip(v.components(), w.components()))
        )
        pro_v, pro_w, pro_c = (second_prolongation(f) for f in (v, w, combined))
        for name in ("phi_x", "phi_z", "phi_xx", "phi_yz", "phi_zz"):
            assert getattr(pro_c, name) == 2 * getattr(pro_v, name) + 3 * getattr(pro_w, name)


def test_mixed_lift_is_symmetric_in_derivative_order():
    rng = random.Random(7)
    for _ in range(20):
        v = PointVectorField(*(_random_point_poly(rng) for _ in range(4)))
        pro = second_prolongation(v)
        xi = v.xi()
        # recompute phi_xy differentiating in the opposite order
        first_y = v.phi.total_derivative("y")
        for i, direction in enumerate(("x", "y", "z")):
            first_y = first_y - xi[i].total_derivative("y") * JetPolynomial.variable(
                "u_" + direction
            )
        other = first_y.total_derivative("x")
        for i, direction in enumerate(("x", "y", "z")):
            jet = {"x": "u_xy", "y": "u_yy", "z": "u_yz"}[direction]
            other = other - xi[i].total_derivative("x") * JetPolynomial.variable(jet)
        assert other == pro.phi_xy


def test_point_field_rejects_jet_coordinates():
    with pytest.raises(ValueError):
        PointVectorField(u_x, ZERO, ZERO, ZERO)


# ---------------------------------------------------------------------------
# invariance and the defining system
# ---------------------------------------------------------------------------


def test_rigid_generators_are_symmetries():
    for i in range(1, 7):
        assert invariance_residual(rigid_basis_field(i)).is_zero()
        assert all(r.is_zero() for r in defining_equations(rigid_basis_field(i)))


def test_dilation_residuals():
    assert invariance_residual(dilation_field()) == -2 * f_atom
    residuals = defining_equations(dilation_field())
    nonzero = [
        (label, res)
        for label, res in zip(DEFINING_EQUATION_LABELS, residuals)
        if not res.is_zero()
    ]
    assert len(nonzero) == 1
    assert nonzero[0][0].startswith("lap(phi)")
    assert nonzero[0][1] == -2 * f_atom


def test_defining_zero_implies_invariance_zero_generic():
    # with a symbolic source, a vanishing defining system forces phi = 0,
    # and then the direct lifted residual vanishes as well
    rng = random.Random(5)
    for i in range(1, 7):
        field = rigid_basis_field(i)
        assert invariance_residual(field).is_zero()
    combo = PointVectorField(
        ONE + 2 * z, JetPolynomial.constant(Fraction(1, 2)) - x * 0, -2 * y * 0 + ONE, ZERO
    )
    # random rigid combinations stay symmetries
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        parts = [JetPolynomial.zero() for _ in range(4)]
        for k in range(6):
            for slot, (_, comp) in enumerate(rigid_basis_field(k + 1).components()):
                parts[slot] = parts[slot] + coeffs[k] * comp
        field = PointVectorField(*parts)
        assert all(r.is_zero() for r in defining_equations(field))
        assert invariance_residual(field).is_zero()


# ---------------------------------------------------------------------------
# admissible phi solver
# ---------------------------------------------------------------------------


def test_solve_zero_field_gives_constant_u_plus_harmonics():
    space = solve_phi_for_xi((ZERO, ZERO, ZERO), "zero", 2)
    assert space is not None
    assert space.particular[0].is_zero() and space.particular[1].is_zero()
    assert space.dimension == 10
    saw_constant_g = False
    saw_constant_h = False
    for g, h in space.basis:
        # g is constant, h harmonic
        assert g.partial("x").is_zero() and g.partial("y").is_zero() and g.partial("z").is_zero()
        lap = sum(
            (h.partial(v).partial(v) for v in ("x", "y", "z")), JetPolynomial.zero()
        )
        assert lap.is_zero()
        saw_constant_g = saw_constant_g or g == ONE
        saw_constant_h = saw_constant_h or h == ONE
    assert saw_constant_g and saw_constant_h


def test_solutions_satisfy_defining_equations_for_zero_source():
    space = solve_phi_for_xi((ZERO, ZERO, ZERO), "zero", 2)
    for g, h in space.members():
        field = field_from_phi((ZERO, ZERO, ZERO), g, h)
        residuals = [substitute_zero_source(r) for r in defining_equations(field)]
        assert all(r.is_zero() for r in residuals)
        assert substitute_zero_source(invariance_residual(field)).is_zero()


def test_solve_classical_conformal_field():
    xi = (2 * x * z, 2 * y * z, z * z - x * x - y * y)
    space = solve_phi_for_xi(xi, "zero", 2)
    assert space is not None
    assert space.gauge_fixed_g() == -z
    for g, _ in space.basis:
        assert g.partial("x").is_zero() and g.partial("y").is_zero() and g.partial("z").is_zero()


def test_solve_printed_conformal_field_is_inconsistent():
    assert solve_phi_for_xi((x * z, y * z, z * z - x * x - y * y), "zero", 2) is None


def test_solve_generic_source():
    # a translation admits only the trivial u-part for an arbitrary source
    space = solve_phi_for_xi((ZERO, ONE, ZERO), "generic", 2)
    assert space is not None
    assert space.dimension == 0
    assert space.particular[0].is_zero() and space.particular[1].is_zero()
    # the dilation is ruled out entirely
    assert solve_phi_for_xi((x, y, z), "generic", 2) is None


def test_solve_dilation_for_zero_source():
    space = solve_phi_for_xi((x, y, z), "zero", 2)
    assert space is not None
    assert space.gauge_fixed_g().is_zero()
    assert space.dimension == 10


def test_solve_validates_inputs():
    with pytest.raises(ValueError):
        solve_phi_for_xi((ZERO, ZERO, ZERO), "zero", 1)
    with pytest.raises(ValueError):
        solve_phi_for_xi((u, ZERO, ZERO), "zero", 2)


# ---------------------------------------------------------------------------
# closed-form generator family
# ---------------------------------------------------------------------------


def test_ansatz_translation_slice():
    residuals = ansatz_residuals(SymmetryAnsatz.from_coeffs(a9=1), "generic")
    assert all(r.is_zero() for r in residuals)


def test_ansatz_rotation_slice():
    residuals = ansatz_residuals(SymmetryAnsatz.from_coeffs(a4=1), "generic")
    assert all(r.is_zero() for r in residuals)


def test_ansatz_dilation_slice_fails_generic_source():
    residuals = ansatz_residuals(SymmetryAnsatz.from_coeffs(a6=1), "generic")
    nonzero = [r for r in residuals if not r.is_zero()]
    assert nonzero == [-2 * f_atom]


def test_ansatz_u_scaling_slice_fails_generic_source():
    residuals = ansatz_residuals(SymmetryAnsatz.from_coeffs(a11=1), "generic")
    nonzero = [r for r in residuals if not r.is_zero()]
    assert nonzero == [-u * f_prime]


def test_ansatz_linear_rows_hold_for_random_coefficients():
    rng = random.Random(2718)
    for _ in range(25):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(11))
        residuals = defining_equations(SymmetryAnsatz(coeffs).field())
        assert all(r.is_zero() for r in residuals[:12])


def test_ansatz_zero_mode_requires_f2():
    with pytest.raises(ValueError):
        ansatz_residuals(SymmetryAnsatz.from_coeffs(a9=1), "zero")
    residuals = ansatz_residuals(
        SymmetryAnsatz.from_coeffs(a11=1, f2=JetPolynomial.zero()), "zero"
    )
    assert all(r.is_zero() for r in residuals)


# ---------------------------------------------------------------------------
# vector-field recomputation of the bracket table
# ---------------------------------------------------------------------------


def test_vector_field_commutators_reproduce_structure_constants():
    fields = [rigid_basis_field(i) for i in range(1, 7)]
    for i in range(6):
        for j in range(6):
            lie = vf_commutator(fields[i], fields[j])
            expected = [JetPolynomial.zero() for _ in range(4)]
            for k in range(6):
                for slot, (_, comp) in enumerate(fields[k].components()):
                    expected[slot] = expected[slot] + SE3.c[i][j][k] * comp
            for (_, got), want in zip(lie.components(), expected):
                assert got == want

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3sym.jets import (
    DEFINING_EQUATION_LABELS,
    JetPolynomial,
    OrderOverflowError,
    PointVectorField,
    defining_equations,
    dilation_field,
    element_field,
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
from se3sym import jets
from se3sym.adjoint import TrigPoly
from se3sym.claims import PUBLISHED_GENERATOR_FAMILY
from se3sym.algebra import SE3, AlgebraElement, bracket
from se3sym.linalg import exact_solve
from se3sym.poly import SparsePoly

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


s_sym, C_sym, S_sym = (TrigPoly.variable(n) for n in ("s", "C", "S"))

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
    # equal objects hash equally, also a constant and its value
    assert len({p + q, q + p}) == 1
    assert len({p.constant(1), 1, Fraction(1)}) == 1
    assert len({p - p, 0}) == 1


@pytest.mark.parametrize("poly", [x + y - 2 * z, C_sym - 2 * S_sym + s_sym], ids=["jet", "trig"])
def test_power_by_squaring_equals_the_repeated_product(poly):
    # the trig case checks that squaring meets the C^2 -> 1 - S^2 rewrite
    product = poly.constant(1)
    for k in range(10):
        assert poly**k == product
        assert _in_normal_form(poly**k)
        product = product * poly


def test_huge_power_is_one_monomial():
    key = tuple(10**9 if name == "x" else 0 for name in JetPolynomial.VARIABLES)
    assert JetPolynomial.parse("x^1000000000") == JetPolynomial({key: 1})


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


def _substitute_reference(p, name, replacement):
    """Substitution on the term store: the powers of the replacement kept in
    a list, each product term added at the base monomial plus its own."""
    idx = jets.VARIABLES.index(name)
    powers = [ONE]
    out = {}
    for mono, coeff in p.terms.items():
        power = mono[idx]
        while len(powers) <= power:
            powers.append(powers[-1] * replacement)
        base = mono[:idx] + (0,) + mono[idx + 1:]
        for rmono, rcoeff in powers[power].terms.items():
            key = tuple(a + b for a, b in zip(base, rmono))
            out[key] = out.get(key, 0) + coeff * rcoeff
    return JetPolynomial(out)


def _jet_polys(max_terms):
    """Polynomials over all jet variables and atoms, exponents up to 3."""
    return st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            st.tuples(*[st.integers(min_value=0, max_value=3)] * jets.NVARS),
        ),
        max_size=max_terms,
    ).map(lambda entries: sum((JetPolynomial({m: c}) for c, m in entries), ZERO))


@settings(deadline=None)
@given(_jet_polys(6), st.sampled_from(jets.VARIABLES), _jet_polys(4))
def test_substitute_matches_the_term_store_reference(p, name, replacement):
    """Powers of 2 and 3 matter here: the on-shell step meets u_zz linearly."""
    assert p.substitute(name, replacement) == _substitute_reference(p, name, replacement)


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


@given(trig_polys)
def test_trig_parser_round_trip_random(p):
    assert TrigPoly.parse(str(p)) == p


def test_both_rings_read_with_the_core_parser():
    assert JetPolynomial.parse.__func__ is SparsePoly.parse.__func__
    assert TrigPoly.parse.__func__ is SparsePoly.parse.__func__
    assert not hasattr(jets, "re")


@pytest.mark.parametrize("text", ["x**2", "2**3", "*x", "x - * y"])
def test_parser_rejects_a_star_where_a_factor_is_expected(text):
    with pytest.raises(ValueError, match="where a factor is expected"):
        JetPolynomial.parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty polynomial text"),
        (" \t ", "empty polynomial text"),
        ("x + #", "cannot read polynomial near ' #'"),
        ("sin(x)", "cannot read polynomial near '(x)'"),
        ("_x", "cannot read polynomial near '_x'"),
        ("* x", "'*' where a factor is expected in polynomial text"),
        # a run of letters is one name, reported whole where it is no variable
        ("xy", "unexpected token 'xy' in polynomial text"),
        ("u_yx", "unexpected token 'u_yx' in polynomial text"),
        ("u_", "unexpected token 'u_' in polynomial text"),
        ("f'''", "unexpected token \"f'''\" in polynomial text"),
        ("2^3", "unexpected token '^' in polynomial text"),
        ("x/2", "unexpected token '/' in polynomial text"),
        ("x^y", "unexpected token '^' in polynomial text"),
        ("x - - y", "unexpected token '-' in polynomial text"),
        ("2 x", "missing '*' before 'x' in polynomial text"),
        ("x2", "missing '*' before '2' in polynomial text"),
        ("1/0", "zero denominator in 1/0"),
        ("3/00*x", "zero denominator in 3/00"),
        ("x +", "polynomial text ends a term without a factor"),
        ("+", "polynomial text ends a term without a factor"),
        ("x*", "polynomial text ends a term without a factor"),
    ],
)
def test_parser_rejects_each_fault_by_its_message(text, message):
    with pytest.raises(ValueError) as info:
        JetPolynomial.parse(text)
    assert str(info.value) == message


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


def explicit_phi_x(v):
    """First-order lift written out directly, a cross-check oracle:
    -u_x (d_x + u_x d_u) xi1 - u_y (d_x + u_x d_u) xi2
    - u_z (d_x + u_x d_u) xi3 + (d_x + u_x d_u) phi.
    """
    op = lambda p: p.partial("x") + u_x * p.partial("u")
    return -u_x * op(v.xi1) - u_y * op(v.xi2) - u_z * op(v.xi3) + op(v.phi)


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


# point polynomials of total degree <= 2 in x, y, z, u
quadratic_point_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.sampled_from(
            [
                x**a * y**b * z**c * u**d
                for a in range(3)
                for b in range(3)
                for c in range(3)
                for d in range(3)
                if a + b + c + d <= 2
            ]
        ),
    ),
    max_size=4,
).map(lambda entries: sum((c * m for c, m in entries), JetPolynomial.zero()))


@settings(deadline=None, max_examples=150)
@given(st.tuples(*[quadratic_point_polys] * 4))
def test_residual_is_the_on_shell_diagonal_of_the_prolongation(components):
    v = PointVectorField(*components)
    pro = second_prolongation(v)
    expected = reduce_on_shell(pro.phi_xx + pro.phi_yy + pro.phi_zz - v.phi * f_prime)
    assert invariance_residual(v) == expected


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
    for g, h in [space.particular, *space.basis]:
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


# xi -> consistent in the zero-source mode, in the generic mode
PHI_CASES = [(f"rigid_{i}", rigid_basis_field(i).xi(), True, True) for i in range(1, 7)] + [
    ("dilation", (x, y, z), True, False),
    ("conformal_z", (2 * x * z, 2 * y * z, z * z - x * x - y * y), True, False),
    ("conformal_x", (x * x - y * y - z * z, 2 * x * y, 2 * x * z), True, False),
    ("printed_conformal", (x * z, y * z, z * z - x * x - y * y), False, False),
    ("not_conformal", (x * x, ZERO, y), False, False),
]


@pytest.mark.parametrize("cap", (2, 3, 4, 5))
@pytest.mark.parametrize("f_mode", ("zero", "generic"))
def test_cached_phi_system_members_solve_the_defining_rows(f_mode, cap):
    for label, xi, zero_ok, generic_ok in PHI_CASES:
        space = solve_phi_for_xi(xi, f_mode, cap)
        assert (space is not None) == (zero_ok if f_mode == "zero" else generic_ok), label
        assert solve_phi_for_xi(xi, f_mode, cap) == space
        if space is None:
            continue
        g0, h0 = space.particular
        for g, h in [(g0, h0)] + [(g0 + dg, h0 + dh) for dg, dh in space.basis]:
            rows = defining_equations(field_from_phi(xi, g, h))[4:13]
            if f_mode == "zero":
                rows = [substitute_zero_source(r) for r in rows]
            assert all(r.is_zero() for r in rows), label


def _direct_phi_rows(monomials, f_mode):
    """Every row (equation, monomial) of the phi-system, one per monomial of
    degree <= cap, built as one matrix: the reference for the block solver."""
    units = [JetPolynomial({m: Fraction(1)}) for m in monomials]
    lap = lambda p: sum((p.partial(v).partial(v) for v in "xyz"), ZERO)
    ops = [(lambda p, v=v: 2 * p.partial(v), None) for v in "xyz"] + [(lap, None), (None, lap)]
    if f_mode == "generic":
        ops += [(lambda p: p, None), (None, lambda p: p)]
    rows = {}
    for index, (op_g, op_h) in enumerate(ops):
        images = [op_g(p) if op_g else ZERO for p in units] + [op_h(p) if op_h else ZERO for p in units]
        for mono in monomials:
            rows[(index, mono)] = [image.terms.get(mono, 0) for image in images]
    return rows


@pytest.mark.parametrize("cap", (2, 3))
@pytest.mark.parametrize("f_mode", ("zero", "generic"))
def test_cached_phi_system_equals_direct_solve(f_mode, cap):
    """The block solver against exact_solve on the whole system, for random
    right-hand sides: sparse ones (mostly not gradients, some over the cap)
    and gradients of harmonic polynomials, some of degree cap + 1, some
    plus a non-harmonic monomial."""
    monomials = jets._space_monomials(cap)
    rows = _direct_phi_rows(monomials, f_mode)
    keys = list(rows)
    harmonic = jets._harmonic_basis(cap)
    assert harmonic is jets._harmonic_basis(cap)

    def unpack(vec):
        g = JetPolynomial(dict(zip(monomials, vec[: len(monomials)])))
        h = JetPolynomial(dict(zip(monomials, vec[len(monomials):])))
        return g, h

    rnd = random.Random(cap)
    outcomes = set()
    for trial in range(60):
        if trial % 3 == 2:
            members = jets._harmonic_basis(cap + 1) if trial % 9 == 8 else harmonic
            g = sum((Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) * p for p in members), ZERO)
            if trial % 2:
                g = g + JetPolynomial({rnd.choice(monomials): 1})
            sides = [2 * g.partial(v) for v in "xyz"]
        else:
            sides = [ZERO, ZERO, ZERO]
            for _ in range(rnd.randint(0, 4)):
                index, mono = rnd.choice(keys)
                if index < 3 and (sum(mono) < cap or trial % 4 == 0):
                    value = Fraction(rnd.randint(-5, 5) or 1, rnd.randint(1, 4))
                    sides[index] = sides[index] + JetPolynomial({mono: value})
        rhs = [sides[index].terms.get(mono, 0) if index < 3 else 0 for index, mono in keys]
        direct = exact_solve(list(rows.values()), rhs)
        space = jets._solve_phi_blocks(sides, f_mode, cap)
        assert (space is None) == (direct is None)
        if direct is not None:
            assert space.particular == unpack(direct[0])
            assert space.basis == tuple(unpack(v) for v in direct[1])
        outcomes.add(direct is None)
    assert outcomes == {True, False}


def test_solve_rejects_non_integer_caps_before_the_cache():
    before = jets._harmonic_basis.cache_info()
    for cap in (2.0, True, 2.5, "2"):
        with pytest.raises(ValueError):
            solve_phi_for_xi((ZERO, ZERO, ZERO), "zero", cap)
    assert jets._harmonic_basis.cache_info() == before


# ---------------------------------------------------------------------------
# closed-form generator family
# ---------------------------------------------------------------------------


FAMILY = {
    label: PointVectorField.parse(";".join(components))
    for label, *components in PUBLISHED_GENERATOR_FAMILY
}


def _nonzero_residuals(label):
    return [r for r in defining_equations(FAMILY[label]) if not r.is_zero()]


def test_ansatz_translation_slice():
    for axis in ("x", "y", "z"):
        assert _nonzero_residuals(f"translation_{axis}") == []


def test_ansatz_rotation_slice():
    for plane in ("yz", "xz", "xy"):
        assert _nonzero_residuals(f"rotation_{plane}") == []


def test_ansatz_dilation_slice_fails_generic_source():
    assert _nonzero_residuals("dilation") == [-2 * f_atom]


def test_ansatz_u_scaling_slice_fails_generic_source():
    assert _nonzero_residuals("u_scaling") == [-u * f_prime]


def test_defining_equations_are_linear_over_the_family():
    """The premise of the family claim: the residuals of a combination of
    the eleven members are the same combination of their residuals."""
    rng = random.Random(2718)
    members = list(FAMILY.values())
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in members]
        parts = [JetPolynomial.zero()] * 4
        expected = [JetPolynomial.zero()] * 13
        for c, member in zip(coeffs, members):
            parts = [p + c * comp for p, (_, comp) in zip(parts, member.components())]
            expected = [e + c * r for e, r in zip(expected, defining_equations(member))]
        assert defining_equations(PointVectorField(*parts)) == expected


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
                    expected[slot] = expected[slot] + SE3[i][j][k] * comp
            for (_, got), want in zip(lie.components(), expected):
                assert got == want


def test_element_field_of_the_basis_is_the_rigid_motion_table():
    zero = JetPolynomial.zero()
    table = [(ONE, zero, zero), (zero, ONE, zero), (zero, zero, ONE), (zero, -z, y), (z, zero, -x), (-y, x, zero)]
    for k, xi in enumerate(table, start=1):
        assert rigid_basis_field(k) == PointVectorField(*xi, zero)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exact_elements = st.lists(small_fractions, min_size=6, max_size=6).map(AlgebraElement.exact)


@given(exact_elements, exact_elements)
def test_element_field_carries_the_bracket_to_the_field_bracket(a, b):
    # the commutator-table claim checks the 36 basis pairs; these are elements
    # off the basis
    assert vf_commutator(element_field(a), element_field(b)) == element_field(bracket(a, b))

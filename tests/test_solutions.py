import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se3sym.algebra import AlgebraElement, X1, X4, X6
from se3sym.claims import claims_report
from se3sym.solutions import (
    FLOW_POINTS,
    FLOW_S_GRID,
    SAMPLE_BLOCK,
    SOLUTION_PARAMETERS,
    FlowError,
    OutsideBoxError,
    ScalarField,
    SourceTerm,
    builtin_fields,
    check_solutions,
    flow,
    flow_vs_closed_form,
    pde_residual,
    rigid_motion,
    transform_solution,
    verify_invariance,
)

FIELDS = builtin_fields()


def flow_one(element, s, p):
    """flow of one element from one point, as a one-row batch."""
    return flow([element.as_array()], [s], [p])


def test_flow_of_translation():
    end = flow_one(X1, 0.37, (0.1, 0.2, 0.3)).endpoint[0]
    assert np.allclose(end, (0.47, 0.2, 0.3), atol=1e-12)


def test_flow_of_rotation_quarter_turn():
    end = flow_one(X4, math.pi / 2, (0.0, 1.0, 0.0)).endpoint[0]
    assert np.allclose(end, (0.0, 0.0, 1.0), atol=1e-8)


def test_flow_zero_parameter():
    for i, gen in enumerate((X1, X4, X6)):
        assert tuple(flow_one(gen, 0.0, (0.3, -0.2, 0.5)).endpoint[0]) == (0.3, -0.2, 0.5)


def test_flow_reversibility():
    rng = np.random.default_rng(3)
    element = AlgebraElement.numeric(rng.standard_normal(6))
    p = (0.2, -0.4, 0.1)
    forward = flow_one(element, 0.9, p).endpoint[0]
    back = flow_one(element, -0.9, forward).endpoint[0]
    assert np.abs(back - np.array(p)).max() < 1e-8


def test_rotation_flow_preserves_radius():
    p = (0.3, 0.4, 0.5)
    r0 = sum(t * t for t in p)
    for k in (4, 5, 6):
        gen = AlgebraElement.numeric([0] * (k - 1) + [1] + [0] * (6 - k))
        for s in (-1.0, 0.5, 1.0):
            q = flow_one(gen, s, p).endpoint[0]
            assert abs(sum(t * t for t in q) - r0) < 1e-8


def test_flow_result_metadata():
    result = flow_one(X1, 0.25, (0.0, 0.0, 0.0))
    assert result.steps == 250
    assert result.endpoint.shape == (1, 3)


def test_transform_translation_values():
    h = FIELDS["r2"]
    moved = transform_solution(2, 0.5, h)
    assert moved(0.1, 0.2, 0.3) == pytest.approx(0.1**2 + 0.7**2 + 0.3**2, abs=1e-15)


def test_transform_rotation_fixes_radial_field():
    h = FIELDS["r2"]
    for s in (0.3, -1.2):
        moved = transform_solution(4, s, h)
        for p in ((0.1, 0.5, -0.3), (0.0, 0.0, 0.9)):
            assert moved(*p) == pytest.approx(h(*p), abs=1e-12)


def test_transform_exponential_closed_form():
    s = 0.77
    moved = transform_solution(6, s, FIELDS["exp_x"])
    for p in ((0.2, -0.4, 0.6), (0.0, 0.9, 0.0)):
        expected = math.exp(p[0] * math.cos(s) - p[1] * math.sin(s))
        assert moved(*p) == pytest.approx(expected, abs=1e-14)


def test_transform_group_law_pointwise():
    rng = np.random.default_rng(8)
    h = FIELDS["exp_x"]
    for k in range(1, 7):
        s, t = 0.4, -0.9
        once = transform_solution(k, s + t, h)
        twice = transform_solution(k, s, transform_solution(k, t, h))
        for _ in range(100):
            p = tuple(rng.uniform(-0.8, 0.8, 3))
            assert abs(once(*p) - twice(*p)) < 1e-12


def test_transform_inverse_law_pointwise():
    rng = np.random.default_rng(9)
    h = FIELDS["x2_minus_y2"]
    for k in range(1, 7):
        round_trip = transform_solution(k, -0.6, transform_solution(k, 0.6, h))
        for _ in range(100):
            p = tuple(rng.uniform(-0.8, 0.8, 3))
            assert abs(round_trip(*p) - h(*p)) < 1e-12


def test_pde_residual_examples():
    r2 = FIELDS["r2"]
    assert abs(pde_residual(r2, r2.source, (0.1, 0.2, 0.3), 1e-3)) < 1e-8
    exp_x = FIELDS["exp_x"]
    assert abs(pde_residual(exp_x, exp_x.source, (0.0, 0.0, 0.0), 1e-3)) < 1e-6
    xy = FIELDS["xy"]
    assert abs(pde_residual(xy, xy.source, (0.2, -0.3, 0.4), 1e-3)) < 1e-9


def test_pde_residual_outside_box():
    r2 = FIELDS["r2"]
    with pytest.raises(OutsideBoxError):
        pde_residual(r2, r2.source, (0.9999, 0.0, 0.0), 1e-3)
    with pytest.raises(ValueError):
        pde_residual(r2, r2.source, (0.0, 0.0, 0.0), 0.0)


def test_pde_residual_second_order_convergence():
    exp_x = FIELDS["exp_x"]
    coarse = abs(pde_residual(exp_x, exp_x.source, (0.0, 0.0, 0.0), 4e-3))
    fine = abs(pde_residual(exp_x, exp_x.source, (0.0, 0.0, 0.0), 2e-3))
    assert 3.5 <= coarse / fine <= 4.5


def test_verify_invariance_families():
    for name, field in FIELDS.items():
        for k in (1, 4, 6):
            worst = verify_invariance(field, field.source, k, 0.3, 50, 42)
            assert worst <= 1e-6, (name, k, worst)


def test_verify_invariance_translated_harmonic():
    h = FIELDS["x2_minus_y2"]
    assert verify_invariance(h, h.source, 1, 2.0, 100, 42) <= 1e-6


def test_flow_vs_closed_form_all_generators():
    s_grid = np.linspace(-1, 1, 9)
    points = [(0.3, 0.4, 0.5), (-0.2, 0.7, -0.1), (0.0, 0.0, 0.0)]
    for k in range(1, 7):
        assert flow_vs_closed_form(k, s_grid, points) <= 1e-8


def test_flow_vs_closed_form_of_several_generators_is_the_maximum_of_each():
    s_grid = np.linspace(-1, 1, 9)
    points = [(0.3, 0.4, 0.5), (-0.2, 0.7, -0.1), (0.05, -0.6, 0.3)]
    for ks in ([4], [6, 2, 5], range(1, 7)):
        expected = max(flow_vs_closed_form(k, s_grid, points) for k in ks)
        assert flow_vs_closed_form(ks, s_grid, points) == expected
    with pytest.raises(ValueError):
        flow_vs_closed_form([1, 7], s_grid, points)


def test_source_terms():
    assert SourceTerm("zero")(3.0) == 0.0
    assert SourceTerm("constant", 6.0)(-1.0) == 6.0
    assert SourceTerm("linear")(2.5) == 2.5


def test_custom_field_round_trip():
    field = ScalarField(lambda px, py, pz: px + pz, SourceTerm("zero"))
    assert abs(pde_residual(field, field.source, (0.1, 0.1, 0.1), 1e-3)) < 1e-9


def test_constant_field_has_zero_residual_at_a_point_and_on_rows():
    field = ScalarField(lambda px, py, pz: 2.5, SourceTerm("zero"))
    assert pde_residual(field, field.source, (0.1, 0.2, 0.3), 1e-3) == 0.0
    rows = pde_residual(field, field.source, np.zeros((4, 3)), 1e-3)
    assert rows.shape == (4,) and not rows.any()


# ---------------------------------------------------------------------------
# the array stencil against the literal per-point stencil
# ---------------------------------------------------------------------------

_FAMILIES = {
    "xy": (lambda x, y, z: x * y, lambda u: 0.0),
    "x2_minus_y2": (lambda x, y, z: x * x - y * y, lambda u: 0.0),
    "r2": (lambda x, y, z: x * x + y * y + z * z, lambda u: 6.0),
    "exp_x": (lambda x, y, z: math.exp(x), lambda u: u),
}

# Every stencil value of the transported families lies below 8 on the
# sampling box.  math.exp and np.exp are each within one ulp, so the twelve
# weighted inputs of the stencil sum differ by at most 2 ulp(8) each, and
# each of its seven roundings (partial sums below 32) by at most
# 1 ulp(32) = 4 ulp(8): 52 ulp(8) in all, rounded up to 64.
EXP_STENCIL_BOUND = 64 * 2.0**-50 / 1e-3**2


def _literal_residual(name, k, s, p, step):
    """Oracle: the per-point stencil in plain floats with math.exp and one
    closed-form coordinate map per generator (cos and sin of the angle are
    taken as rigid_motion takes them, so only exp can differ)."""
    c, sn = float(np.cos(s)), float(np.sin(s))
    maps = {
        1: lambda x, y, z: (x + s, y, z),
        2: lambda x, y, z: (x, y + s, z),
        3: lambda x, y, z: (x, y, z + s),
        4: lambda x, y, z: (x, y * c - z * sn, z * c + y * sn),
        5: lambda x, y, z: (x * c + z * sn, y, z * c - x * sn),
        6: lambda x, y, z: (x * c - y * sn, x * sn + y * c, z),
    }
    field, source = _FAMILIES[name]

    def h(x, y, z):
        return field(*maps[k](x, y, z))

    px, py, pz = (float(t) for t in p)
    center = h(px, py, pz)
    lap = (
        h(px + step, py, pz) + h(px - step, py, pz)
        + h(px, py + step, pz) + h(px, py - step, pz)
        + h(px, py, pz + step) + h(px, py, pz - step)
        - 6.0 * center
    ) / (step * step)
    return lap - source(center)


def test_array_residual_rows_equal_point_calls_bit_for_bit():
    points = np.random.default_rng(11).uniform(-0.9, 0.9, size=(257, 3))
    for name, field in FIELDS.items():
        for k in (1, 5, 6):
            moved = transform_solution(k, -0.7, field)
            batch = pde_residual(moved, field.source, points, 1e-3)
            assert batch.shape == (257,)
            for i in range(0, 257, 16):
                single = pde_residual(moved, field.source, tuple(points[i]), 1e-3)
                assert type(single) is float and single == batch[i], (name, k, i)


def test_array_stencil_matches_the_literal_stencil():
    points = np.random.default_rng(12).uniform(-0.9, 0.9, size=(64, 3))
    for name, field in FIELDS.items():
        for k in range(1, 7):
            for s in SOLUTION_PARAMETERS:
                got = pde_residual(transform_solution(k, s, field), field.source, points, 1e-3)
                want = np.array([_literal_residual(name, k, s, p, 1e-3) for p in points])
                if name == "exp_x":
                    assert np.abs(got - want).max() <= EXP_STENCIL_BOUND, (k, s)
                else:
                    assert np.array_equal(got, want), (name, k, s)


def test_blocked_draws_equal_one_draw():
    samples = 2 * SAMPLE_BLOCK + 37
    points = np.random.default_rng(6).uniform(-0.9, 0.9, size=(samples, 3))
    # h = -|q - c|^4 / 20 has laplacian -|q - c|^2 (central differences add
    # only a constant for a quartic), so against the source -16 the residual
    # of g6(-0.7).h is 16 - |q - c|^2 at the moved point q: largest, by far
    # more than rounding, where q = c, the image of the last drawn row
    c = rigid_motion(6, -0.7, *points[-1])

    def bowl(px, py, pz):
        d2 = (px - c[0]) * (px - c[0]) + (py - c[1]) * (py - c[1]) + (pz - c[2]) * (pz - c[2])
        return -d2 * d2 / 20

    field = ScalarField(bowl, SourceTerm("constant", -16.0))
    rows = np.abs(pde_residual(transform_solution(6, -0.7, field), field.source, points, 1e-3))
    # the largest residual lies past the first block, so later blocks count
    assert rows.argmax() == samples - 1
    assert rows[-1] - np.delete(rows, -1).max() > 1e-6
    for n in (SAMPLE_BLOCK, SAMPLE_BLOCK + 1, samples):
        assert verify_invariance(field, field.source, 6, -0.7, n, 6) == rows[:n].max()


def test_verify_invariance_memory_does_not_grow_with_samples():
    """A (200000, 3) draw alone is 4.8 MB, and evaluating it point by point
    peaked at 5.5 MB under tracemalloc; blocks of SAMPLE_BLOCK rows peak
    near 0.4 MB."""
    h = FIELDS["exp_x"]
    verify_invariance(h, h.source, 4, 0.3, 10, 42)
    tracemalloc.start()
    try:
        verify_invariance(h, h.source, 4, 0.3, 200_000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_residual_box_check_names_the_first_outside_row():
    r2 = FIELDS["r2"]
    points = np.array([[0.0, 0.0, 0.0], [0.1, -0.9995, 0.2], [0.9999, 0.0, 0.0]])
    with pytest.raises(OutsideBoxError, match=r"\(0\.1, -0\.9995, 0\.2\)"):
        pde_residual(r2, r2.source, points, 1e-3)


def test_rigid_motion_on_arrays_equals_rows():
    s = np.array([-0.7, 0.0, 0.3])
    p = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, 0.6], [0.7, -0.8, 0.9]])
    for k in range(1, 7):
        rows = np.column_stack(rigid_motion(k, s, *p.T))
        for i in range(3):
            assert tuple(rows[i]) == rigid_motion(k, s[i], *p[i])
    with pytest.raises(ValueError, match="out of range"):
        rigid_motion(7, 0.1, 0.0, 0.0, 0.0)


def test_verify_invariance_reports_a_nan_residual():
    field = ScalarField(lambda px, py, pz: np.where(px > 0.5, np.nan, px), SourceTerm("zero"))
    assert math.isnan(verify_invariance(field, field.source, 1, 0.0, 2 * SAMPLE_BLOCK, 1))


def test_verify_invariance_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        verify_invariance(FIELDS["xy"], FIELDS["xy"].source, 1, 0.3, -1, 42)


# ---------------------------------------------------------------------------
# the step-matrix propagator against the literal step-by-step integrator
# ---------------------------------------------------------------------------


def _rk4_loop(coeffs, s, p, step=1e-3):
    """Oracle: n literal RK4 steps, one stage at a time, in plain floats."""
    v1, v2, v3, w1, w2, w3 = (float(c) for c in coeffs)

    def velocity(px, py, pz):
        return (v1 + w2 * pz - w3 * py, v2 + w3 * px - w1 * pz, v3 + w1 * py - w2 * px)

    n = max(1, math.ceil(abs(s) / step))
    h = s / n
    px, py, pz = (float(t) for t in p)
    for _ in range(n):
        a1, a2, a3 = velocity(px, py, pz)
        b1, b2, b3 = velocity(px + 0.5 * h * a1, py + 0.5 * h * a2, pz + 0.5 * h * a3)
        c1, c2, c3 = velocity(px + 0.5 * h * b1, py + 0.5 * h * b2, pz + 0.5 * h * b3)
        d1, d2, d3 = velocity(px + h * c1, py + h * c2, pz + h * c3)
        px += (h / 6.0) * (a1 + 2 * b1 + 2 * c1 + d1)
        py += (h / 6.0) * (a2 + 2 * b2 + 2 * c2 + d2)
        pz += (h / 6.0) * (a3 + 2 * b3 + 2 * c3 + d3)
    return np.array((px, py, pz))


coordinates = st.lists(st.floats(-10, 10), min_size=6, max_size=6)
parameters = st.floats(-2, 2)
box_points = st.lists(st.floats(-1, 1), min_size=3, max_size=3)


@settings(deadline=None, max_examples=60)
@given(coordinates, parameters, box_points)
def test_propagator_matches_the_step_loop(coeffs, s, p):
    want = _rk4_loop(coeffs, s, p)
    got = flow([coeffs], [s], [p]).endpoint[0]
    assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def _seeded_rows(count, seed):
    """count rows drawn as the strategies above draw them, from one seed."""
    rng = np.random.default_rng(seed)
    coords, s = rng.uniform(-10, 10, (count, 6)), rng.uniform(-2, 2, count)
    points = rng.uniform(-1, 1, (count, 3))
    return [(list(c), float(t), list(p)) for c, t, p in zip(coords, s, points)]


# the strategy stops at 12 rows, and matmul may pick other kernels for
# larger stacks: one batch of 2000 rows checks those too
@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(coordinates, parameters, box_points), min_size=1, max_size=12))
@example(_seeded_rows(2000, 39))
def test_batch_rows_equal_single_flows_bit_for_bit(rows):
    coords = np.array([r[0] for r in rows])
    s = np.array([r[1] for r in rows])
    points = np.array([r[2] for r in rows])
    batch = flow(coords, s, points)
    assert batch.endpoint.shape == (len(rows), 3)
    for i in range(len(rows)):
        single = flow(coords[i : i + 1], s[i : i + 1], points[i : i + 1])
        assert tuple(single.endpoint[0]) == tuple(batch.endpoint[i])


@settings(deadline=None)
@given(st.lists(st.floats(-1e100, 1e100), min_size=6, max_size=6), box_points)
def test_zero_parameter_is_the_identity(coeffs, p):
    assert tuple(flow([coeffs], [0.0], [p]).endpoint[0]) == tuple(p)


def test_steps_sum_over_rows():
    s = np.array([0.0, 0.25, -1.0, 1e-4])
    coords, points = np.tile(X4.as_array(), (4, 1)), np.tile((0.1, 0.2, 0.3), (4, 1))
    assert flow(coords, s, points).steps == 1 + 250 + 1000 + 1
    # the claims grid: six generators x nine parameters x three points
    coords = np.repeat(np.eye(6), len(FLOW_S_GRID) * len(FLOW_POINTS), axis=0)
    s_rows = np.tile(np.repeat(FLOW_S_GRID, len(FLOW_POINTS)), 6)
    p_rows = np.tile(np.array(FLOW_POINTS), (6 * len(FLOW_S_GRID), 1))
    assert flow(coords, s_rows, p_rows).steps == 90_018


def test_one_element_over_many_rows_equals_one_row_calls():
    s = np.linspace(-1, 1, 5)
    coords, points = np.tile(X6.as_array(), (5, 1)), np.tile((0.3, 0.4, 0.5), (5, 1))
    batch = flow(coords, s, points).endpoint
    assert batch.shape == (5, 3)
    for i, si in enumerate(s):
        assert tuple(batch[i]) == tuple(flow_one(X6, si, (0.3, 0.4, 0.5)).endpoint[0])


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_flow_rejects_non_finite_parameter(s):
    with pytest.raises(ValueError, match="s must be finite"):
        flow_one(X1, s, (0.0, 0.0, 0.0))


def test_flow_rejects_non_finite_element_and_point():
    with pytest.raises(ValueError, match="coords must be finite"):
        flow([[1.0, 0, 0, 0, 0, math.nan]], [0.5], [(0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="points must be finite"):
        flow_one(X1, 0.5, (0.0, math.inf, 0.0))
    with pytest.raises(ValueError, match=r"points \(m, 3\)"):
        flow_one(X1, 0.5, (0.0, 0.0))


ROW = ([[1.0, 0, 0, 0, 0, 0]], [0.5], [[0.1, 0.2, 0.3]])


@pytest.mark.parametrize(
    "coords, s, points",
    [
        (ROW[0] * 2, ROW[1], ROW[2]),  # row counts differ
        (ROW[0], ROW[1] * 2, ROW[2]),
        (ROW[0], ROW[1], ROW[2] * 2),
        ([[1.0, 0, 0, 0, 0]], ROW[1], ROW[2]),  # widths other than 6 and 3
        (ROW[0], ROW[1], [[0.1, 0.2, 0.3, 0.4]]),
        (ROW[0], 0.5, ROW[2]),  # a 0-d s
        (ROW[0], [ROW[1]], ROW[2]),  # a 2-d s
        (ROW[0][0], ROW[1], ROW[2]),  # a single element or point, not a row
        (ROW[0], ROW[1], ROW[2][0]),
    ],  # non-finite entries: the two tests above
)
def test_flow_contract_violations_are_value_errors(coords, s, points):
    assert flow(*ROW).endpoint.shape == (1, 3)
    with pytest.raises(ValueError):
        flow(coords, s, points)


def test_huge_parameter_returns_in_log_time():
    element = AlgebraElement.numeric([1, 2, 3, 0.4, 0.5, 0.6])
    start = time.perf_counter()
    result = flow_one(element, 1e9, (0.1, 0.2, 0.3))
    assert time.perf_counter() - start < 0.5
    assert result.steps == 10**12
    assert np.isfinite(result.endpoint).all()


def test_step_count_beyond_the_limit_is_a_value_error():
    start = time.perf_counter()
    for s in (1e300, -1e300, 1e20):
        with pytest.raises(ValueError, match="steps"):
            flow_one(X1, s, (0.0, 0.0, 0.0))
    assert time.perf_counter() - start < 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "coeffs, s",
    [
        # h|w| = 100 per step: the RK4 step map is unstable and the state overflows
        pytest.param([1, 2, 3, 1e5, 1e5, 1e5], 1e3, id="unstable-step"),
        # the powers of h A inside one step overflow
        pytest.param([1e200] * 6, 1.0, id="huge-screw"),
        pytest.param([0, 0, 0, 1e200, 1e200, 1e200], 1.0, id="huge-rotation"),
    ],
)
def test_non_finite_endpoint_is_a_flow_error(coeffs, s):
    with pytest.raises(FlowError):
        flow_one(AlgebraElement.numeric(coeffs), s, (0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# the solution-transformation experiment
# ---------------------------------------------------------------------------


def test_check_solutions_matches_the_claim():
    checks = check_solutions(40, 7)
    assert checks.holds()
    evidence = {c.claim_id: c.evidence for c in claims_report(samples=1000, seed=7).claims}[
        "solution-transformations"
    ]
    assert evidence["max_residual_by_family"] == checks.family_max()
    assert evidence["flow_vs_closed_form_max_error"] == checks.flow_error
    assert evidence["second_order_convergence_ratio"] == checks.convergence_ratio


def test_check_solutions_one_family():
    checks = check_solutions(10, 3, ["xy"])
    assert list(checks.residuals) == ["xy"]
    assert sorted(checks.residuals["xy"]) == [1, 2, 3, 4, 5, 6]

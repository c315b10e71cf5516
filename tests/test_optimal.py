import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from se3sym.algebra import (
    BASIS,
    DIM,
    AlgebraElement,
    SubalgebraBasis,
    X1,
    X2,
    X3,
    X4,
    X5,
    X6,
    bracket,
    closure_check,
    in_span,
)
from se3sym.adjoint import AdjointWord, apply_word, automorphism_defect
from se3sym import optimal
from se3sym.optimal import (
    CASE_ALLOWED,
    CASE_TAGS,
    canonicalize_screw,
    classify_1d_many,
    classify_1d_paper,
    equivalence_search,
    _SLICE,
    _floor,
    _residuals,
    diagonal_quadrics,
    frobenius_quadrics,
    hyperplane_certificate,
    hyperplane_scan,
    pitch_of,
    proportionality_scale,
    verify_2d_list,
    verify_3d_4d,
)

A_GRID = (-2, 0, 1, 3)


def _max_disallowed(rep):
    allowed = CASE_ALLOWED[rep.case_tag]
    return max(
        abs(rep.representative.coeffs[i - 1]) for i in range(1, 7) if i not in allowed
    )


def _word_reproduces(rep, element):
    mapped = rep.scale * apply_word(rep.word, element.to_float())
    return np.abs(mapped.as_array() - rep.representative.as_array()).max()


# ---------------------------------------------------------------------------
# screws
# ---------------------------------------------------------------------------


def test_screw_examples():
    form = canonicalize_screw(X6.to_float())
    assert form.kind == "screw" and abs(form.pitch) < 1e-15

    form = canonicalize_screw(AlgebraElement.numeric([1, 0, 0, 2, 0, 0]))
    assert form.kind == "screw"
    assert abs(form.pitch - 0.5) < 1e-12

    form = canonicalize_screw(AlgebraElement.numeric([0, 5, 0, 0, 0, 0]))
    assert form.kind == "translation" and form.pitch is None


def test_screw_word_reproduces_canonical():
    rng = np.random.default_rng(29)
    for _ in range(400):
        element = AlgebraElement.numeric(rng.standard_normal(6))
        form = canonicalize_screw(element)
        mapped = form.scale * apply_word(form.word, element)
        residual = np.abs(mapped.as_array() - form.canonical_element().as_array()).max()
        assert residual < 1e-9
        # pitch of the canonical element agrees with the input pitch
        if form.kind == "screw":
            assert abs(pitch_of(mapped) - form.pitch) < 1e-9


def test_screw_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize_screw(AlgebraElement.numeric([0.0] * 6))


# ---------------------------------------------------------------------------
# seven-case normalization
# ---------------------------------------------------------------------------


def test_classify_pure_rotation_axis_aligned():
    rep = classify_1d_paper(AlgebraElement.exact([0, 0, 0, 0, 0, 2]))
    assert rep.case_tag == "A11"
    assert rep.word.steps == ()
    assert rep.scale == 0.5
    assert not rep.fallback
    assert np.allclose(rep.representative.as_array(), [0, 0, 0, 0, 0, 1])


def test_classify_two_translation_case_needs_fallback():
    element = AlgebraElement.exact([1, 0, 0, 3, 1, 2])
    rep = classify_1d_paper(element)
    assert rep.case_tag == "A14"
    assert rep.fallback
    assert abs(rep.b - 14 / 3) < 1e-12
    assert _max_disallowed(rep) < 1e-9
    assert _word_reproduces(rep, element) < 1e-9


def test_classify_rotation_about_x_lands_on_axis_rotation():
    rep = classify_1d_paper(X4)
    assert rep.case_tag == "A11"
    assert rep.fallback
    assert np.allclose(rep.representative.as_array(), [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_classify_recipe_success_in_plane_case():
    # translation mixed with an axis rotation: the printed recipe works
    element = AlgebraElement.exact([1, 2, 0, 0, 0, 3])
    rep = classify_1d_paper(element)
    assert rep.case_tag == "A15"
    assert not rep.fallback
    assert rep.word.steps == ((1, 1.5),)
    assert abs(rep.a + 2.5) < 1e-12
    assert abs(rep.b - 3.0) < 1e-12


def test_classify_in_pattern_case_with_undefined_recipe():
    element = AlgebraElement.exact([1, 0, 2, 5, 0, 0])
    rep = classify_1d_paper(element)
    assert rep.case_tag == "A16"
    assert rep.fallback  # recipe divides by a vanishing coordinate
    assert rep.word.steps == ()
    assert rep.a == 2.0 and rep.b == 5.0


def test_classify_zero_pitch_mixed_element():
    # nonzero translation orthogonal to the rotation axis: reduces to A11
    element = AlgebraElement.exact([1, 0, 0, 0, 0, 1])
    rep = classify_1d_paper(element)
    assert rep.case_tag == "A11"
    assert rep.fallback
    assert _max_disallowed(rep) < 1e-9


def test_classify_rejects_zero():
    for zero in (AlgebraElement.exact([0] * 6), AlgebraElement.numeric([0.0] * 6)):
        with pytest.raises(ValueError, match="zero element"):
            classify_1d_paper(zero)


@pytest.fixture
def pattern_checks(monkeypatch):
    """The row counts of every _normalize_to_case call, in order."""
    counts = []
    check = optimal._normalize_to_case

    def spy(coords, tag):
        counts.append(len(coords))
        return check(coords, tag)

    monkeypatch.setattr(optimal, "_normalize_to_case", spy)
    return counts


def test_accept_step_stops_once_every_row_is_taken(pattern_checks):
    # a Gaussian row: its recipe, its unmoved pattern, then A14 of the screw form
    classify_1d_paper(AlgebraElement.numeric(np.random.default_rng(0).standard_normal(6)))
    assert pattern_checks == [1, 1, 1]
    # the recipe of A12 takes the row, so no other candidate is checked
    pattern_checks.clear()
    classify_1d_paper(AlgebraElement.numeric([1, 0, 0, 2, 0, 0]))
    assert pattern_checks == [1]
    pattern_checks.clear()
    coords = np.vstack([np.random.default_rng(3).standard_normal((50, 6)), np.eye(6), [[1, 0, 0, 2, 0, 0]]])
    classify_1d_many(coords)
    assert 0 not in pattern_checks


def test_classify_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        element = AlgebraElement.numeric(rng.standard_normal(6))
        rep = classify_1d_paper(element)
        assert _max_disallowed(rep) < 1e-9
        assert _word_reproduces(rep, element) < 1e-9
        if rep.case_tag in ("A15", "A16", "A17"):
            assert abs(rep.a) > 1e-9
        # agreement with the screw invariants
        form = canonicalize_screw(element)
        if form.kind == "screw" and abs(form.pitch) > 1e-6:
            implied = 1.0 / pitch_of(rep.representative)
            assert abs(implied - 1.0 / form.pitch) < 1e-6 * max(1.0, abs(1.0 / form.pitch))


def test_classified_words_are_automorphisms():
    rng = np.random.default_rng(37)
    for _ in range(100):
        element = AlgebraElement.numeric(rng.standard_normal(6))
        rep = classify_1d_paper(element)
        a = AlgebraElement.numeric(rng.standard_normal(6))
        b = AlgebraElement.numeric(rng.standard_normal(6))
        defect = automorphism_defect(rep.word, a, b)
        assert max(abs(c) for c in defect.coeffs) < 1e-10


# ---------------------------------------------------------------------------
# scale-free classification and the batched path
# ---------------------------------------------------------------------------

# supports (1-based coordinates) on which the published recipe succeeds
RECIPE_SUPPORTS = ((1, 2, 6), (2, 3, 5), (1, 2, 3), (1, 4), (2, 5), (3, 6), (6,))
KINDS = ("gaussian", "v_pattern", "translation", "zero_pitch", "in_pattern", "recipe")


def _element_of_kind(kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)
    if kind == "v_pattern":  # each of the eight zero patterns of v
        pattern = int(rng.integers(8))
        x[:3] *= [pattern & 1, (pattern >> 1) & 1, (pattern >> 2) & 1]
    elif kind == "translation":
        x[3:] = 0.0
    elif kind == "zero_pitch":
        x[:3] = np.cross(rng.standard_normal(3), x[3:])
    elif kind in ("in_pattern", "recipe"):
        supports = [CASE_ALLOWED[tag] for tag in CASE_TAGS] if kind == "in_pattern" else RECIPE_SUPPORTS
        support = supports[int(rng.integers(len(supports)))]
        x[[i for i in range(6) if i + 1 not in support]] = 0.0
    return x


rows = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
magnitudes = st.floats(min_value=-150, max_value=150).map(lambda e: 10.0**e)


def _close(got, want, tol=1e-9):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _same_word(got, want, tol=1e-9):
    return [i for i, _ in got.steps] == [i for i, _ in want.steps] and all(
        _close(p, q, tol) for (_, p), (_, q) in zip(got.steps, want.steps)
    )


def test_kinds_cover_every_tag_and_recipe_success():
    batches = {
        kind: classify_1d_many(np.array([_element_of_kind(kind, seed) for seed in range(60)]))
        for kind in KINDS
    }
    assert set().union(*(batch.case_tags.tolist() for batch in batches.values())) == set(CASE_TAGS)
    assert not batches["recipe"].fallback.any()


@settings(deadline=None)
@given(rows, magnitudes)
def test_classification_is_scale_free(row, magnitude):
    base = _element_of_kind(*row)
    scaled = base * magnitude
    m_base, m_scaled = np.abs(base).max(), np.abs(scaled).max()
    want = classify_1d_paper(AlgebraElement.numeric(base))
    got = classify_1d_paper(AlgebraElement.numeric(scaled))
    assert (got.case_tag, got.fallback) == (want.case_tag, want.fallback)
    assert _same_word(got.word, want.word)
    assert _close(got.scale * m_scaled, want.scale * m_base)
    assert np.abs(got.representative.as_array() - want.representative.as_array()).max() <= 1e-9 * max(
        1.0, np.abs(want.representative.as_array()).max()
    )
    want_screw = canonicalize_screw(AlgebraElement.numeric(base))
    got_screw = canonicalize_screw(AlgebraElement.numeric(scaled))
    assert got_screw.kind == want_screw.kind
    assert _same_word(got_screw.word, want_screw.word)
    assert _close(got_screw.scale * m_scaled, want_screw.scale * m_base)
    if want_screw.kind == "screw":
        assert _close(got_screw.pitch, want_screw.pitch)


@settings(deadline=None)
@given(st.lists(st.tuples(rows, magnitudes), min_size=1, max_size=24))
def test_batch_rows_match_one_row_batches(specs):
    # a row's result must not depend on the other rows of its batch
    coords = np.array([_element_of_kind(*row) * magnitude for row, magnitude in specs])
    try:
        reps = [classify_1d_many(coords[i : i + 1]).representative(0) for i in range(len(coords))]
    except AssertionError:
        with pytest.raises(AssertionError):
            classify_1d_many(coords)
        return
    batch = classify_1d_many(coords)
    for i, rep in enumerate(reps):
        assert batch.case_tags[i] == rep.case_tag
        assert batch.fallback[i] == rep.fallback
        assert _same_word(batch.word(i), rep.word)
        if rep.a is None:
            assert math.isnan(batch.a[i])
        else:
            assert _close(batch.a[i], rep.a)
        assert _close(batch.b[i], rep.b)
        assert _close(batch.scale[i], rep.scale)
        for got, want in zip(batch.representatives[i], rep.representative.coeffs):
            assert _close(got, want)


def test_batch_raises_where_the_oracle_raises():
    # a Gaussian of pitch 1.7e-7: neither A11 nor A14 meets PATTERN_TOL
    coords = np.random.default_rng(1924).standard_normal((2000, 6))
    with pytest.raises(AssertionError):
        classify_1d_paper(AlgebraElement.numeric(coords[1839]))
    with pytest.raises(AssertionError, match="row 1839:"):
        classify_1d_many(coords)
    with pytest.raises(AssertionError, match="row 1:"):
        classify_1d_many(coords[[0, 1839, 1]])


# ---------------------------------------------------------------------------
# the CASES table against the recipes written out branch by branch
# ---------------------------------------------------------------------------


def _branch_recipe(tag, coords):
    """The seven recipes as numpy code, one branch per case: the reference
    that the CASES rows must reproduce bit for bit."""
    a1, a2, a3, a4, a5, a6 = (coords[..., k] for k in range(DIM))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if tag == "A11":
            divisors, steps = (a6,), [(4, -np.arctan(a5 / a6)), (5, np.arctan(a4 / a6))]
        elif tag == "A12":
            divisors, steps = (a1,), [(2, -a6 / a1), (3, a5 / a1)]
        elif tag == "A13":
            divisors, steps = (a2,), [(1, a6 / a2), (3, -a4 / a2)]
        elif tag == "A14":
            divisors, steps = (a3,), [(1, -a5 / a3), (2, a4 / a3)]
        elif tag == "A15":
            divisors = (a1, a2)
            steps = [(1, a6 / a2), (3, a5 / a1), (4, -np.arctan(a3 / a2))]
        elif tag == "A16":
            divisors = (a1, a2, a3)
            steps = [(1, -a5 / a3), (2, -a6 / a1), (4, -np.arctan(a3 / a2))]
        else:
            divisors, steps = (a2, a3), [(1, a6 / a2), (2, a4 / a3)]
    defined = np.logical_and.reduce(
        [d != 0.0 for d in divisors] + [np.isfinite(p) for _, p in steps]
    )
    return defined, steps


def _recipe_rows():
    """10^4 Gaussian rows, in-pattern rows of every case, rows of each of the
    eight zero patterns of v, and rows with random zero coordinates."""
    rng = np.random.default_rng(36)
    in_pattern = []
    for allowed in CASE_ALLOWED.values():
        x = rng.standard_normal((300, 6))
        x[:, [i for i in range(6) if i + 1 not in allowed]] = 0.0
        in_pattern.append(x)
    v_patterns = rng.standard_normal((800, 6))
    v_patterns[:, :3] *= [[p & 1, (p >> 1) & 1, (p >> 2) & 1] for p in np.arange(800) % 8]
    zeros = rng.standard_normal((2000, 6)) * (rng.random((2000, 6)) < 0.6)
    zeros = zeros[zeros.any(axis=1)]
    gaussian = np.random.default_rng(42).standard_normal((10000, 6))
    return np.vstack([gaussian, *in_pattern, v_patterns, zeros])


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


def test_recipe_table_gives_the_branch_recipes_bit_for_bit():
    coords = _recipe_rows()
    for tag in CASE_TAGS:
        defined, steps = optimal._recipe(tag, coords)
        want_defined, want_steps = _branch_recipe(tag, coords)
        assert np.array_equal(defined, want_defined), tag
        assert [index for index, _ in steps] == [index for index, _ in want_steps], tag
        for (_, got), (_, want) in zip(steps, want_steps):
            assert np.array_equal(_bits(got)[defined], _bits(want)[defined]), tag
    # the claim's sample takes the A12 recipe
    sample = np.array([1.0, 0, 0, 3, 1, 2])
    defined, steps = _branch_recipe("A12", sample)
    assert defined and optimal._published_recipe(sample) == optimal._word(steps)


def test_classify_through_the_table_equals_the_branch_recipes_bit_for_bit(monkeypatch):
    coords = _recipe_rows()
    got = classify_1d_many(coords)
    monkeypatch.setattr(optimal, "_recipe", _branch_recipe)
    want = classify_1d_many(coords)
    assert not want.fallback.all()
    assert np.array_equal(got.case_tags, want.case_tags)
    assert np.array_equal(got.fallback, want.fallback)
    for field in ("a", "b", "scale", "representatives", "disallowed"):
        assert np.array_equal(_bits(getattr(got, field)), _bits(getattr(want, field))), field
    assert [index for index, _ in got.steps] == [index for index, _ in want.steps]
    for (_, p), (_, q) in zip(got.steps, want.steps):
        assert np.array_equal(_bits(p), _bits(q))


def _pitch_band(lo, hi, count, seed):
    """Gaussian w, a v perpendicular to w of similar size, plus pitch * w,
    with |pitch| log-uniform in [lo, hi] and a random sign."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, 3))
    u = rng.standard_normal((count, 3))
    v = u - ((u * w).sum(axis=1) / (w * w).sum(axis=1))[:, None] * w
    pitch = np.exp(rng.uniform(math.log(lo), math.log(hi), count)) * rng.choice([-1, 1], count)
    return np.hstack([v + pitch[:, None] * w, w])


def test_near_zero_pitch_lands_in_a11_without_raising():
    # too small a pitch for the A14 lead to verify; the A11 pattern does
    coords = _pitch_band(1e-12, 1e-9, 400, 7)
    batch = classify_1d_many(coords)
    assert (batch.case_tags == "A11").all() and batch.fallback.all()
    for i, x in enumerate(coords):
        rep = classify_1d_paper(AlgebraElement.numeric(x))
        assert rep.case_tag == "A11"
        assert batch.word(i).steps == rep.word.steps
        assert (batch.scale[i], batch.b[i]) == (rep.scale, rep.b)
        assert np.array_equal(batch.representatives[i], rep.representative.as_array())


def test_every_fallback_is_the_screw_canonical_form():
    # Gaussians with each zero pattern of v (tags A11 to A17), translations
    # and zero-pitch elements; none starts in its own case pattern
    rng = np.random.default_rng(53)
    coords = rng.standard_normal((500, 6))
    for pattern in range(8):
        coords[50 * pattern : 50 * (pattern + 1), :3] *= [pattern & 1, (pattern >> 1) & 1, pattern >> 2]
    coords[400:450, 3:] = 0.0
    # translations whose A15 parameter a is too small to verify
    coords[425:450, 1:3] *= [1e-13, 0.0]
    coords[450:, :3] = np.cross(rng.standard_normal((50, 3)), coords[450:, 3:])
    batch = classify_1d_many(coords)
    reached = np.flatnonzero(batch.fallback)
    assert set(batch.case_tags[reached]) == {"A11", "A12", "A14"}
    assert batch.fallback[425:].all()
    assert (batch.case_tags[425:450] == "A12").all() and (batch.case_tags[450:] == "A11").all()
    for i in reached:
        assert batch.word(i).steps == canonicalize_screw(AlgebraElement.numeric(coords[i])).word.steps


def test_batch_replay_reproduces_the_representatives():
    coords = np.random.default_rng(42).standard_normal((10000, 6))
    batch = classify_1d_many(coords)
    mapped = batch.scale[:, None] * batch.replay(coords)
    assert np.abs(mapped - batch.representatives).max() < 1e-9
    assert batch.disallowed.max() < 1e-9
    # the stored residual is the largest |coordinate| of each representative
    # outside its case pattern
    recomputed = [
        max(abs(c) for k, c in enumerate(row, 1) if k not in CASE_ALLOWED[tag])
        for tag, row in zip(batch.case_tags, batch.representatives)
    ]
    assert np.array_equal(batch.disallowed, recomputed)


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError, match="row 1"):
        classify_1d_many([[1.0, 0, 0, 0, 0, 0], [0.0] * 6])
    with pytest.raises(ValueError):
        classify_1d_many([[1.0, 0, 0, 0, 0, math.inf]])
    with pytest.raises(ValueError):
        classify_1d_many(np.ones(6))
    assert len(classify_1d_many(np.zeros((0, 6))).scale) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("vector", [[5e-309, 0, 0, 0, 0, 0], [1e-320, 0, 0, 0, 0, 1e-320]])
def test_a_scale_that_overflows_is_a_value_error(vector):
    # the scale 1 / max |coordinate| overflows float64: an error, not inf
    element = AlgebraElement.numeric(vector)
    with pytest.raises(ValueError, match="row 0"):
        classify_1d_paper(element)
    with pytest.raises(ValueError, match="row 0"):
        canonicalize_screw(element)
    with pytest.raises(ValueError, match="row 2"):
        classify_1d_many(np.array([[1.0, 2, 3, 4, 5, 6], [0, 0, 0, 1, 0, 0], vector]))


# ---------------------------------------------------------------------------
# equivalence search
# ---------------------------------------------------------------------------


def test_equivalence_finds_quarter_turn():
    b = 2.0
    word = equivalence_search(
        AlgebraElement.numeric([1, 0, 0, b, 0, 0]),
        AlgebraElement.numeric([0, 1, 0, 0, b, 0]),
    )
    assert word is not None
    assert len(word.steps) == 1
    index, parameter = word.steps[0]
    assert index == 6
    assert abs(parameter - math.pi / 2) < 1e-9


def test_equivalence_rejects_distinct_kinds():
    assert equivalence_search(X6.to_float(), X1.to_float()) is None


def test_equivalence_identity():
    word = equivalence_search(X3.to_float(), X3.to_float())
    assert word is not None and word.steps == ()


def test_pitch_of_int_coordinates_is_exact():
    assert pitch_of(AlgebraElement((0, 0, 1, 0, 0, 3))) == Fraction(1, 3)
    assert type(pitch_of(AlgebraElement((0, 0, 1, 0, 0, 3)))) is Fraction


def test_pitch_of_float_rows_sums_products_coordinate_by_coordinate():
    """v.w and |w|^2 are both products added from 0.0 in coordinate order:
    w_k * w_k, not w_k ** 2, which pow rounds differently on some inputs."""
    rows = np.random.default_rng(5).standard_normal((20000, 6))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    differ = []
    for row in rows.tolist():
        dot = wsq = 0.0
        for a, b in zip(row[:3], row[3:]):
            dot += a * b
        for c in row[3:]:
            wsq += c * c
        if pitch_of(AlgebraElement.numeric(row)).hex() != (dot / wsq).hex():
            differ.append(row)
    assert differ == []


def test_exact_equivalence_of_int_elements_compares_exact_pitches():
    x = AlgebraElement((0, 0, 1, 0, 0, 3))
    # pitch 0.333333333333333333, which rounds to the same float as 1/3
    near = AlgebraElement((0, 0, 333333333333333333, 0, 0, 10**18))
    assert equivalence_search(x, near) is None
    assert equivalence_search(x, AlgebraElement((0, 0, 2, 0, 0, 6))) is not None


def test_equivalence_iff_invariants_match():
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = AlgebraElement.numeric(rng.standard_normal(6))
        y = AlgebraElement.numeric(rng.standard_normal(6))
        sx, sy = canonicalize_screw(x), canonicalize_screw(y)
        match = sx.kind == sy.kind and (
            sx.kind == "translation"
            or abs(sx.pitch - sy.pitch) <= 1e-9 * max(1.0, abs(sx.pitch), abs(sy.pitch))
        )
        word = equivalence_search(x, y)
        assert (word is not None) == match


def test_proportionality_has_no_absolute_floor():
    tiny = AlgebraElement.numeric([1e-10, 0, 0, 0, 0, 0])
    assert proportionality_scale(tiny, AlgebraElement.numeric([1e-10, 1e-10, 0, 0, 0, 0])) is None
    assert proportionality_scale(tiny, AlgebraElement.numeric([2e-10, 0, 0, 0, 0, 0])) == 0.5


def _equivalence_pair(seed, conjugate):
    """A Gaussian x and, if conjugate, a scaled image of x under a random
    word, else an independent Gaussian y."""
    rng = np.random.default_rng(seed)
    x = AlgebraElement.numeric(rng.standard_normal(6))
    if conjugate:
        word = AdjointWord(
            tuple((int(rng.integers(1, 7)), float(rng.uniform(-2, 2))) for _ in range(3))
        )
        return x, float(rng.uniform(0.2, 3.0)) * apply_word(word, x)
    return x, AlgebraElement.numeric(rng.standard_normal(6))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(-150, 150), st.integers(-150, 150))
def test_equivalence_verdict_is_scale_free(seed, conjugate, kx, ky):
    x, y = _equivalence_pair(seed, conjugate)
    xs = AlgebraElement.numeric(x.as_array() * 10.0**kx)
    ys = AlgebraElement.numeric(y.as_array() * 10.0**ky)
    word = equivalence_search(x, y)
    scaled_word = equivalence_search(xs, ys)
    assert (word is not None) == (scaled_word is not None) == conjugate
    if conjugate:
        lam = proportionality_scale(apply_word(word, x), y)
        scaled_lam = proportionality_scale(apply_word(scaled_word, xs), ys)
        want = lam * 10.0 ** (kx - ky)
        assert abs(scaled_lam - want) <= 1e-9 * abs(want)


@settings(deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(-300, 300).map(lambda e: 10.0**e),
    st.floats(-300, 300).map(lambda e: 10.0**e),
)
def test_equivalence_word_is_scale_free_across_float64(seed, conjugate, c1, c2):
    # the word is replayed at unit scale, so neither 1e300 * x overflows nor
    # a factor near 1e-600 underflows to a "not proportional" verdict
    x, y = _equivalence_pair(seed, conjugate)
    word = equivalence_search(x, y)
    scaled_word = equivalence_search(
        AlgebraElement.numeric(c1 * x.as_array()), AlgebraElement.numeric(c2 * y.as_array())
    )
    assert (word is not None) == (scaled_word is not None) == conjugate
    if conjugate:
        assert _same_word(scaled_word, word)


def test_equivalence_on_constructed_orbit_pairs():
    rng = np.random.default_rng(43)
    for _ in range(100):
        x = AlgebraElement.numeric(rng.standard_normal(6))
        word0 = AdjointWord(
            tuple(
                (int(rng.integers(1, 7)), float(rng.uniform(-2, 2)))
                for _ in range(rng.integers(0, 4))
            )
        )
        lam = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        y = lam * apply_word(word0, x)
        word = equivalence_search(x, y)
        assert word is not None
        assert proportionality_scale(apply_word(word, x), y) is not None


# ---------------------------------------------------------------------------
# printed subalgebra lists
# ---------------------------------------------------------------------------


def test_two_dim_list_verdicts():
    verdicts = verify_2d_list(A_GRID)
    by_case = {}
    for verdict in verdicts:
        by_case.setdefault(verdict.case, []).append(verdict)

    for case in ("A2_1", "A2_2"):
        (verdict,) = by_case[case]
        assert verdict.closed and verdict.abelian

    for case in ("A2_3", "A2_4", "A2_5"):
        for verdict in by_case[case]:
            assert verdict.closed and verdict.abelian, (case, verdict.a)

    for verdict in by_case["A2_6"]:
        if verdict.a == 0:
            assert verdict.closed and verdict.abelian
        else:
            assert not verdict.closed
            expected = AlgebraElement.exact([0, -verdict.a, 0, 0, 0, 0])
            assert verdict.witness == expected

    for verdict in by_case["A2_6_proof_variant"]:
        assert verdict.closed and verdict.abelian


def test_three_and_four_dim_tables():
    results = verify_3d_4d(A_GRID)
    for record in results:
        assert record.closed, record.case
    a3 = next(r for r in results if r.case == "A3" and r.a == 1)
    # [X_1 + X_4, X_3] = X_2 stays inside the span
    assert a3.table[0][2] == AlgebraElement.exact([0, 1, 0, 0, 0, 0])
    a4 = next(r for r in results if r.case == "A4")
    assert a4.table[1][3] == X3
    assert a4.table[2][3] == -X2
    assert a4.table[0][1].is_zero() and a4.table[0][3].is_zero()


def test_verdicts_carry_the_structure_constants_of_a_closed_span():
    verdicts = verify_2d_list((-2, -1, 0, 1, 2, 3)) + verify_3d_4d((-2, 1, 3))
    # the printed lists hold no dependent entry, so one is added
    dependent = optimal._verdict("dependent", Fraction(0), (X1, X1 + 0 * X4))
    assert not dependent.independent
    for verdict in verdicts + [dependent]:
        if not verdict.closed:
            assert verdict.structure is None, (verdict.case, verdict.a)
            continue
        generators = verdict.generators
        basis = SubalgebraBasis(generators)
        # the per-cell span coordinates are the reference
        assert verdict.structure == tuple(
            tuple(in_span(bracket(g, h), basis) for h in generators) for g in generators
        ), (verdict.case, verdict.a)
        zero = all(c == 0 for row in verdict.structure for cell in row for c in cell)
        assert verdict.abelian == zero, (verdict.case, verdict.a)
    a2_6 = [v for v in verdicts if v.case == "A2_6" and v.a != 0]
    assert a2_6
    for verdict in a2_6:
        assert verdict.witness_pair == (0, 1)
        assert verdict.witness == -verdict.a * X2


# ---------------------------------------------------------------------------
# codimension-one scan
# ---------------------------------------------------------------------------


def test_targeted_hyperplanes_fail_closure():
    # dropping the fifth generator: [X_4, X_6] = X_5 escapes
    basis = SubalgebraBasis((X1, X2, X3, X4, X6))
    verdict = closure_check(basis)
    assert not verdict.closed
    assert verdict.witness == X5
    # dropping the sixth: [X_4, X_5] = -X_6 escapes
    basis = SubalgebraBasis((X1, X2, X3, X4, X5))
    verdict = closure_check(basis)
    assert not verdict.closed
    assert verdict.witness == -X6


def _reference_residuals(lams):
    """max |lam ^ dlam| of each row, every quadric summed as a stack of
    coefficient-times-monomial products: the reference that the scan's
    residuals equal bit for bit."""
    coords = np.ascontiguousarray(lams.T)
    values = np.array(
        [
            sum(float(coeff) * coords[i] * coords[j] for (i, j), coeff in quadric.items())
            for quadric in frobenius_quadrics().values()
        ]
    )
    return np.abs(values).max(axis=0)


def _reference_grid():
    """The nonzero float covectors with entries in -2..2, in
    itertools.product order."""
    grid = np.indices((5,) * 6).reshape(6, -1).T - 2.0
    return grid[grid.any(axis=1)]


def _reference_covectors(samples, seed):
    """The grid and the seeded draws of one scan, drawn in one batch and
    normalized by np.linalg.norm."""
    draws = np.random.default_rng(seed).standard_normal((samples, 6))
    covectors = np.vstack([_reference_grid(), draws])
    return covectors / np.linalg.norm(covectors, axis=1, keepdims=True)


def _reference_scan(samples, seed, threshold):
    """(min residual, witness covector or None): the smallest residual and
    its first occurrence, which is the witness when it is at or below the
    threshold."""
    lams = _reference_covectors(samples, seed)
    residuals = _reference_residuals(lams)
    best = int(np.argmin(residuals))
    return residuals[best], (lams[best] if residuals[best] <= threshold else None)


def _scan_at(samples, seed, threshold):
    """hyperplane_scan(samples, seed) with CLOSURE_THRESHOLD at threshold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimal, "CLOSURE_THRESHOLD", threshold)
        return hyperplane_scan(samples, seed)


def _scan_slices(monkeypatch, samples, seed):
    """Unit covectors (one per row) and residuals of every slice that
    hyperplane_scan(samples, seed) bounds, skipped or not."""
    slices = []

    def recording_floor(lam):
        slices.append(lam.copy())
        return _floor(lam)

    with monkeypatch.context() as patch:
        patch.setattr(optimal, "_floor", recording_floor)
        hyperplane_scan(samples, seed)
    units, residuals = zip(*map(_residuals, slices))
    return list(units), list(residuals)


def test_hyperplane_scan_finds_nothing_small():
    scan = hyperplane_scan(2000, 42)
    assert scan.found is None
    assert optimal.CLOSURE_THRESHOLD == 1e-6 < scan.min_residual
    assert scan.grid_points >= 10**4
    assert hyperplane_scan(500, 7).found is None


def test_hyperplane_scan_validates_samples():
    with pytest.raises(ValueError):
        hyperplane_scan(0, 1)


@pytest.mark.parametrize(
    "samples, seed", [(True, 42), (2.5, 42), ("10", 42), (10, 1.5), (10, False), (10, "7")]
)
def test_hyperplane_scan_rejects_non_integer_counts_before_any_work(monkeypatch, samples, seed):
    def unreachable(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(optimal, "_integer_grid", unreachable)
    with pytest.raises(ValueError, match="must be an integer"):
        hyperplane_scan(samples, seed)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("samples", [1, _SLICE - 1, _SLICE, _SLICE + 1, 19999, 20000, 20001, 60007])
def test_kernel_equals_the_reference_bit_for_bit(monkeypatch, samples, seed):
    units, residuals = _scan_slices(monkeypatch, samples, seed)
    assert max(len(piece) for piece in residuals) <= _SLICE
    want = _reference_covectors(samples, seed)
    assert np.array_equal(np.vstack(units), want)
    assert np.array_equal(np.concatenate(residuals), _reference_residuals(want))
    _assert_scan_equals_the_reference(samples, seed)


def _assert_scan_equals_the_reference(samples, seed):
    # 0.5 lies above the residual floor, so a witness is found (in the grid)
    for threshold in (1e-6, 0.5):
        scan = _scan_at(samples, seed, threshold)
        min_residual, witness = _reference_scan(samples, seed, threshold)
        assert scan.min_residual == min_residual
        _assert_found_is_the_witness(scan, witness, threshold)


def _assert_found_is_the_witness(scan, witness, threshold):
    """found is None exactly when the reference has no witness, and else is
    six floats equal to the witness covector bit for bit, with a residual at
    or below the threshold."""
    assert (scan.found is None) == (witness is None)
    if witness is not None:
        assert type(scan.found) is tuple and len(scan.found) == 6
        assert all(type(x) is float for x in scan.found)
        assert np.array_equal(np.array(scan.found), witness)
        assert _reference_residuals(np.array([scan.found]))[0] <= threshold


@pytest.mark.parametrize("rows, samples", [(1, 45), (7, 40016)])
def test_scan_in_slices_of_any_size_equals_the_reference(monkeypatch, rows, samples):
    # the grid and the draws span many slices; the 192 grid rows on the
    # floor tie, so the witness at 0.5 is the first of them across slices
    monkeypatch.setattr(optimal, "_SLICE", rows)
    slices = []
    with monkeypatch.context() as patch:
        patch.setattr(optimal, "_floor", lambda lam: slices.append(lam.copy()) or _floor(lam))
        hyperplane_scan(samples, 7)
    assert max(map(len, slices)) == rows
    covectors = np.vstack(slices)
    covectors /= np.linalg.norm(covectors, axis=1, keepdims=True)
    assert np.array_equal(covectors, _reference_covectors(samples, 7))
    _assert_scan_equals_the_reference(samples, 7)


def test_warm_scan_allocates_under_a_megabyte_over_an_int8_grid():
    grid = optimal._integer_grid()
    assert grid.dtype == np.int8
    assert not grid.flags.writeable
    assert np.array_equal(grid.astype(float), _reference_grid())
    hyperplane_scan(1, 42)
    for samples in (20000, 400000):
        tracemalloc.start()
        try:
            hyperplane_scan(samples, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, (samples, peak)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_scan_faults_in_no_fresh_pages_per_block():
    # after a warm-up call, hyperplane_scan(400000, 42) incurred ~5,800
    # minor faults when every block allocated its own temporaries, ~436
    # when a block of draws passed through the floor whole, and 0-71 now
    # that every slice's temporaries fit in the heap glibc reuses
    code = (
        "import resource\n"
        "from se3sym.optimal import hyperplane_scan\n"
        "hyperplane_scan(400000, 42)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "hyperplane_scan(400000, 42)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 3000


# ---------------------------------------------------------------------------
# lam ^ dlam residual and the exact certificate
# ---------------------------------------------------------------------------

rational_covectors = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=6, max_size=6
)
unit_covectors = (
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=6)
    .map(np.array)
    .filter(lambda lam: np.linalg.norm(lam) > 1e-3)
    .map(lambda lam: lam / np.linalg.norm(lam))
)


@pytest.fixture(scope="module")
def certificate():
    return hyperplane_certificate()


def _wedge_components(lam):
    """(lam ^ dlam)(X_a, X_b, X_c) for a < b < c through the exact bracket."""

    def dlam(a, b):
        return -sum(l * c for l, c in zip(lam, bracket(BASIS[a], BASIS[b]).coeffs))

    return {
        (a, b, c): lam[a] * dlam(b, c) - lam[b] * dlam(a, c) + lam[c] * dlam(a, b)
        for a, b, c in itertools.combinations(range(6), 3)
    }


def _evaluate(quadric, lam):
    return sum(coeff * lam[i] * lam[j] for (i, j), coeff in quadric.items())


@given(rational_covectors)
def test_residual_is_max_wedge_through_the_bracket(lam):
    components = _wedge_components(lam)
    table = frobenius_quadrics()
    for triple, value in components.items():
        assert _evaluate(table.get(triple, {}), lam) == value
    exact = max(abs(value) for value in components.values())
    # the scan normalizes lam, and each quadric is homogeneous of degree 2
    norm_sq = sum(l * l for l in lam)
    assume(norm_sq)
    residual = _residuals(np.array([[float(l) for l in lam]]))[1][0]
    assert abs(residual - float(exact / norm_sq)) <= 1e-12


def test_quadric_table_has_nineteen_entries():
    table = frobenius_quadrics()
    assert len(table) == 19
    assert all(a < b < c for a, b, c in table)


@given(unit_covectors)
def test_unit_covector_residual_above_floor(certificate, lam):
    # the scan's own relative margin
    assert _residuals(lam[None, :])[1][0] >= float(certificate.residual_floor) * (1 - 1e-12)


@pytest.mark.parametrize("samples", [20001, 40000])
def test_chunked_drawing_matches_one_batch(monkeypatch, samples):
    units, _ = _scan_slices(monkeypatch, samples, 42)
    assert max(len(piece) for piece in units) <= _SLICE
    want = _reference_covectors(samples, 42)
    assert np.array_equal(np.vstack(units), want)
    assert hyperplane_scan(samples, 42).min_residual == _reference_residuals(want).min()


def test_scan_above_floor_returns_the_first_best_covector(certificate):
    threshold = 0.5
    assert threshold > certificate.residual_floor
    scan = _scan_at(1000, 42, threshold)
    # the grid comes first and holds the minimum, so the witness is its
    # first best covector
    grid = _reference_covectors(1000, 42)[: scan.grid_points]
    residuals = _reference_residuals(grid)
    lam = grid[int(np.argmin(residuals))]
    assert residuals.min() <= threshold
    _assert_found_is_the_witness(scan, lam, threshold)


# ---------------------------------------------------------------------------
# the scan's bound: four diagonal quadrics rule a slice out
# ---------------------------------------------------------------------------

# the quadrics made of squares alone, 0-based triple -> exact coefficients
_DIAGONAL = {
    (0, 1, 5): {(0, 0): 1, (1, 1): 1},
    (0, 2, 4): {(0, 0): -1, (2, 2): -1},
    (1, 2, 3): {(1, 1): 1, (2, 2): 1},
    (3, 4, 5): {(3, 3): 1, (4, 4): 1, (5, 5): 1},
}
# the residual of the floor rows: 2/5 less one ulp
_FLOOR = 0.39999999999999997


def _floor_rows():
    """The grid covectors whose residual is exactly 2/5 |lam|^2, decided on
    integer quadrics."""
    grid = optimal._integer_grid().astype(np.int64)
    values = np.array(
        [
            sum(int(c) * grid[:, i] * grid[:, j] for (i, j), c in quadric.items())
            for quadric in frobenius_quadrics().values()
        ]
    )
    exact = 5 * np.abs(values).max(axis=0) == 2 * (grid * grid).sum(axis=1)
    return grid[exact].astype(float)


def _skips_soundly(rows, bounds):
    """Assert that every bound under which the scan skips the block rows lies
    below each full residual of those rows; return the bounds that skipped."""
    lowest = _residuals(rows)[1].min()
    skipped = [bound for bound in bounds if _floor(rows).min() > bound * (1 + 1e-12)]
    assert all(lowest > bound for bound in skipped)
    return skipped


def test_diagonal_quadrics_are_the_four_sums_of_squares():
    assert diagonal_quadrics() == _DIAGONAL


def test_certificate_proves_and_attains_the_two_fifths_floor(certificate):
    assert certificate.residual_floor == Fraction(2, 5)
    assert certificate.diagonal == _DIAGONAL
    # the cover: three quadrics hold each of lam_1^2..lam_3^2 twice, one
    # sign each, and the fourth is lam_4^2 + lam_5^2 + lam_6^2
    inner = [q for t, q in _DIAGONAL.items() if t != (3, 4, 5)]
    assert sorted(i for q in inner for i, _ in q) == [0, 0, 1, 1, 2, 2]
    assert all(len(set(q.values())) == 1 for q in _DIAGONAL.values())
    # the witness: no quadric exceeds 2/5 |lam|^2, and one equals it
    lam = certificate.witness
    assert lam == (-2, -2, -2, -2, -2, 0)
    values = [abs(_evaluate(q, lam)) for q in frobenius_quadrics().values()]
    assert max(values) == Fraction(2, 5) * sum(l * l for l in lam)
    assert _residuals(np.array([lam], dtype=float))[1][0] == _FLOOR


def test_certificate_raises_where_the_cover_or_the_witness_fails(monkeypatch):
    columns = optimal._diagonal_columns()
    with monkeypatch.context() as patch:
        # drop lam_1^2 + lam_2^2: lam_3^2 is covered twice, the others once
        patch.setattr(optimal, "_diagonal_columns", lambda: columns[1:])
        with pytest.raises(ArithmeticError, match="cover"):
            hyperplane_certificate()
    table = dict(frobenius_quadrics())
    table[(0, 1, 2)] = {(0, 0): Fraction(3)}
    with monkeypatch.context() as patch:
        # a quadric of 12 > 2/5 * 20 at the witness
        patch.setattr(optimal, "frobenius_quadrics", lambda: table)
        with pytest.raises(ArithmeticError, match="witness"):
            hyperplane_certificate()


def test_floor_is_the_largest_diagonal_quadric_over_the_squared_norm():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((500, 6)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    rows[::7, 0] = 0.0
    squares = np.square(rows.T)
    quadrics = [sum(c * squares[i] for (i, _), c in q.items()) for q in _DIAGONAL.values()]
    want = np.abs(quadrics).max(axis=0) / sum(squares)
    assert np.array_equal(_floor(rows), want)


@given(rational_covectors)
def test_diagonal_quadrics_bound_the_residual_by_two_fifths(lam):
    table = frobenius_quadrics()
    q = {t: _evaluate(table[t], lam) for t in _DIAGONAL}
    assert q[(0, 1, 5)] - q[(0, 2, 4)] + q[(1, 2, 3)] == 2 * (lam[0] ** 2 + lam[1] ** 2 + lam[2] ** 2)
    assert q[(3, 4, 5)] == lam[3] ** 2 + lam[4] ** 2 + lam[5] ** 2
    # with t = lam_1^2 + lam_2^2 + lam_3^2, max(2t/3, |lam|^2 - t) >= 2/5 |lam|^2
    assert 5 * max(abs(v) for v in q.values()) >= 2 * sum(l * l for l in lam)


def test_grid_reaches_the_two_fifths_floor():
    rows = _floor_rows()
    assert len(rows) == 192
    assert [-2, -2, -2, -2, -2, 0] in rows.tolist()
    assert set(_residuals(rows)[1]) == {_FLOOR}
    assert hyperplane_scan(1, 42).min_residual == _FLOOR


@pytest.mark.parametrize("perturbation", [0, 1e-15])
def test_bound_skips_no_block_holding_a_near_floor_row(perturbation):
    rng = np.random.default_rng(5)
    near = np.vstack([_floor_rows() * scale for scale in 10.0 ** np.arange(-3, 4)])
    near *= 1 + perturbation * rng.standard_normal(near.shape)
    rows = np.vstack([near, rng.standard_normal((2000, 6))])
    rng.shuffle(rows)
    offsets = [-1e-9, -1e-11, -2e-12, -1e-12, -5e-13, -1e-13, -1e-15, 0, 1e-15, 1e-13, 1e-12, 1e-9]
    bounds = [_FLOOR * (1 + d) for d in offsets] + [np.nextafter(_FLOOR, 0), np.nextafter(_FLOOR, 1)]
    # bounds at least the margin below the floor skip the block, the rest do not
    skipped = _skips_soundly(rows, bounds)
    assert skipped == [b for b in bounds if b <= _FLOOR * (1 - 1e-12)]
    assert len(skipped) == 4


@seed(13)
@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3000),
    st.integers(0, 3),
    st.floats(min_value=0.39, max_value=0.7),
)
def test_bound_skips_only_blocks_above_it(draw_seed, n, floor_rows, bound):
    rng = np.random.default_rng(draw_seed)
    rows = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    floor = _floor_rows()
    rows[rng.integers(n, size=floor_rows)] = floor[rng.integers(len(floor), size=floor_rows)]
    _skips_soundly(rows, [bound])


@pytest.mark.parametrize("samples, seed", [(60007, 7), (20001, 42)])
def test_bounded_scan_equals_the_reference_at_every_threshold(samples, seed):
    for threshold in (-1.0, 1e-6, 0.3, np.nextafter(_FLOOR, 0), _FLOOR, 0.4, 0.45, 0.6, 0.9):
        scan = _scan_at(samples, seed, threshold)
        min_residual, witness = _reference_scan(samples, seed, threshold)
        assert scan.min_residual == min_residual
        _assert_found_is_the_witness(scan, witness, threshold)


def test_found_is_set_exactly_when_the_minimum_is_at_or_below_the_threshold(monkeypatch):
    min_residual = hyperplane_scan(100, 42).min_residual
    assert _scan_at(100, 42, min_residual).found is not None
    assert _scan_at(100, 42, np.nextafter(min_residual, 0)).found is None
    # the 192 floor rows tie across slices of 7 grid rows; the first is the
    # witness, not the last (its negation, which has the same kernel)
    monkeypatch.setattr(optimal, "_SLICE", 7)
    first = _floor_rows()[0]
    first = first / np.linalg.norm(first)
    _assert_found_is_the_witness(_scan_at(100, 42, 0.5), first, 0.5)

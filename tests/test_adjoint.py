import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from se3sym.algebra import DIM, SE3, AlgebraElement, X1, X2, X3, X4, X5, X6, bracket
from se3sym import adjoint
from se3sym.adjoint import (
    AdjointWord,
    TrigPoly,
    TrigPolyMatrix,
    ad_matrix,
    adjoint_closed_form,
    adjoint_series,
    apply_step,
    apply_word,
    automorphism_defect,
    closed_form,
    omega_norm_sq,
    translation_dot,
)

SIGMAS = np.linspace(-math.pi, math.pi, 50)

# Float references: ad X_i and (ad X_i)^2 as float tables, and the
# closed form built by one rule for translations and another for rotations.
# The module holds int tables and one rule; its floats must equal these.
_AD_REF = {i: np.array(ad_matrix(x), dtype=float) for i, x in enumerate((X1, X2, X3, X4, X5, X6), 1)}
_AD2_REF = {i: ad @ ad for i, ad in _AD_REF.items()}


def _reference_series(i, sigma, order):
    step = -np.multiply.outer(sigma, _AD_REF[i])
    total = np.broadcast_to(np.eye(DIM), step.shape)
    term = total
    for k in range(1, order + 1):
        term = term @ step / k
        total = total + term
    return np.swapaxes(total, -2, -1)


def _reference_step(i, sigma, coords):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim:
        sigma = sigma[:, None]
    if i <= 3:
        return coords - sigma * (coords @ _AD_REF[i].T)
    return (
        coords
        - np.sin(sigma) * (coords @ _AD_REF[i].T)
        + (1.0 - np.cos(sigma)) * (coords @ _AD2_REF[i].T)
    )


def _reference_closed_form(i):
    ad = _AD_REF[i].astype(int).tolist()
    ad2 = _AD2_REF[i].astype(int).tolist()
    if i <= 3:
        entry = lambda r, c: TrigPoly({(0, 0, 0): int(r == c), (1, 0, 0): -ad[r][c]})
    else:
        entry = lambda r, c: TrigPoly(
            {(0, 0, 0): int(r == c) + ad2[r][c], (0, 0, 1): -ad[r][c], (0, 1, 0): -ad2[r][c]}
        )
    return TrigPolyMatrix(tuple(tuple(entry(c, r) for c in range(DIM)) for r in range(DIM)))


def _assert_same_bits(actual, expected):
    """Equal floats of equal sign: -0.0 and 0.0 count as different."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def test_ad_matrix_column_readoff():
    mat = ad_matrix(X6)
    # first column holds [X_6, X_1] = -X_2
    column = tuple(mat[k][0] for k in range(6))
    assert column == (0, -1, 0, 0, 0, 0)


def test_ad_matrix_of_zero_and_linearity():
    zero = ad_matrix(AlgebraElement.exact([0] * 6))
    assert all(v == 0 for row in zero for v in row)
    lhs = ad_matrix(X1 + X4)
    rhs_a, rhs_b = ad_matrix(X1), ad_matrix(X4)
    assert lhs == tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(rhs_a, rhs_b)
    )


def test_ad_matrix_columns_are_brackets_with_the_basis():
    """The contraction with SE3 against column j = [x, X_j], on random exact x
    with some coordinates zero."""
    rng = np.random.default_rng(5)
    basis = (X1, X2, X3, X4, X5, X6)
    for _ in range(50):
        numerators = rng.integers(-9, 10, DIM) * rng.integers(0, 2, DIM)
        x = AlgebraElement.exact([Fraction(int(p), int(q)) for p, q in zip(numerators, rng.integers(1, 7, DIM))])
        columns = [bracket(x, basis[j]).coeffs for j in range(DIM)]
        matrix = ad_matrix(x)
        assert matrix == tuple(tuple(columns[j][k] for j in range(DIM)) for k in range(DIM))
        assert all(type(v) is Fraction for row in matrix for v in row)


def test_series_translation_terminates():
    # the image of X_6 under the second translation picks up sigma X_1
    sigma = 0.83
    low = adjoint_series(2, sigma, 2)
    high = adjoint_series(2, sigma, 30)
    assert np.allclose(low, high, atol=1e-15)
    assert np.allclose(low[5], [sigma, 0, 0, 0, 0, 1])


def test_series_identity_at_zero():
    for i in range(1, 7):
        assert np.allclose(adjoint_series(i, 0.0, 5), np.eye(6))


def test_series_rotation_example():
    # rotating the z-translation about the x-axis by pi/3
    sigma = math.pi / 3
    matrix = adjoint_series(4, sigma, 30)
    expected = np.zeros(6)
    expected[1] = -math.sin(sigma)
    expected[2] = math.cos(sigma)
    assert np.allclose(matrix[2], expected, atol=1e-14)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_closed_form_nilpotent_rows(i):
    """A translation's closed form is 1 - s ad X_i, row-convention: every
    entry is delta_rc - s (ad X_i)[c][r], of degree at most 1 in s."""
    matrix = closed_form(i)
    ad = ad_matrix((X1, X2, X3)[i - 1])
    s = TrigPoly.variable("s")
    for r in range(DIM):
        for c in range(DIM):
            entry = matrix.entries[r][c]
            assert entry == int(r == c) - s * ad[c][r]
            assert all(a <= 1 and not b and not d for a, b, d in entry.terms)
            # the constant term before the s term, as the one rule keys them
            assert list(entry.terms) == [k for k in ((0, 0, 0), (1, 0, 0)) if k in entry.terms]
    if i == 1:
        one, zero = TrigPoly.constant(1), TrigPoly()
        assert matrix.entries[4] == (zero, zero, s, zero, one, zero)
        assert matrix.entries[5] == (zero, -s, zero, zero, zero, one)
        for r in (0, 1, 2, 3):
            assert matrix.entries[r] == tuple(one if c == r else zero for c in range(6))


def test_closed_form_rotation_blocks():
    m6 = closed_form(6)
    C, S = TrigPoly.variable("C"), TrigPoly.variable("S")
    assert m6.entries[0][0] == C and m6.entries[0][1] == S
    assert m6.entries[1][0] == -S and m6.entries[1][1] == C
    assert m6.entries[3][3] == C and m6.entries[3][4] == S
    assert m6.entries[4][3] == -S and m6.entries[4][4] == C
    # the series-consistent x-rotation has -S in its third row
    m4 = closed_form(4)
    assert m4.entries[1][1] == C and m4.entries[1][2] == S
    assert m4.entries[2][1] == -S and m4.entries[2][2] == C


def test_closed_form_matches_series_everywhere():
    for i in range(1, 7):
        matrix = closed_form(i)
        for sigma in SIGMAS:
            diff = np.abs(adjoint_series(i, float(sigma), 30) - matrix.evaluate(float(sigma)))
            assert diff.max() < 1e-12


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def test_batched_series_and_closed_form_equal_scalar_stacks_bit_for_bit():
    for i in range(1, 7):
        series = adjoint_series(i, SIGMAS, 30)
        values = closed_form(i).evaluate(SIGMAS)
        assert series.shape == values.shape == (len(SIGMAS), 6, 6)
        assert _bits(series) == _bits(np.stack([adjoint_series(i, float(s), 30) for s in SIGMAS]))
        assert _bits(values) == _bits(np.stack([closed_form(i).evaluate(float(s)) for s in SIGMAS]))
        # the int tables and the one entry rule give the float references' bits
        _assert_same_bits(series, _reference_series(i, SIGMAS, 30))
        for sigma in (0.0, -0.0, 1e-300, -2.5):
            _assert_same_bits(adjoint_series(i, sigma, 30), _reference_series(i, sigma, 30))
        built, reference = adjoint_closed_form(i).entries, _reference_closed_form(i).entries
        for row, reference_row in zip(built, reference):
            for entry, expected in zip(row, reference_row):
                assert list(entry.terms.items()) == list(expected.terms.items())
                assert str(entry) == str(expected)


def _scalar_reference(matrix, sigma):
    """Each entry summed term by term with math.cos and math.sin."""
    c, s = math.cos(sigma), math.sin(sigma)
    out = np.zeros((6, 6))
    for r, row in enumerate(matrix.entries):
        for k, entry in enumerate(row):
            total = 0.0
            for (es, ec, esin), value in entry.terms.items():
                total += float(value) * sigma**es * c**ec * s**esin
            out[r, k] = total
    return out


def test_scalar_evaluation_keeps_its_types_and_values():
    sine = TrigPolyMatrix(((TrigPoly.variable("S"),) * 6,) * 6)
    value = sine.evaluate(0.5)
    assert type(value) is np.ndarray and value.dtype == np.float64 and value.shape == (6, 6)
    assert (value == math.sin(0.5)).all()
    assert _bits(value) == _bits(_scalar_reference(sine, 0.5))
    assert sine.evaluate(SIGMAS).shape == (len(SIGMAS), 6, 6)
    for i in range(1, 7):
        for sigma in (0.3, -1.7, math.pi / 2, 12.5, -100.25):
            value = closed_form(i).evaluate(sigma)
            assert value.shape == (6, 6)
            assert _bits(value) == _bits(_scalar_reference(closed_form(i), sigma))


def test_closed_form_builds_a_matrix_per_call():
    # the package's name is the builder itself, and no call keeps a matrix
    assert adjoint_closed_form is closed_form
    first, second = closed_form(4), closed_form(4)
    assert first is not second and first == second


@pytest.mark.parametrize("i", range(1, 7))
def test_closed_form_checks_its_identity(monkeypatch, i):
    """A translation's ad^2 must vanish and a rotation's ad^3 equal -ad;
    a table that breaks either makes the closed form raise."""
    broken = adjoint._AD2_INT.copy()
    if i <= 3:
        broken[i - 1, 0, 0] = 1
        message = r"^translation generator does not satisfy ad\^2 = 0$"
    else:
        broken[i - 1] = 0
        message = r"^rotation generator does not satisfy ad\^3 = -ad$"
    monkeypatch.setattr(adjoint, "_AD2_INT", broken)
    with pytest.raises(AssertionError, match=message):
        closed_form(i)
    others = [j for j in range(1, 7) if j != i]
    assert all(closed_form(j) == _reference_closed_form(j) for j in others)


def _random_rows(rng, n):
    """Rows with magnitudes from 1e-300 to 1e300, zeros of both signs among them."""
    rows = rng.choice([-1.0, 1.0], (n, DIM)) * 10.0 ** rng.uniform(-300, 300, (n, DIM))
    rows[rng.random((n, DIM)) < 0.2] = 0.0
    rows[rng.random((n, DIM)) < 0.2] = -0.0
    return rows


def test_step_kernel_equals_float_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    coords = _random_rows(rng, 400)
    sigmas = rng.uniform(-math.pi, math.pi, 400)
    sigmas[::7], sigmas[3::7], sigmas[5::7] = 0.0, -0.0, 1e-300
    for i in range(1, 7):
        _assert_same_bits(apply_step(i, sigmas, coords), _reference_step(i, sigmas, coords))
        for sigma in (0.0, -0.0, 1e-300, 0.7, -2.5):
            _assert_same_bits(apply_step(i, sigma, coords), _reference_step(i, sigma, coords))
            _assert_same_bits(apply_step(i, sigma, coords[0]), _reference_step(i, sigma, coords[0]))


def step_matrix(i, sigma):
    """Float matrix of one adjoint step, row-convention, built from ad_matrix:
    the reference for apply_step."""
    ad = np.array(ad_matrix((X1, X2, X3, X4, X5, X6)[i - 1]), dtype=float)
    if i <= 3:
        m = np.eye(DIM) - sigma * ad
    else:
        m = np.eye(DIM) - math.sin(sigma) * ad + (1.0 - math.cos(sigma)) * (ad @ ad)
    return m.T


def test_step_matrix_consistent_with_closed_form():
    for i in range(1, 7):
        for sigma in (-2.0, -0.3, 0.0, 0.7, 3.0):
            assert np.allclose(
                step_matrix(i, sigma), closed_form(i).evaluate(sigma), atol=1e-15
            )


def _random_steps(rng, length):
    return [(int(rng.integers(1, 7)), float(rng.uniform(-math.pi, math.pi))) for _ in range(length)]


def test_step_kernel_equals_step_matrix_products():
    rng = np.random.default_rng(5)
    for length in range(0, 6):
        steps = _random_steps(rng, length)
        coords = rng.standard_normal((40, 6))
        product = np.eye(6)
        moved = coords
        for index, parameter in steps:
            product = product @ step_matrix(index, parameter)
            moved = apply_step(index, parameter, moved)
        assert np.abs(moved - coords @ product).max() < 1e-12
        assert np.abs(apply_step(1, 0.0, coords) - coords).max() == 0.0


def test_step_kernel_with_one_parameter_per_row_matches_apply_word():
    rng = np.random.default_rng(9)
    coords = rng.standard_normal((30, 6))
    generators = [int(g) for g in rng.integers(1, 7, size=5)]
    parameters = rng.uniform(-math.pi, math.pi, size=(30, 5))
    parameters[::3, 1] = 0.0  # a zero parameter leaves the row unchanged
    moved = coords
    for k, index in enumerate(generators):
        moved = apply_step(index, parameters[:, k], moved)
    for row in range(30):
        word = AdjointWord(tuple(zip(generators, parameters[row])))
        expected = apply_word(word, AlgebraElement.numeric(coords[row])).as_array()
        assert np.array_equal(moved[row], expected)


def test_group_law_per_generator():
    rng = np.random.default_rng(11)
    for i in range(1, 7):
        for _ in range(10):
            sigma, tau = rng.uniform(-math.pi, math.pi, size=2)
            lhs = closed_form(i).evaluate(sigma) @ closed_form(i).evaluate(tau)
            rhs = closed_form(i).evaluate(sigma + tau)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_determinant_is_one():
    for i in range(1, 7):
        for sigma in SIGMAS:
            assert abs(np.linalg.det(closed_form(i).evaluate(float(sigma))) - 1.0) < 1e-12


def test_apply_word_examples():
    word = AdjointWord(((6, math.pi / 2),))
    moved = apply_word(word, AlgebraElement.exact([1, 0, 0, 2, 0, 0]))
    assert np.allclose(moved.as_array(), [0, 1, 0, 0, 2, 0], atol=1e-14)

    assert apply_word(AdjointWord(), X3).as_array().tolist() == [0, 0, 1, 0, 0, 0]

    sigma = 1.37
    moved = apply_word(AdjointWord(((1, sigma),)), X5)
    assert np.allclose(moved.as_array(), [0, 0, sigma, 0, 1, 0], atol=1e-15)


def test_word_inverse_and_simplify():
    word = AdjointWord(((2, 0.5), (2, -0.5), (4, 0.0), (3, 1.0)))
    assert word.simplified().steps == ((3, 1.0),)
    inv = word.inverse()
    assert inv.steps == ((3, -1.0), (4, -0.0), (2, 0.5), (2, -0.5))
    rng = np.random.default_rng(3)
    element = AlgebraElement.numeric(rng.standard_normal(6))
    roundtrip = apply_word(inv, apply_word(word, element))
    assert np.allclose(roundtrip.as_array(), element.as_array(), atol=1e-12)


words = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([0.0, 1e-13, -1e-13, 0.5, -0.5, 1.0, -1.0, 2.0])),
    max_size=12,
).map(lambda steps: AdjointWord(tuple(steps)))


@given(words, st.sampled_from([0.0, 1e-12]))
def test_simplified_word_is_reduced_in_one_pass(word, tol):
    simple = word.simplified(tol)
    assert all(a[0] != b[0] for a, b in zip(simple.steps, simple.steps[1:]))
    assert all(abs(p) > tol for _, p in simple.steps)
    assert simple.simplified(tol) == simple
    element = AlgebraElement.numeric([0.3, -1.2, 0.5, 0.7, 0.1, -0.4])
    moved, expected = apply_word(simple, element).as_array(), apply_word(word, element).as_array()
    assert np.abs(moved - expected).max() <= 1e-12


def test_word_validation():
    with pytest.raises(ValueError):
        AdjointWord(((7, 1.0),))
    with pytest.raises(ValueError):
        AdjointWord(((1, math.inf),))


def test_automorphism_defect_examples():
    word = AdjointWord(((4, 0.7),))
    x = X2.to_float()
    assert max(abs(c) for c in automorphism_defect(word, x, x).coeffs) == 0.0
    defect = automorphism_defect(word, x, X6.to_float())
    assert max(abs(c) for c in defect.coeffs) < 1e-10


def test_automorphism_defect_random_words():
    rng = np.random.default_rng(17)
    for _ in range(300):
        length = rng.integers(1, 5)
        word = AdjointWord(
            tuple(
                (int(rng.integers(1, 7)), float(rng.uniform(-math.pi, math.pi)))
                for _ in range(length)
            )
        )
        x = AlgebraElement.numeric(rng.standard_normal(6))
        y = AlgebraElement.numeric(rng.standard_normal(6))
        defect = automorphism_defect(word, x, y)
        assert max(abs(c) for c in defect.coeffs) < 1e-10


def test_orbit_invariants_preserved():
    rng = np.random.default_rng(23)
    for _ in range(300):
        length = rng.integers(0, 5)
        word = AdjointWord(
            tuple(
                (int(rng.integers(1, 7)), float(rng.uniform(-math.pi, math.pi)))
                for _ in range(length)
            )
        )
        x = AlgebraElement.numeric(rng.standard_normal(6))
        moved = apply_word(word, x)
        assert abs(omega_norm_sq(moved) - omega_norm_sq(x)) < 1e-9
        assert abs(translation_dot(moved) - translation_dot(x)) < 1e-9


# Gram matrices, as {(row, column): entry}, of quadratic forms x G x^T on
# x = (v, w): the two forms optimal.pitch_of reads, and |v|^2, which is not
# invariant
_W_SQUARED = {(k, k): 1 for k in (3, 4, 5)}
_TWICE_V_DOT_W = {**{(k, k + 3): 1 for k in range(3)}, **{(k + 3, k): 1 for k in range(3)}}
_V_SQUARED = {(k, k): 1 for k in range(3)}


def _form_is_invariant(gram, i):
    """M G M^T == G exactly in the TrigPoly ring, M = closed_form(i): rows
    are images, x -> x M, so the form x G x^T is Ad-invariant for every s
    exactly when this holds."""
    m = closed_form(i).entries
    return all(
        sum((m[a][k] * m[b][l] * c for (k, l), c in gram.items()), TrigPoly())
        == TrigPoly.constant(gram.get((a, b), 0))
        for a in range(DIM)
        for b in range(DIM)
    )


def test_pitch_forms_are_invariant_exactly():
    # |w|^2 and v.w decide the orbit of a 1-D subalgebra: the kind, and the
    # pitch v.w / |w|^2
    for i in range(1, 7):
        assert _form_is_invariant(_W_SQUARED, i)
        assert _form_is_invariant(_TWICE_V_DOT_W, i)
    # the check is not vacuous: the translations change |v|^2
    assert not any(_form_is_invariant(_V_SQUARED, i) for i in (1, 2, 3))


def apply_rows(matrix, coeffs):
    """Row-vector action of a TrigPolyMatrix: image coordinates of
    sum_j coeffs[j] X_j."""
    out = [TrigPoly() for _ in range(DIM)]
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        for k in range(DIM):
            out[k] = out[k] + matrix.entries[j][k] * cj
    return tuple(out)


def symbolic_automorphism_defect(i, x, y):
    """Defect of a single symbolic step, as TrigPoly coordinates.

    Vanishes identically modulo C^2 + S^2 = 1 because Ad is an automorphism.
    """
    matrix = closed_form(i)
    img_x = apply_rows(matrix, [Fraction(c) for c in x.coeffs])
    img_y = apply_rows(matrix, [Fraction(c) for c in y.coeffs])
    img_bracket = apply_rows(matrix, [Fraction(c) for c in bracket(x, y).coeffs])
    out = [TrigPoly() for _ in range(DIM)]
    for a, row in enumerate(SE3):
        for b, entry in enumerate(row):
            for k, value in enumerate(entry):
                if value:
                    out[k] = out[k] + img_x[a] * img_y[b] * value
    return tuple(img_bracket[k] - out[k] for k in range(DIM))


def test_symbolic_defect_reduces_to_zero():
    for i in range(1, 7):
        defect = symbolic_automorphism_defect(i, X1, X5)
        assert all(component.is_zero() for component in defect)
    defect = symbolic_automorphism_defect(4, X2 + X4, X5 - X3)
    assert all(component.is_zero() for component in defect)


def test_trig_poly_relation():
    C, S = TrigPoly.variable("C"), TrigPoly.variable("S")
    assert C * C + S * S == TrigPoly.constant(1)
    assert str(C * C) == "-S^2 + 1"

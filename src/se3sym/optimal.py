"""Classification of se(3) elements and subalgebras under the adjoint action.

Two routes normalize a nonzero element: the literal seven-case parameter
recipes of the published classification, and the screw canonical form
(turn a translation onto x; otherwise turn the rotation part onto z and
translate away the perpendicular translation part).  The recipes are tried
first; whenever they are ill-defined or leave a residual, the screw
canonical form takes over and the result is flagged.  Its patterns are
fixed: A12 (X_1) for a translation, else A14 (X_3 + b X_6), or A11 (X_6)
where the pitch is too small for A14 to verify.  One driver,
classify_1d_many, takes these decisions for an (n, 6) array;
classify_1d_paper is its one-row view.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    DIM,
    SE3,
    AlgebraElement,
    Scalar,
    SubalgebraBasis,
    X1,
    X2,
    X3,
    X4,
    X5,
    X6,
    closure_check,
    commutator_table,
)
from .adjoint import AdjointWord, _apply_steps, apply_word, omega_norm_sq, translation_dot

PATTERN_TOL = 1e-9
ZERO_TOL = 1e-12
# hyperplane_scan's found rule: a residual at or below this is a closed hyperplane
CLOSURE_THRESHOLD = 1e-6

# the published case split: per case, the coordinates (1-based) allowed to be nonzero
# in its representative, and its recipe, one row (generator, sign, arctan, i, j) per
# step, whose parameter is sign * (a_i / a_j), or sign * arctan(a_i / a_j) if arctan
CASES: Dict[str, Tuple[Tuple[int, ...], Tuple[Tuple[int, int, bool, int, int], ...]]] = {
    "A11": ((6,), ((4, -1, True, 5, 6), (5, 1, True, 4, 6))),
    "A12": ((1, 4), ((2, -1, False, 6, 1), (3, 1, False, 5, 1))),
    "A13": ((2, 5), ((1, 1, False, 6, 2), (3, -1, False, 4, 2))),
    "A14": ((3, 6), ((1, -1, False, 5, 3), (2, 1, False, 4, 3))),
    "A15": ((1, 2, 6), ((1, 1, False, 6, 2), (3, 1, False, 5, 1), (4, -1, True, 3, 2))),
    "A16": ((1, 3, 4), ((1, -1, False, 5, 3), (2, -1, False, 6, 1), (4, -1, True, 3, 2))),
    "A17": ((2, 3, 5), ((1, 1, False, 6, 2), (2, 1, False, 4, 3))),
}
CASE_TAGS = tuple(CASES)
CASE_ALLOWED: Dict[str, Tuple[int, ...]] = {tag: allowed for tag, (allowed, _) in CASES.items()}


class ScrewForm(NamedTuple):
    """Canonical screw data of a nonzero element.

    kind "screw" canonicalizes to X_6 + pitch*X_3 (unit rotation part),
    kind "translation" to X_1.  scale * Ad_word(input) equals the canonical
    element within PATTERN_TOL.
    """

    kind: str
    pitch: Optional[float]
    word: AdjointWord
    scale: float

    def canonical_element(self) -> AlgebraElement:
        if self.kind == "translation":
            return AlgebraElement.numeric([1, 0, 0, 0, 0, 0])
        return AlgebraElement.numeric([0, 0, self.pitch, 0, 0, 1])


class OneDimRepresentative(NamedTuple):
    """Result of the seven-case normalization of a nonzero element."""

    case_tag: str
    a: Optional[float]
    b: float
    word: AdjointWord
    scale: float
    fallback: bool
    representative: AlgebraElement


class OneDimBatch(NamedTuple):
    """The seven-case normalization of many elements, held as arrays.

    Row i of every array belongs to row i of the input; a is NaN where the
    case has no a; disallowed is the residual that the pattern test of the
    row's case measured.  steps lists (generator, one parameter per row): a
    row whose word skips a step holds 0 there, which is the identity, so
    replaying every step in order applies each row's word to its own row.
    """

    case_tags: np.ndarray
    a: np.ndarray
    b: np.ndarray
    scale: np.ndarray
    fallback: np.ndarray
    representatives: np.ndarray
    disallowed: np.ndarray
    steps: Tuple[Tuple[int, np.ndarray], ...]

    def word(self, i: int) -> AdjointWord:
        return _word((index, parameters[i]) for index, parameters in self.steps)

    def representative(self, i: int) -> OneDimRepresentative:
        """Row i, with plain Python values."""
        tag = str(self.case_tags[i])
        return OneDimRepresentative(
            tag,
            None if math.isnan(self.a[i]) else float(self.a[i]),
            float(self.b[i]),
            self.word(i),
            float(self.scale[i]),
            bool(self.fallback[i]),
            AlgebraElement.numeric(self.representatives[i]),
        )

    def replay(self, coords: np.ndarray) -> np.ndarray:
        """Ad(word(i)) of row i of coords, for every row."""
        return _apply_steps(self.steps, coords)


def pitch_of(x: AlgebraElement) -> Optional[Scalar]:
    """Translation advance per unit rotation, v.w / |w|^2, from the two
    Ad-invariant forms: the orbit of span(x), None for a translation.  A
    Fraction for exact x, a float for float x."""
    wsq, dot = omega_norm_sq(x), translation_dot(x)
    return dot / wsq if wsq else None


# ---------------------------------------------------------------------------
# helpers of the normalizers: those that take coordinates accept one element,
# shape (6,), as canonicalize_screw passes it, or one element per row, shape
# (n, 6), as classify_1d_many passes it
# ---------------------------------------------------------------------------


def _unit(coords: np.ndarray):
    """coords divided by m = max |coordinate| of each element, and m.

    Normal forms are projective: each normalizer works on x / m and folds
    1 / m into its scale, so nothing overflows or underflows on the way.
    """
    m = np.abs(coords).max(axis=-1)
    return coords / m[..., None], m


def _scale(unit_scale, m, coords: np.ndarray):
    """unit_scale / m, the scale reported for coords; raises ValueError
    naming the first row where it is not finite (m subnormal)."""
    with np.errstate(over="ignore"):
        scale = unit_scale / m
    finite = np.isfinite(np.atleast_1d(scale))
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"scale overflows float64 in row {row}: {np.atleast_2d(coords)[row].tolist()}")
    return scale


def _norm3(p: np.ndarray) -> np.ndarray:
    return np.sqrt(p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] + p[..., 2] * p[..., 2])


def _word(steps) -> AdjointWord:
    return AdjointWord(tuple((index, float(p)) for index, p in steps)).simplified()


# ---------------------------------------------------------------------------
# screw canonical form
# ---------------------------------------------------------------------------


def _is_translation(unit: np.ndarray) -> np.ndarray:
    """Where the rotation part of unit-scale coordinates vanishes."""
    return _norm3(unit[..., 3:]) <= ZERO_TOL


def _screw_steps(coords: np.ndarray, translation: bool):
    """Steps to the screw canonical form, the coordinates they lead to and
    the case patterns to try on those coordinates, in order.

    A translation v is turned onto x: X_1 up to scale, pattern A12.
    Otherwise the rotation part w is turned onto z and the translation part
    perpendicular to it is moved away: X_6 + pitch X_3 up to scale, pattern
    A14, or A11 where the pitch is too small for A14 to verify.
    """
    n = coords[..., :3] if translation else coords[..., 3:]
    phi = np.arctan2(n[..., 1], n[..., 0])
    theta = np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2])
    if translation:
        steps = [(6, -phi), (5, math.pi / 2 - theta)]
        return steps, _apply_steps(steps, coords), ("A12",)
    steps = [(6, -phi), (5, -theta)]
    moved = _apply_steps(steps, coords)
    kills = [(2, -moved[..., 0] / moved[..., 5]), (1, moved[..., 1] / moved[..., 5])]
    return steps + kills, _apply_steps(kills, moved), ("A14", "A11")


def canonicalize_screw(x: AlgebraElement) -> ScrewForm:
    """Independent canonical form driven by the screw invariants; raises
    ValueError where the scale overflows float64."""
    if x.is_zero():
        raise ValueError("cannot canonicalize the zero element")
    unit, m = _unit(x.as_array())
    translation = bool(_is_translation(unit))
    steps, moved, _ = _screw_steps(unit, translation)
    scale = float(_scale(1.0 / (_norm3(unit[:3]) if translation else moved[5]), m, x.as_array()))
    if translation:
        return ScrewForm("translation", None, _word(steps), scale)
    return ScrewForm("screw", pitch_of(AlgebraElement.numeric(unit)), _word(steps), scale)


# ---------------------------------------------------------------------------
# the seven-case normalization
# ---------------------------------------------------------------------------


# the case tag by which of v_1, v_2, v_3 are nonzero, bit k for v_{k+1}
_TAG_BY_PATTERN = np.array(("A11", "A12", "A13", "A15", "A14", "A16", "A17", "A15"))
_PATTERN_BITS = np.array([1, 2, 4])


def _case_tags(coords: np.ndarray) -> np.ndarray:
    """The case tag of every row."""
    return _TAG_BY_PATTERN[(coords[:, :3] != 0) @ _PATTERN_BITS]


def _recipe(tag: str, coords: np.ndarray):
    """The published parameter recipe of a case, evaluated on coords as its
    CASES rows state it.

    Returns (defined, steps).  A recipe is ill-defined on a row where one of
    its denominators is zero, inside arctan too (the documented ill-defined
    situations), or where a parameter overflows.
    """
    defined, steps = True, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for index, sign, arctan, i, j in CASES[tag][1]:
            ratio = coords[..., i - 1] / coords[..., j - 1]
            parameter = sign * (np.arctan(ratio) if arctan else ratio)
            defined = defined & (coords[..., j - 1] != 0.0) & np.isfinite(parameter)
            steps.append((index, parameter))
    return defined, steps


def _published_recipe(coords: Sequence[float]) -> Optional[AdjointWord]:
    """The published recipe of the case of coords as a word, or None where it
    is ill-defined."""
    coords = np.asarray(coords, dtype=float)
    defined, steps = _recipe(str(_case_tags(coords[None])[0]), coords)
    return _word(steps) if defined else None


def _normalize_to_case(coords: np.ndarray, tag: str):
    """Scale so the leading allowed coordinate is 1 and check the pattern.

    Returns (ok, scale, normalized coordinates, a, b, residual); ok is False
    where the residual, the largest |coordinate| outside the pattern, is
    not below PATTERN_TOL or a required parameter degenerates.  a is the
    middle and b the last allowed coordinate: a is NaN where there are
    fewer than three, and b = 0 for A11, whose one allowed coordinate is the
    lead.
    """
    allowed = CASE_ALLOWED[tag]
    lead = coords[..., allowed[0] - 1]
    ok = np.abs(lead) > PATTERN_TOL * np.abs(coords).max(axis=-1)
    scale = 1.0 / np.where(ok, lead, 1.0)
    normalized = coords * scale[..., None]
    outside = [i for i in range(DIM) if i + 1 not in allowed]
    residual = np.abs(normalized[..., outside]).max(axis=-1)
    ok &= residual < PATTERN_TOL
    b = normalized[..., allowed[-1] - 1] if len(allowed) > 1 else np.zeros_like(lead)
    if len(allowed) < 3:
        return ok, scale, normalized, np.full_like(lead, np.nan), b, residual
    a = normalized[..., allowed[1] - 1]
    return ok & (np.abs(a) > PATTERN_TOL), scale, normalized, a, b, residual


def classify_1d_paper(x: AlgebraElement) -> OneDimRepresentative:
    """Normalize a nonzero element through the seven-case split: row 0 of
    classify_1d_many of the one-row array of x."""
    return classify_1d_many(x.as_array()[None]).representative(0)


def classify_1d_many(coords: np.ndarray) -> OneDimBatch:
    """Normalize every row of an (n, 6) array through the seven-case split.

    The case tag is picked from the vanishing pattern of the translation
    coordinates.  The rows of one tag try its published parameter recipe
    verbatim, then the case pattern without motion.  Every row left (the
    rotation-part invariants frequently make the pattern unreachable) takes
    the screw canonical form, the translations and the screws as one group
    each; it yields a verified word, fallback=True and a fixed pattern: A12
    for a translation, else A14, or A11 where the pitch is too small for A14
    to verify.  The work is done on each row divided by its largest
    absolute coordinate, so a row's result depends neither on its magnitude
    nor on the other rows.  Raises AssertionError naming the first row that
    meets no fallback pattern, and ValueError naming the first row whose
    scale overflows float64 (its largest coordinate is subnormal).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != DIM:
        raise ValueError(f"expected an (n, {DIM}) array, got shape {coords.shape}")
    if not np.isfinite(coords).all():
        raise ValueError("non-finite coordinate")
    nonzero = coords.any(axis=1)
    if not nonzero.all():
        raise ValueError(f"cannot classify the zero element (row {int(np.argmin(nonzero))})")
    unit, m = _unit(coords)
    n = len(unit)
    tags = _case_tags(unit)
    out_tags = tags.copy()
    a, b, scale, disallowed = np.full(n, np.nan), np.zeros(n), np.zeros(n), np.zeros(n)
    fallback = np.ones(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    representatives = np.zeros((n, DIM))
    steps: List[Tuple[int, np.ndarray]] = []

    def take(rows, group_steps, moved, targets):
        """Check the patterns of targets in order on the moved coordinates of
        rows, each taking the rows not yet taken that meet it, until none is
        left; append group_steps for the taken rows as columns, 0 in every
        other row.  Returns which of rows were taken."""
        taken = np.zeros(len(rows), dtype=bool)
        for tag in targets:
            if taken.all():
                break
            ok, s, normalized, ca, cb, residual = _normalize_to_case(moved, tag)
            ok &= ~taken
            kept = rows[ok]
            out_tags[kept] = tag
            a[kept], b[kept], scale[kept], disallowed[kept] = ca[ok], cb[ok], s[ok], residual[ok]
            representatives[kept] = normalized[ok]
            taken |= ok
        done[rows[taken]] = True
        for index, parameter in group_steps if taken.any() else ():
            column = np.zeros(n)
            column[rows[taken]] = np.broadcast_to(parameter, taken.shape)[taken]
            steps.append((index, column))
        return taken

    for tag in CASE_TAGS:
        rows = np.flatnonzero(tags == tag)
        if not rows.size:
            continue
        defined, recipe = _recipe(tag, unit[rows])
        tried = rows[defined]
        recipe = [(index, p[defined]) for index, p in recipe]
        fallback[tried[take(tried, recipe, _apply_steps(recipe, unit[tried]), (tag,))]] = False
        # already in the case pattern without any motion
        rows = rows[~done[rows]]
        take(rows, (), unit[rows], (tag,))
    translation = _is_translation(unit)
    for regime in (True, False):
        rows = np.flatnonzero(~done & (translation == regime))
        if rows.size:
            take(rows, *_screw_steps(unit[rows], regime))
    if not done.all():
        row = int(np.argmin(done))
        raise AssertionError(
            f"screw canonical form meets no fallback pattern for row {row}: {coords[row].tolist()}"
        )
    scale = _scale(scale, m, coords)
    return OneDimBatch(out_tags, a, b, scale, fallback, representatives, disallowed, tuple(steps))


# ---------------------------------------------------------------------------
# orbit equivalence
# ---------------------------------------------------------------------------


def proportionality_scale(mapped: AlgebraElement, target: AlgebraElement) -> Optional[float]:
    """lam with mapped = lam * target, or None.

    Both sides are compared at unit scale (divided by their largest absolute
    coordinate), so the verdict does not depend on the magnitude of either.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        (mu, m_max), (tu, t_max) = _unit(mapped.as_array()), _unit(target.as_array())
    if not (0.0 < m_max < math.inf and 0.0 < t_max < math.inf):
        return None
    ratio = float(mu @ tu) / float(tu @ tu)
    if np.abs(mu - ratio * tu).max() > PATTERN_TOL * max(1.0, abs(ratio)):
        return None
    lam = ratio * float(m_max / t_max)
    if lam == 0.0 or not math.isfinite(lam):
        return None
    return lam


def equivalence_search(x: AlgebraElement, y: AlgebraElement) -> Optional[AdjointWord]:
    """Word w with Ad_w(x) proportional to y, or None.

    Screw invariants are compared first, exactly where both sides are exact:
    kinds must agree and, for screws, the pitches (scale-free) must match.
    When they do, the words canonicalizing both sides compose into a
    witness, checked at unit scale by unit_proportionality; canonicalizing
    x / max|x| gives the words and pitch of x, and no scale to overflow.
    """
    if x.is_zero() or y.is_zero():
        raise ValueError("equivalence is defined for nonzero elements")
    if x.tower == y.tower == "exact" and pitch_of(x) != pitch_of(y):
        return None
    sx = canonicalize_screw(AlgebraElement.numeric(_unit(x.as_array())[0]))
    sy = canonicalize_screw(AlgebraElement.numeric(_unit(y.as_array())[0]))
    if sx.kind != sy.kind:
        return None
    if sx.kind == "screw":
        if abs(sx.pitch - sy.pitch) > PATTERN_TOL * max(1.0, abs(sx.pitch), abs(sy.pitch)):
            return None
    word = sx.word.concat(sy.word.inverse()).simplified(tol=1e-12)
    if unit_proportionality(word, x, y) is None:
        return None
    return word


def unit_proportionality(
    word: AdjointWord, x: AlgebraElement, y: AlgebraElement
) -> Optional[float]:
    """proportionality_scale of Ad_word(x / max|x|) to y / max|y|: at unit
    scale the replay cannot overflow, nor the factor underflow."""
    mapped = apply_word(word, AlgebraElement.numeric(_unit(x.as_array())[0]))
    return proportionality_scale(mapped, AlgebraElement.numeric(_unit(y.as_array())[0]))


# ---------------------------------------------------------------------------
# printed subalgebra lists
# ---------------------------------------------------------------------------


# the printed subalgebras by case, in the order of the published lists: the
# generators, or a function of the parameter a giving them.  The sixth pair is
# also checked in the variant its own derivation uses (the rotation about the
# first axis replaced by the one about the third).
PRINTED_SUBALGEBRAS: Dict[str, Union[Tuple[AlgebraElement, ...], Callable]] = {
    "A2_1": (X2, X5),
    "A2_2": (X3, X6),
    "A2_3": lambda a: (X1, X2 + a * X4),
    "A2_4": lambda a: (X1, X3 + a * X4),
    "A2_5": lambda a: (X2, X3 + a * X5),
    "A2_6": lambda a: (X3, X1 + a * X4),
    "A2_6_proof_variant": lambda a: (X3, X1 + a * X6),
    "A3": lambda a: (X1 + a * X4, X2, X3),
    "A4": (X1, X2, X3, X4),
}


class SubalgebraVerdict(NamedTuple):
    """Independence and the closure verdict of one printed entry: for a
    closed span its commutativity and structure constants, for an open one
    the first bracket outside it (see ClosureVerdict)."""

    case: str
    a: Optional[Fraction]
    generators: Tuple[AlgebraElement, ...]
    independent: bool
    closed: bool
    abelian: Optional[bool] = None
    witness_pair: Optional[Tuple[int, int]] = None
    witness: Optional[AlgebraElement] = None
    structure: Optional[Tuple[Tuple[Tuple[Fraction, ...], ...], ...]] = None

    @property
    def table(self) -> List[List[AlgebraElement]]:
        """The commutator table of the generators, computed on each read
        (raises DependentBasisError where they are dependent)."""
        return commutator_table(self.generators)


def _verdict(case: str, a: Optional[Fraction], generators) -> SubalgebraVerdict:
    try:
        basis = SubalgebraBasis(generators)
    except ValueError:
        return SubalgebraVerdict(case, a, generators, False, False)
    return SubalgebraVerdict(case, a, generators, True, *closure_check(basis))


def _printed_verdicts(prefixes: Tuple[str, ...], a_grid: Sequence) -> List[SubalgebraVerdict]:
    """Verdicts of the printed entries whose case starts with one of the
    prefixes, in table order, a parametrized entry once per a of a_grid."""
    out = []
    for case, make in PRINTED_SUBALGEBRAS.items():
        if not case.startswith(prefixes):
            continue
        if callable(make):
            out.extend(_verdict(case, a, make(a)) for a in map(Fraction, a_grid))
        else:
            out.append(_verdict(case, None, make))
    return out


def verify_2d_list(a_grid: Sequence) -> List[SubalgebraVerdict]:
    """Verdicts of the printed pairs, the proof variant of the sixth included."""
    return _printed_verdicts(("A2",), a_grid)


def verify_3d_4d(a_grid: Sequence) -> List[SubalgebraVerdict]:
    """Verdicts of the printed 3- and 4-dimensional subalgebras; a closed
    one's structure constants give its table in its generators' letters."""
    return _printed_verdicts(("A3", "A4"), a_grid)


# ---------------------------------------------------------------------------
# hyperplane (codimension-1) closure scan
# ---------------------------------------------------------------------------


class HyperplaneScan(NamedTuple):
    grid_points: int
    random_samples: int
    min_residual: float
    found: Optional[Tuple[float, ...]]


# a hyperplane is the kernel of a covector lam; it is a subalgebra exactly
# when lam ^ dlam = 0 (Frobenius), with dlam(a, b) = -lam([X_a, X_b]).  Each
# component (lam ^ dlam)(X_a, X_b, X_c), a < b < c, is a quadric in lam.
Quadric = Dict[Tuple[int, int], int]


@functools.lru_cache(maxsize=None)
def frobenius_quadrics() -> Dict[Tuple[int, int, int], Quadric]:
    """Nonzero components of lam ^ dlam, keyed by 0-based triples a < b < c.

    Each quadric maps a monomial lam_i*lam_j (i <= j, 0-based) to its exact
    coefficient in (lam ^ dlam)(a, b, c) =
    lam_a dlam(b, c) - lam_b dlam(a, c) + lam_c dlam(a, b).
    """
    table = {}
    for a, b, c in itertools.combinations(range(DIM), 3):
        quadric: Quadric = {}
        for sign, outer, (i, j) in ((1, a, (b, c)), (-1, b, (a, c)), (1, c, (a, b))):
            for k in range(DIM):
                if SE3[i][j][k]:
                    key = (min(outer, k), max(outer, k))
                    quadric[key] = quadric.get(key, 0) - sign * SE3[i][j][k]
        quadric = {key: value for key, value in quadric.items() if value}
        if quadric:
            table[(a, b, c)] = quadric
    return table


@functools.lru_cache(maxsize=None)
def diagonal_quadrics() -> Dict[Tuple[int, int, int], Quadric]:
    """The entries of frobenius_quadrics whose monomials are all squares."""
    return {t: q for t, q in frobenius_quadrics().items() if all(i == j for i, j in q)}


@functools.lru_cache(maxsize=None)
def _diagonal_columns() -> Tuple[Tuple[int, ...], ...]:
    """The coordinates squared in each diagonal quadric, ascending."""
    return tuple(tuple(sorted(i for i, _ in q)) for q in diagonal_quadrics().values())


# rows floored and evaluated at once: a (2048, 6) float array is 96 KB, below
# glibc's 128 KB mmap threshold, so the heap reuses every temporary; 1,024-row
# slices made a 1M scan slower, and 4,096 saved no time
_SLICE = 2048


def _residuals(lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of lam normalized, and max |lam ^ dlam| of each.

    |lam|^2 is summed coordinate by coordinate, the order np.linalg.norm
    takes along a row.  Every quadric coefficient is +-1, so each term
    float(c) * (lam_i * lam_j) is exact and a quadric is its products added
    in term order.
    """
    coords = np.ascontiguousarray(lam.T)
    coords = coords / np.sqrt(sum(np.square(coords)))
    residual = np.zeros(len(lam))
    for quadric in frobenius_quadrics().values():
        q = sum(float(c) * (coords[i] * coords[j]) for (i, j), c in quadric.items())
        np.maximum(residual, np.abs(q), out=residual)
    return coords.T, residual


def _floor(lam: np.ndarray) -> np.ndarray:
    """Each row's largest diagonal quadric over |lam|^2: a lower bound on its
    residual, which hyperplane_certificate proves to be at least 2/5.

    A diagonal quadric adds its squares with one sign, so its absolute value
    is their plain sum.  Taken from raw squares, the quotient differs from
    the same quadric of the rounded unit row by ~20 ulp, far inside the
    scan's 1e-12 margin.
    """
    squares = np.square(lam.T)
    largest = None
    for first, *rest in _diagonal_columns():
        total = squares[first]
        for i in rest:
            total = total + squares[i]
        largest = total if largest is None else np.maximum(largest, total)
    return largest / sum(squares[1:], squares[0])


@functools.lru_cache(maxsize=None)
def _integer_grid() -> np.ndarray:
    """Nonzero integer covectors with entries in -2..2, in itertools.product
    order (int8, read-only)."""
    grid = np.indices((5,) * DIM, dtype=np.int8).reshape(DIM, -1).T - 2
    grid = grid[grid.any(axis=1)]
    grid.flags.writeable = False
    return grid


def hyperplane_scan(samples: int, seed: int) -> HyperplaneScan:
    """Scan the deterministic grid plus random unit covectors for a closed
    5-dimensional subalgebra (a falsification search; hyperplane_certificate
    is the proof).

    found, when min_residual is at or below CLOSURE_THRESHOLD, is the first
    unit covector that reaches it, as six floats.
    """
    for name, value in (("samples", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    grid = _integer_grid()
    # the grid, then the draws, in slices of at most _SLICE rows; the draws
    # read the same default_rng stream as one (samples, 6) draw
    rng = np.random.default_rng(seed)
    grid_slices = (grid[k : k + _SLICE].astype(float) for k in range(0, len(grid), _SLICE))
    draws = (rng.standard_normal((min(_SLICE, samples - k), DIM)) for k in range(0, samples, _SLICE))
    min_residual, best_row = math.inf, None
    for lam in itertools.chain(grid_slices, draws):
        # a slice whose residuals all exceed the minimum so far cannot lower it
        if _floor(lam).min() > min_residual * (1 + 1e-12):
            continue
        unit, residuals = _residuals(lam)
        i = int(np.argmin(residuals))
        if residuals[i] < min_residual:  # ties keep the first occurrence
            min_residual, best_row = float(residuals[i]), tuple(unit[i].tolist())
    found = best_row if min_residual <= CLOSURE_THRESHOLD else None
    return HyperplaneScan(len(grid), samples, min_residual, found)


class HyperplaneCertificate(NamedTuple):
    """Exact proof that no hyperplane of se(3) is closed: on a unit covector
    max |lam ^ dlam| is at least residual_floor (2/5), and witness attains it.

    The k diagonal quadrics on lam_1..lam_3 (three) cover each of those
    squares twice with one sign each, so the largest is at least 2t / k,
    t = lam_1^2 + lam_2^2 + lam_3^2; the one left is lam_4^2 + lam_5^2 +
    lam_6^2 = 1 - t.  And max(2t / k, 1 - t) >= 2 / (2 + k).
    """

    diagonal: Dict[Tuple[int, int, int], Quadric]
    residual_floor: Fraction
    witness: Tuple[int, ...]


def hyperplane_certificate() -> HyperplaneCertificate:
    """Check the cover of the squares and the witness exactly; raises
    ArithmeticError where either fails."""
    diagonal = diagonal_quadrics()
    inner = [c for c in _diagonal_columns() if c[-1] < 3]
    if (
        any(set(q.values()) not in ({1}, {-1}) for q in diagonal.values())
        or sorted(i for c in inner for i in c) != [0, 0, 1, 1, 2, 2]
        or [c for c in _diagonal_columns() if c not in inner] != [(3, 4, 5)]
    ):
        raise ArithmeticError("the diagonal quadrics do not cover the squares of lam")
    floor = Fraction(2, 2 + len(inner))
    w = (-2, -2, -2, -2, -2, 0)  # no quadric exceeds 2/5 |w|^2 here
    values = (sum(c * w[i] * w[j] for (i, j), c in q.items()) for q in frobenius_quadrics().values())
    if max(map(abs, values)) != floor * sum(x * x for x in w):
        raise ArithmeticError(f"the witness {w} does not attain the floor {floor}")
    return HyperplaneCertificate(diagonal, floor, w)

"""Numeric checks that the six point-symmetry flows map solutions to
solutions of (laplacian of u) = f(u).

Fields are plain evaluators on the test box [-1, 1]^3, taking coordinates
as floats or as arrays (the built-in families are entire functions, so
composing with rigid motions keeps them total).  Residuals use central
second differences, evaluated over arrays of points; flows use a fixed-step
classical fourth-order integrator, applied through the affine map of one
step, so everything is deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

BOX_HALF_WIDTH = 1.0
DEFAULT_STEP = 1e-3
MAX_STEPS = 2**62
# verify_invariance draws and evaluates its points this many at a time
SAMPLE_BLOCK = 4096

Point = Tuple[float, float, float]


class OutsideBoxError(ValueError):
    """Residual sampling left the test box."""


class FlowError(ArithmeticError):
    """The flow integration produced a non-finite state."""


class SourceTerm(NamedTuple):
    """Right-hand side family f(u)."""

    kind: str  # zero | constant | linear
    value: float = 0.0

    def __call__(self, u):
        return u if self.kind == "linear" else self.value


class ScalarField(NamedTuple):
    """Candidate solution u = h(x, y, z) with the source family it solves;
    the evaluator takes floats or arrays of coordinates."""

    evaluator: Callable
    source: SourceTerm

    def __call__(self, px, py, pz):
        return self.evaluator(px, py, pz)


def builtin_fields() -> Dict[str, ScalarField]:
    """Verified solution families: harmonic polynomials for the vanishing
    source, the squared radius for the constant source 6, exp(x) for the
    linear source."""
    return {
        "xy": ScalarField(lambda px, py, pz: px * py, SourceTerm("zero")),
        "x2_minus_y2": ScalarField(lambda px, py, pz: px * px - py * py, SourceTerm("zero")),
        "r2": ScalarField(lambda px, py, pz: px * px + py * py + pz * pz, SourceTerm("constant", 6.0)),
        "exp_x": ScalarField(lambda px, py, pz: np.exp(px), SourceTerm("linear")),
    }


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


class FlowResult(NamedTuple):
    """End state of a batch of flows.

    ``endpoint`` is the (m, 3) array of end points; ``steps`` is the number
    of RK4 steps summed over rows.
    """

    endpoint: np.ndarray
    steps: int


def _rk4_step(v: np.ndarray, w: np.ndarray, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One classical RK4 step of size h along the field v + w x p.

    Arguments broadcast over leading axes; the last axis holds components.
    """

    def velocity(q: np.ndarray) -> np.ndarray:
        return v + np.cross(w, q)

    a = velocity(p)
    b = velocity(p + 0.5 * h * a)
    c = velocity(p + 0.5 * h * b)
    d = velocity(p + h * c)
    return p + (h / 6.0) * (a + 2 * b + 2 * c + d)


def _vecmat(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row vectors times 3x3 matrices, row by row, with a fixed summation order."""
    return p[:, 0:1] * m[:, 0] + p[:, 1:2] * m[:, 1] + p[:, 2:3] * m[:, 2]


def _matmat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of 3x3 matrices, row by row, with a fixed summation order."""
    return (
        a[:, :, 0:1] * b[:, None, 0] + a[:, :, 1:2] * b[:, None, 1] + a[:, :, 2:3] * b[:, None, 2]
    )


def flow(coords: np.ndarray, s: np.ndarray, points: np.ndarray) -> FlowResult:
    """Integrate the one-parameter flows of m fields, one per row.

    coords is an (m, 6) array of coordinates over X_1..X_6, s the (m,)
    parameters and points the (m, 3) start points.  Each row takes
    n = max(1, ceil(|s| / DEFAULT_STEP)) RK4 steps of size s / n.  The field
    v + w x p is affine in p, so one RK4 step is an affine map
    p -> p L + c, and n steps are applied by binary powering of that map:
    about log2(n) vectorized passes instead of n.
    """
    coords = np.asarray(coords, dtype=float)
    s = np.asarray(s, dtype=float)
    points = np.array(points, dtype=float)
    if s.ndim != 1 or coords.shape != (len(s), 6) or points.shape != (len(s), 3):
        raise ValueError(
            "flow takes coords (m, 6), s (m,) and points (m, 3), "
            f"got {coords.shape}, {s.shape} and {points.shape}"
        )
    for name, arr in (("coords", coords), ("s", s), ("points", points)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    m = len(s)

    wanted = np.abs(s) / DEFAULT_STEP
    if (wanted > MAX_STEPS).any():
        raise ValueError(f"|s| / step asks for more than {MAX_STEPS} steps")
    n = np.maximum(1, np.ceil(wanted)).astype(np.int64)
    h = s / n
    v, w = coords[:, :3], coords[:, 3:]
    with np.errstate(over="ignore", invalid="ignore"):
        # c is the step from the origin; row j of lin is the step of the
        # homogeneous field w x p from e_j, the linear part of the map
        c = _rk4_step(v, w, np.zeros((m, 3)), h[:, None])
        lin = _rk4_step(0.0, w[:, None, :], np.broadcast_to(np.eye(3), (m, 3, 3)), h[:, None, None])
        # one pass per bit of n: the rows whose bit is set take the map, then
        # every map is squared (a finished row's may overflow, never applied)
        for bit in range(int(n.max(initial=0)).bit_length()):
            odd = (n >> bit & 1).astype(bool)
            points[odd] = _vecmat(points[odd], lin[odd]) + c[odd]
            lin, c = _matmat(lin, lin), _vecmat(c, lin) + c
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise FlowError(f"flow diverged: row {row} ends at {tuple(map(float, points[row]))}")
    steps = int(n.sum(dtype=object))
    return FlowResult(points, steps)


# ---------------------------------------------------------------------------
# the six closed-form solution transformations
# ---------------------------------------------------------------------------


def rigid_motion(k: int, s, px, py, pz):
    """Image of (px, py, pz) under exp(s X_k), k in 1..6: a translation along
    an axis or a rotation about one.  Floats or arrays that broadcast."""
    if not 1 <= k <= 6:
        raise ValueError(f"generator index {k} out of range 1..6")
    p = [px, py, pz]
    if k <= 3:
        p[k - 1] = p[k - 1] + s
        return tuple(p)
    # the two coordinates that turn, in cyclic order after the axis k - 3
    i, j = k % 3, (k + 1) % 3
    c, sn = np.cos(s), np.sin(s)
    p[i], p[j] = p[i] * c - p[j] * sn, p[j] * c + p[i] * sn
    return tuple(p)


def transform_solution(k: int, s: float, h: ScalarField) -> ScalarField:
    """The transported solution g_k(s) . h; same source family."""
    previous = h.evaluator
    return ScalarField(lambda px, py, pz: previous(*rigid_motion(k, s, px, py, pz)), h.source)


def pde_residual(h: ScalarField, source: SourceTerm, p, step: float):
    """Central-difference laplacian minus the source, O(step^2) accurate.

    p is one point, for a float, or an (n, 3) array, for the n residuals;
    every row is computed by the same element-wise arithmetic.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    points = np.asarray(p, dtype=float)
    rows = np.atleast_2d(points)
    px, py, pz = rows.T
    outside = (np.abs(rows) > BOX_HALF_WIDTH - 2 * step).any(axis=1)
    if outside.any():
        row = tuple(map(float, rows[np.argmax(outside)]))
        raise OutsideBoxError(f"point {row} closer than 2*step to the box boundary")
    center = h(px, py, pz)
    lap = (
        h(px + step, py, pz) + h(px - step, py, pz)
        + h(px, py + step, pz) + h(px, py - step, pz)
        + h(px, py, pz + step) + h(px, py, pz - step)
        - 6.0 * center
    ) / (step * step)
    # a field that ignores its coordinates (a constant) gives a scalar
    residual = np.full(px.shape, lap - source(center))
    return float(residual[0]) if points.ndim == 1 else residual


def verify_invariance(
    h: ScalarField,
    source: SourceTerm,
    k: int,
    s: float,
    samples: int,
    seed: int,
    step: float = DEFAULT_STEP,
) -> float:
    """Max |residual| of the transported field at seeded interior points.

    The points are drawn and evaluated SAMPLE_BLOCK rows at a time; the
    blocks are the rows of one (samples, 3) draw from the seeded stream.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    transported = transform_solution(k, s, h)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, samples, SAMPLE_BLOCK):
        points = rng.uniform(-0.9, 0.9, size=(min(SAMPLE_BLOCK, samples - start), 3))
        worst = np.maximum(worst, np.abs(pde_residual(transported, source, points, step)).max())
    return float(worst)


def flow_vs_closed_form(
    k: Union[int, Sequence[int]], s_grid: Sequence[float], point_grid: Sequence[Point]
) -> float:
    """Max distance between the integrated flow and the closed coordinate map,
    over every generator k (one index or a sequence of them) and every (s, p)
    of the grids, integrated as one batch."""
    ks = [k] if np.ndim(k) == 0 else list(k)
    s_rows = np.repeat(np.asarray(s_grid, dtype=float), len(point_grid))
    p_rows = np.tile(np.asarray(point_grid, dtype=float).reshape(-1, 3), (len(s_grid), 1))
    reference = np.concatenate([np.column_stack(rigid_motion(g, s_rows, *p_rows.T)) for g in ks])
    basis = np.eye(6)[np.repeat(np.asarray(ks, dtype=int) - 1, len(s_rows))]
    integrated = flow(basis, np.tile(s_rows, len(ks)), np.tile(p_rows, (len(ks), 1))).endpoint
    return float(np.abs(integrated - reference).max(initial=0.0))


# ---------------------------------------------------------------------------
# the solution-transformation experiment
# ---------------------------------------------------------------------------

SOLUTION_PARAMETERS = (0.3, -0.7)
FLOW_S_GRID = tuple(t / 4 for t in range(-4, 5))
FLOW_POINTS: Tuple[Point, ...] = ((0.3, 0.4, 0.5), (-0.2, 0.7, -0.1), (0.05, -0.6, 0.3))
CONVERGENCE_STEPS = (4e-3, 2e-3)
RESIDUAL_BOUND = 1e-6
FLOW_BOUND = 1e-8
CONVERGENCE_RANGE = (3.5, 4.5)


class SolutionChecks(NamedTuple):
    """Residuals of the transported solutions, flow error and convergence."""

    residuals: Dict[str, Dict[int, float]]  # family -> generator -> max |residual|
    convergence_ratio: float
    flow_error: float

    def family_max(self) -> Dict[str, float]:
        return {name: max(by_k.values()) for name, by_k in self.residuals.items()}

    def holds(self) -> bool:
        low, high = CONVERGENCE_RANGE
        return (
            all(worst <= RESIDUAL_BOUND for worst in self.family_max().values())
            and self.flow_error <= FLOW_BOUND
            and low <= self.convergence_ratio <= high
        )


def check_solutions(
    samples: int, seed: int, families: Optional[Sequence[str]] = None
) -> SolutionChecks:
    """Transport every built-in family (or the named ones) by each of the six
    generators at SOLUTION_PARAMETERS, integrate the six flows over
    FLOW_S_GRID x FLOW_POINTS, and measure the convergence order of the
    residual of exp(x) at the origin."""
    fields = builtin_fields()
    names = fields if families is None else families
    residuals = {
        name: {
            k: max(
                verify_invariance(fields[name], fields[name].source, k, s, samples, seed)
                for s in SOLUTION_PARAMETERS
            )
            for k in range(1, 7)
        }
        for name in names
    }
    exp_field = fields["exp_x"]
    coarse, fine = (
        abs(pde_residual(exp_field, exp_field.source, (0.0, 0.0, 0.0), step))
        for step in CONVERGENCE_STEPS
    )
    flow_error = flow_vs_closed_form(range(1, 7), FLOW_S_GRID, FLOW_POINTS)
    return SolutionChecks(residuals, coarse / fine, flow_error)

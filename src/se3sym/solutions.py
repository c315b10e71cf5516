"""Numeric checks that the six point-symmetry flows map solutions to
solutions of (laplacian of u) = f(u).

Fields are plain evaluators on the test box [-1, 1]^3 (the built-in families
are entire functions, so composing with rigid motions keeps them total).
Residuals use central second differences; flows use a fixed-step classical
fourth-order integrator, applied through the affine map of one step, so
everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import AlgebraElement

BOX_HALF_WIDTH = 1.0
DEFAULT_STEP = 1e-3
MAX_STEPS = 2**62

Point = Tuple[float, float, float]


class OutsideBoxError(ValueError):
    """Residual sampling left the test box."""


class FlowError(ArithmeticError):
    """The flow integration produced a non-finite state."""


@dataclass(frozen=True)
class SourceTerm:
    """Right-hand side family f(u)."""

    kind: str  # zero | constant | linear | custom
    value: float = 0.0
    func: Optional[Callable[[float], float]] = None

    @classmethod
    def zero(cls) -> "SourceTerm":
        return cls("zero")

    @classmethod
    def constant(cls, value: float) -> "SourceTerm":
        return cls("constant", float(value))

    @classmethod
    def linear(cls) -> "SourceTerm":
        return cls("linear")

    @classmethod
    def custom(cls, func: Callable[[float], float]) -> "SourceTerm":
        return cls("custom", func=func)

    def __call__(self, u: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "linear":
            return u
        return self.func(u)


@dataclass(frozen=True)
class ScalarField:
    """Candidate solution u = h(x, y, z) with the source family it solves."""

    evaluator: Callable[[float, float, float], float]
    label: str
    source: SourceTerm

    def __call__(self, px: float, py: float, pz: float) -> float:
        return self.evaluator(px, py, pz)


def builtin_fields() -> Dict[str, ScalarField]:
    """Verified solution families: harmonic polynomials for the vanishing
    source, the squared radius for the constant source 6, exp(x) for the
    linear source."""
    return {
        "xy": ScalarField(lambda px, py, pz: px * py, "xy", SourceTerm.zero()),
        "x2_minus_y2": ScalarField(
            lambda px, py, pz: px * px - py * py, "x^2 - y^2", SourceTerm.zero()
        ),
        "r2": ScalarField(
            lambda px, py, pz: px * px + py * py + pz * pz,
            "x^2 + y^2 + z^2",
            SourceTerm.constant(6.0),
        ),
        "exp_x": ScalarField(
            lambda px, py, pz: math.exp(px), "exp(x)", SourceTerm.linear()
        ),
    }


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowResult:
    """End state of one flow, or of a batch of flows.

    ``endpoint`` is the tuple (x, y, z, u) for a single flow and an (m, 4)
    array for a batch; ``steps`` is the number of RK4 steps summed over rows.
    """

    endpoint: Union[Tuple[float, float, float, float], np.ndarray]
    steps: int
    method_order: int = 4


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


def _as_rows(value, width: int, name: str) -> np.ndarray:
    """Finite float array of one value (width 0) or one width-vector, or of
    one of them per row."""
    arr = np.asarray(value.as_array() if isinstance(value, AlgebraElement) else value, dtype=float)
    single = (width,) if width else ()
    if arr.shape[arr.ndim - len(single):] != single or arr.ndim > len(single) + 1:
        raise ValueError(f"{name} must have shape {single} or {('m',) + single}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def flow(
    x_elem: Union[AlgebraElement, np.ndarray],
    s: Union[float, np.ndarray],
    p: Union[Point, np.ndarray],
    u0: float = 0.0,
    step: float = DEFAULT_STEP,
) -> FlowResult:
    """Integrate the one-parameter flow of the field for parameter s.

    x_elem is an element or an (m, 6) coordinate array, s a scalar or (m,),
    p a point or (m, 3); they broadcast over rows.  Each row takes
    n = max(1, ceil(|s| / step)) RK4 steps of size s / n.  The field
    v + w x p is affine in p, so one RK4 step is an affine map
    p -> p L + c, and n steps are applied by binary powering of that map:
    about log2(n) vectorized passes instead of n.

    The u component rides along unchanged: the rigid generators have no
    u-part, and general u-parts are out of scope here.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    coords = _as_rows(x_elem, 6, "x_elem")
    s_arr = _as_rows(s, 0, "s")
    points = _as_rows(p, 3, "p")
    shape = np.broadcast_shapes(coords.shape[:-1], s_arr.shape, points.shape[:-1])
    m = shape[0] if shape else 1
    coords = np.broadcast_to(coords, (m, 6))
    s_arr = np.broadcast_to(s_arr, (m,))
    points = np.array(np.broadcast_to(points, (m, 3)))

    wanted = np.abs(s_arr) / step
    if (wanted > MAX_STEPS).any():
        raise ValueError(f"|s| / step asks for more than {MAX_STEPS} steps")
    n = np.maximum(1, np.ceil(wanted)).astype(np.int64)
    h = s_arr / n
    v, w = coords[:, :3], coords[:, 3:]
    with np.errstate(over="ignore", invalid="ignore"):
        # c is the step from the origin; row j of lin is the step of the
        # homogeneous field w x p from e_j, the linear part of the map
        c = _rk4_step(v, w, np.zeros((m, 3)), h[:, None])
        lin = _rk4_step(0.0, w[:, None, :], np.broadcast_to(np.eye(3), (m, 3, 3)), h[:, None, None])
        # rows still to advance, their remaining bits of n, and the map
        # raised to the power of the current bit
        rows, left = np.arange(m), n
        while rows.size:
            odd = (left & 1).astype(bool)
            points[rows[odd]] = _vecmat(points[rows[odd]], lin[odd]) + c[odd]
            left = left >> 1
            more = left > 0
            rows, left, lin, c = rows[more], left[more], lin[more], c[more]
            if rows.size:
                lin, c = _matmat(lin, lin), _vecmat(c, lin) + c
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise FlowError(f"flow diverged: row {row} ends at {tuple(map(float, points[row]))}")
    steps = int(n.sum(dtype=object))
    if not shape:
        return FlowResult((*(float(x) for x in points[0]), float(u0)), steps)
    return FlowResult(np.column_stack([points, np.full(m, float(u0))]), steps)


def flow_point(x_elem: AlgebraElement, s, p):
    """(x, y, z) of the flow's endpoint: a tuple for one flow, (m, 3) for a batch."""
    endpoint = flow(x_elem, s, p).endpoint
    return endpoint[:3] if isinstance(endpoint, tuple) else endpoint[:, :3]


# ---------------------------------------------------------------------------
# the six closed-form solution transformations
# ---------------------------------------------------------------------------


def _coordinate_map(k: int, s: float) -> Callable[[float, float, float], Point]:
    c, sn = math.cos(s), math.sin(s)
    if k == 1:
        return lambda px, py, pz: (px + s, py, pz)
    if k == 2:
        return lambda px, py, pz: (px, py + s, pz)
    if k == 3:
        return lambda px, py, pz: (px, py, pz + s)
    if k == 4:
        return lambda px, py, pz: (px, py * c - pz * sn, pz * c + py * sn)
    if k == 5:
        return lambda px, py, pz: (px * c + pz * sn, py, pz * c - px * sn)
    if k == 6:
        return lambda px, py, pz: (px * c - py * sn, px * sn + py * c, pz)
    raise ValueError(f"generator index {k} out of range 1..6")


def transform_solution(k: int, s: float, h: ScalarField) -> ScalarField:
    """The transported solution g_k(s) . h; same source family."""
    inner = _coordinate_map(k, s)
    previous = h.evaluator
    return ScalarField(
        lambda px, py, pz: previous(*inner(px, py, pz)),
        f"g{k}({s:g}).{h.label}",
        h.source,
    )


def pde_residual(h: ScalarField, source: SourceTerm, p: Point, step: float) -> float:
    """Central-difference laplacian minus the source, O(step^2) accurate."""
    if step <= 0:
        raise ValueError("step must be positive")
    px, py, pz = p
    margin = BOX_HALF_WIDTH - 2 * step
    if abs(px) > margin or abs(py) > margin or abs(pz) > margin:
        raise OutsideBoxError(f"point {p} closer than 2*step to the box boundary")
    center = h(px, py, pz)
    lap = (
        h(px + step, py, pz) + h(px - step, py, pz)
        + h(px, py + step, pz) + h(px, py - step, pz)
        + h(px, py, pz + step) + h(px, py, pz - step)
        - 6.0 * center
    ) / (step * step)
    return lap - source(center)


def verify_invariance(
    h: ScalarField,
    source: SourceTerm,
    k: int,
    s: float,
    samples: int,
    seed: int,
    step: float = DEFAULT_STEP,
) -> float:
    """Max |residual| of the transported field at seeded interior points."""
    transported = transform_solution(k, s, h)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.9, 0.9, size=(samples, 3))
    worst = 0.0
    for point in points:
        residual = pde_residual(transported, source, tuple(point), step)
        worst = max(worst, abs(residual))
    return worst


def flow_vs_closed_form(
    k: int, s_grid: Sequence[float], point_grid: Sequence[Point]
) -> float:
    """Max distance between the integrated flow and the closed coordinate map,
    over every (s, p) of the grids, integrated as one batch."""
    basis = AlgebraElement.numeric([1.0 if i == k - 1 else 0.0 for i in range(6)])
    s_rows = np.repeat(np.asarray(s_grid, dtype=float), len(point_grid))
    p_rows = np.tile(np.asarray(point_grid, dtype=float).reshape(-1, 3), (len(s_grid), 1))
    integrated = flow_point(basis, s_rows, p_rows)
    reference = np.array(
        [_coordinate_map(k, s)(*p) for s in s_grid for p in point_grid], dtype=float
    ).reshape(-1, 3)
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


@dataclass(frozen=True)
class SolutionChecks:
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
    flow_error = max(flow_vs_closed_form(k, FLOW_S_GRID, FLOW_POINTS) for k in range(1, 7))
    return SolutionChecks(residuals, coarse / fine, flow_error)

"""Exact symbolic engine on the second-order jet space of u(x, y, z).

Polynomials carry rational coefficients over the point variables x, y, z, u,
the jet coordinates u_x .. u_zz, and the opaque source atoms f, f', f''
(formal symbols differentiated by the rule d/du f = f', d/du f' = f'').
Their ring, printer and reader are poly.SparsePoly's; this module adds calculus.
The source function itself is never given a shape: an identity that must
hold "for every source" becomes a polynomial identity in the atoms.

Total derivatives respect the jet structure (d u / dx = u_x and so on) and
refuse to leave second order.  The jet coordinate u_J is named by its
multi-index J, the sorted string of its axes (u, u_x, u_xz, ...).  The second
prolongation of a point vector field lifts one axis at a time,

    phi^Jb = D_b(phi^J) - sum_i D_b(xi_i) u_Ji,    phi^() = phi,

for J empty and then J one axis, which stays inside second order term by term.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import AlgebraElement, basis_element
from .linalg import exact_rref, nullspace_from_rref
from .poly import Monomial, SparsePoly

VARIABLES: Tuple[str, ...] = (
    "x", "y", "z", "u",
    "u_x", "u_y", "u_z",
    "u_xx", "u_xy", "u_xz", "u_yy", "u_yz", "u_zz",
    "f", "f'", "f''",
)
NVARS = len(VARIABLES)
_INDEX: Dict[str, int] = {name: i for i, name in enumerate(VARIABLES)}

_ZERO_MONOMIAL = (0,) * NVARS
_AXES = ("x", "y", "z")


class OrderOverflowError(ValueError):
    """Total derivative would create a jet coordinate beyond second order."""


def _bump(mono: Monomial, *changes: Tuple[int, int]) -> Monomial:
    """Exponent tuple with each (index, delta) change applied."""
    out = list(mono)
    for idx, delta in changes:
        out[idx] += delta
    return tuple(out)


def _add_term(store: Dict[Monomial, Fraction], key: Monomial, value) -> None:
    """Add value * key to a term store."""
    old = store.get(key)
    store[key] = value if old is None else old + value


class JetPolynomial(SparsePoly):
    """Sparse polynomial over the jet coordinates and source atoms."""

    VARIABLES = VARIABLES

    __slots__ = ()

    def uses(self, names: Iterable[str]) -> bool:
        wanted = {_INDEX[n] for n in names}
        return any(mono[i] for mono in self.terms for i in wanted)

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "JetPolynomial":
        """Formal partial derivative; u-derivatives see the source atoms."""
        idx = _INDEX[name]
        chain = _SOURCE_CHAIN if name == "u" else ()
        if chain and self.uses(["f''"]):
            raise OrderOverflowError("source atom derivatives stop at order two")
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            if mono[idx]:
                _add_term(out, _bump(mono, (idx, -1)), coeff * mono[idx])
            for atom, derived in chain:
                if mono[atom]:
                    key = _bump(mono, (atom, -1), (derived, 1))
                    _add_term(out, key, coeff * mono[atom])
        return self._canonical(out)

    def total_derivative(self, direction: str) -> "JetPolynomial":
        """Total derivative along x, y, or z on jets of order at most one."""
        if direction not in _AXES:
            raise ValueError(f"direction must be x, y or z, got {direction!r}")
        table = _TOTAL_DERIVATIVE[direction]
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for idx, exp in enumerate(mono):
                if not exp:
                    continue
                if idx not in table:
                    raise OrderOverflowError(
                        f"total derivative of {JetPolynomial({mono: 1})} leaves second order"
                    )
                bumps = table[idx]
                if bumps is not None:
                    _add_term(out, _bump(mono, (idx, -1), *bumps), coeff * exp)
        return self._canonical(out)

    def substitute(self, name: str, replacement: "JetPolynomial") -> "JetPolynomial":
        """Replace every occurrence of a variable by a polynomial: each term
        becomes its monomial without the variable times replacement ** power."""
        idx = _INDEX[name]
        total = self.zero()
        for mono, coeff in self.terms.items():
            power = mono[idx]
            base = self._canonical({_bump(mono, (idx, -power)): coeff})
            total = total + base * replacement**power
        return total


_SOURCE_CHAIN = ((_INDEX["f"], _INDEX["f'"]), (_INDEX["f'"], _INDEX["f''"]))


def _jet(axes: str) -> str:
    """The jet coordinate u_J of the multi-index J, a string of axes."""
    return "u_" + "".join(sorted(axes)) if axes else "u"


# D_a of each variable index as exponent bumps of a monomial: () for 1, None
# for 0; a variable missing from the table (u_ab, f'') would leave second order
_TOTAL_DERIVATIVE: Dict[str, Dict[int, Optional[Tuple[Tuple[int, int], ...]]]] = {
    a: {
        **{_INDEX[b]: (() if b == a else None) for b in _AXES},
        **{_INDEX[_jet(J)]: ((_INDEX[_jet(J + a)], 1),) for J in ("",) + _AXES},
        **{atom: ((derived, 1), (_INDEX[_jet(a)], 1)) for atom, derived in _SOURCE_CHAIN},
    }
    for a in _AXES
}


# convenient handles
x, y, z, u = (JetPolynomial.variable(n) for n in ("x", "y", "z", "u"))
f_atom = JetPolynomial.variable("f")
f_prime = JetPolynomial.variable("f'")
ONE = JetPolynomial.constant(1)
# u_zz on solutions of the equation, which reduce_on_shell substitutes
_U_ZZ_ON_SHELL = f_atom - JetPolynomial.variable("u_xx") - JetPolynomial.variable("u_yy")


# ---------------------------------------------------------------------------
# point vector fields and prolongation
# ---------------------------------------------------------------------------

# the variables a point field may not use
_NON_POINT = tuple(n for n in VARIABLES if n not in ("x", "y", "z", "u"))


@dataclass(frozen=True)
class PointVectorField:
    """Vector field xi_1 dx + xi_2 dy + xi_3 dz + phi du on point space."""

    xi1: JetPolynomial
    xi2: JetPolynomial
    xi3: JetPolynomial
    phi: JetPolynomial

    def __post_init__(self):
        for label, component in self.components():
            if component.uses(_NON_POINT):
                raise ValueError(f"component {label} uses non-point variables")

    def components(self):
        return (
            ("xi1", self.xi1),
            ("xi2", self.xi2),
            ("xi3", self.xi3),
            ("phi", self.phi),
        )

    def xi(self) -> Tuple[JetPolynomial, JetPolynomial, JetPolynomial]:
        return (self.xi1, self.xi2, self.xi3)

    def apply_to(self, p: JetPolynomial) -> JetPolynomial:
        """Act as the derivation xi.grad + phi d/du on a point function."""
        return (
            self.xi1 * p.partial("x")
            + self.xi2 * p.partial("y")
            + self.xi3 * p.partial("z")
            + self.phi * p.partial("u")
        )

    @classmethod
    def parse(cls, spec: str) -> "PointVectorField":
        """Build from 'xi1; xi2; xi3; phi' in the printed polynomial form."""
        pieces = spec.split(";")
        if len(pieces) != 4:
            raise ValueError("field spec needs four ';'-separated components")
        return cls(*(JetPolynomial.parse(p) for p in pieces))


def vf_commutator(v: PointVectorField, w: PointVectorField) -> PointVectorField:
    """Lie bracket of point vector fields, componentwise v(w) - w(v)."""
    parts = []
    for (_, cv), (_, cw) in zip(v.components(), w.components()):
        parts.append(v.apply_to(cw) - w.apply_to(cv))
    return PointVectorField(*parts)


def element_field(element: AlgebraElement) -> PointVectorField:
    """The rigid-motion field of an se(3) element: xi = v + w x (x, y, z),
    phi = 0."""
    (v1, v2, v3), (w1, w2, w3) = element.v, element.w
    return PointVectorField(
        w2 * z - w3 * y + v1, w3 * x - w1 * z + v2, w1 * y - w2 * x + v3, JetPolynomial.zero()
    )


def rigid_basis_field(index: int) -> PointVectorField:
    """The basis generators X_1..X_6 realized as point vector fields."""
    return element_field(basis_element(index))


def dilation_field() -> PointVectorField:
    return PointVectorField(x, y, z, JetPolynomial.zero())


class Prolongation(NamedTuple):
    """The nine lifted coefficients of a second prolongation."""

    phi_x: JetPolynomial
    phi_y: JetPolynomial
    phi_z: JetPolynomial
    phi_xx: JetPolynomial
    phi_xy: JetPolynomial
    phi_xz: JetPolynomial
    phi_yy: JetPolynomial
    phi_yz: JetPolynomial
    phi_zz: JetPolynomial


def _xi_derivatives(v: PointVectorField) -> Dict[str, Tuple[JetPolynomial, ...]]:
    """D_b(xi_i) for every axis b, each computed once."""
    return {b: tuple(xi.total_derivative(b) for xi in v.xi()) for b in _AXES}


def _lift(phi_J: JetPolynomial, J: str, b: str, dxi_b: Sequence[JetPolynomial]) -> JetPolynomial:
    """phi^Jb = D_b(phi^J) - sum_i D_b(xi_i) u_Ji, dxi_b holding the D_b(xi_i)."""
    acc = phi_J.total_derivative(b)
    for axis, d in zip(_AXES, dxi_b):
        acc = acc - d * JetPolynomial.variable(_jet(J + axis))
    return acc


def second_prolongation(v: PointVectorField) -> Prolongation:
    dxi = _xi_derivatives(v)
    first = {a: _lift(v.phi, "", a, dxi[a]) for a in _AXES}
    return Prolongation(
        *first.values(),
        *(_lift(first[a], a, b, dxi[b]) for a, b in ("xx", "xy", "xz", "yy", "yz", "zz")),
    )


def reduce_on_shell(p: JetPolynomial) -> JetPolynomial:
    """Substitute u_zz = f - u_xx - u_yy (use the equation itself)."""
    return p.substitute("u_zz", _U_ZZ_ON_SHELL)


def invariance_residual(v: PointVectorField) -> JetPolynomial:
    """On-shell residual of the lifted action on (laplacian of u) - f(u).

    Zero exactly when v generates a symmetry for every source function.
    """
    dxi = _xi_derivatives(v)
    raw = -v.phi * f_prime
    for a in _AXES:
        raw = raw + _lift(_lift(v.phi, "", a, dxi[a]), a, a, dxi[a])
    return reduce_on_shell(raw)


DEFINING_EQUATION_LABELS: Tuple[str, ...] = (
    "xi1_u", "xi2_u", "xi3_u", "phi_uu",
    "xi1_x - xi3_z",
    "xi2_x + xi1_y",
    "xi3_x + xi1_z",
    "xi3_y + xi2_z",
    "xi3_z - xi2_y",
    "lap(xi1) - 2*phi_xu",
    "lap(xi2) - 2*phi_yu",
    "lap(xi3) - 2*phi_zu",
    "lap(phi) - 2*f*xi3_z - f'*phi",
)


def _laplacian(p: JetPolynomial) -> JetPolynomial:
    return (
        p.partial("x").partial("x")
        + p.partial("y").partial("y")
        + p.partial("z").partial("z")
    )


def _conformal_rows(xi1: JetPolynomial, xi2: JetPolynomial, xi3: JetPolynomial) -> List[JetPolynomial]:
    """The five defining rows on xi alone: xi is a conformal Killing field
    (equal diagonal, antisymmetric off-diagonal first derivatives)."""
    return [
        xi1.partial("x") - xi3.partial("z"),
        xi2.partial("x") + xi1.partial("y"),
        xi3.partial("x") + xi1.partial("z"),
        xi3.partial("y") + xi2.partial("z"),
        xi3.partial("z") - xi2.partial("y"),
    ]


def defining_equations(v: PointVectorField) -> List[JetPolynomial]:
    """Residuals of the linear system characterizing infinitesimal symmetries.

    All residuals vanish exactly when v satisfies the printed system; the
    labels in DEFINING_EQUATION_LABELS follow the same order.
    """
    xi1, xi2, xi3, phi = v.xi1, v.xi2, v.xi3, v.phi
    return [
        xi1.partial("u"),
        xi2.partial("u"),
        xi3.partial("u"),
        phi.partial("u").partial("u"),
        *_conformal_rows(xi1, xi2, xi3),
        _laplacian(xi1) - 2 * phi.partial("x").partial("u"),
        _laplacian(xi2) - 2 * phi.partial("y").partial("u"),
        _laplacian(xi3) - 2 * phi.partial("z").partial("u"),
        _laplacian(phi) - 2 * f_atom * xi3.partial("z") - f_prime * phi,
    ]


def substitute_zero_source(p: JetPolynomial) -> JetPolynomial:
    """Specialize residuals to a vanishing source term: drop every term
    that holds f, f' or f''."""
    atoms = [_INDEX[n] for n in ("f", "f'", "f''")]
    return p._canonical({m: c for m, c in p.terms.items() if not any(m[i] for i in atoms)})


# ---------------------------------------------------------------------------
# solving for admissible phi = g(x,y,z) u + h(x,y,z)
# ---------------------------------------------------------------------------


def _space_monomials(max_degree: int) -> List[Monomial]:
    monos = []
    for dx in range(max_degree + 1):
        for dy in range(max_degree + 1 - dx):
            for dz in range(max_degree + 1 - dx - dy):
                mono = [0] * NVARS
                mono[_INDEX["x"]], mono[_INDEX["y"]], mono[_INDEX["z"]] = dx, dy, dz
                monos.append(tuple(mono))
    return monos


class PhiSolutionSpace(NamedTuple):
    """Affine space of admissible phi = g*u + h for a fixed xi.

    particular carries the free coefficients set to zero; basis spans the
    homogeneous directions.  g is the u-coefficient, h the inhomogeneity.
    """

    particular: Tuple[JetPolynomial, JetPolynomial]
    basis: Tuple[Tuple[JetPolynomial, JetPolynomial], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def gauge_fixed_g(self) -> JetPolynomial:
        """Particular u-coefficient with its constant term dropped."""
        g = self.particular[0]
        return g - JetPolynomial.constant(g.terms.get(_ZERO_MONOMIAL, Fraction(0)))


@functools.lru_cache(maxsize=None)
def _harmonic_basis(max_degree: int) -> Tuple[JetPolynomial, ...]:
    """The harmonic polynomials of degree <= max_degree: the nullspace of
    the Laplacian on _space_monomials(max_degree), one member per free
    monomial of its reduced echelon form."""
    monomials = _space_monomials(max_degree)
    laps = [_laplacian(JetPolynomial({mono: 1})) for mono in monomials]
    images = sorted(set().union(*(p.terms for p in laps)))
    rows = [[p.terms.get(mono, 0) for p in laps] for mono in images]
    mat, pivots = exact_rref(rows)
    return tuple(
        JetPolynomial(dict(zip(monomials, vec)))
        for vec in nullspace_from_rref(mat, pivots, len(monomials))
    )


def _solve_phi_blocks(
    sides: Sequence[JetPolynomial], f_mode: str, max_degree: int
) -> Optional[PhiSolutionSpace]:
    """Solve 2 d_a g = sides[a], lap(g) = 0 and lap(h) = 0, with g = h = 0
    for the generic source.  The system splits into a g block and an h
    block.  g is fixed up to a constant by its gradient: take the potential
    of sides / 2 that vanishes at the origin, where by Euler's formula a
    term c*m of degree k in sides[a] adds c / (2 (k + 1)) * x_a * m.  h is
    any harmonic polynomial.  The constant of g and the harmonic basis are
    the free columns of the whole system's reduced echelon form, so this is
    exact_solve's particular solution and nullspace."""
    terms: Dict[Monomial, Fraction] = {}
    for axis, side in zip(_AXES, sides):
        for mono, value in side.terms.items():
            _add_term(terms, _bump(mono, (_INDEX[axis], 1)), Fraction(value, 2 * (sum(mono) + 1)))
    g = JetPolynomial(terms)
    if (
        any(2 * g.partial(axis) != side for axis, side in zip(_AXES, sides))
        or not _laplacian(g).is_zero()
        or any(sum(mono) > max_degree for mono in g.terms)
    ):
        return None
    zero = JetPolynomial.zero()
    if f_mode == "generic":
        return PhiSolutionSpace((zero, zero), ()) if g.is_zero() else None
    return PhiSolutionSpace(
        (g, zero), ((ONE, zero),) + tuple((zero, h) for h in _harmonic_basis(max_degree))
    )


def solve_phi_for_xi(
    xi: Sequence[JetPolynomial], f_mode: str, max_degree: int = 3
) -> Optional[PhiSolutionSpace]:
    """All phi = g u + h (polynomial, degree capped) compatible with xi.

    f_mode "zero" solves for the vanishing source; "generic" demands the
    identities hold for an arbitrary source, which forces phi = 0 and only
    leaves xi with divergence-free axis behaviour.  Returns None when the
    system is inconsistent (no admissible phi at all).

    Only the right-hand sides lap(xi_a) depend on xi; the harmonic part of
    the basis depends on the cap alone and is kept once per cap.
    """
    if isinstance(max_degree, bool) or not isinstance(max_degree, numbers.Integral):
        raise ValueError(f"degree cap must be an integer, got {max_degree!r}")
    if max_degree < 2:
        raise ValueError("degree cap must be at least 2")
    if f_mode not in ("zero", "generic"):
        raise ValueError(f"unknown f_mode {f_mode!r}")
    xi1, xi2, xi3 = xi
    for component in (xi1, xi2, xi3):
        if component.uses([n for n in VARIABLES if n not in _AXES]):
            raise ValueError("xi components must be polynomials in x, y, z")
    # consistency rows that do not involve phi
    pure = _conformal_rows(xi1, xi2, xi3)
    if f_mode == "generic":
        pure.append(xi3.partial("z"))
    if any(not p.is_zero() for p in pure):
        return None
    return _solve_phi_blocks(
        [_laplacian(component) for component in (xi1, xi2, xi3)], f_mode, int(max_degree)
    )


def field_from_phi(xi: Sequence[JetPolynomial], g: JetPolynomial, h: JetPolynomial) -> PointVectorField:
    xi1, xi2, xi3 = xi
    return PointVectorField(xi1, xi2, xi3, g * u + h)

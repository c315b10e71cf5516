"""Exact symbolic engine on the second-order jet space of u(x, y, z).

Polynomials carry rational coefficients over the point variables x, y, z, u,
the jet coordinates u_x .. u_zz, and the opaque source atoms f, f', f''
(formal symbols differentiated by the rule d/du f = f', d/du f' = f'').
The source function itself is never given a shape: an identity that must
hold "for every source" becomes a polynomial identity in the atoms.

Total derivatives respect the jet structure (d u / dx = u_x and so on) and
refuse to leave second order.  The second prolongation of a point vector
field is computed by the derivative recursion

    phi^a  = D_a(phi) - sum_i D_a(xi_i) u_i
    phi^ab = D_b(phi^a) - sum_i D_b(xi_i) u_ai

which stays inside second order term by term.
"""

from __future__ import annotations

import functools
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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


class OrderOverflowError(ValueError):
    """Total derivative would create a jet coordinate beyond second order."""


def _bump(mono: Monomial, *changes: Tuple[int, int]) -> Monomial:
    """Exponent tuple with each (index, delta) change applied."""
    out = list(mono)
    for idx, delta in changes:
        out[idx] += delta
    return tuple(out)


class JetPolynomial(SparsePoly):
    """Sparse polynomial over the jet coordinates and source atoms."""

    VARIABLES = VARIABLES

    __slots__ = ()

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

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
                self._accumulate(out, _bump(mono, (idx, -1)), coeff * mono[idx])
            for atom, derived in chain:
                if mono[atom]:
                    key = _bump(mono, (atom, -1), (derived, 1))
                    self._accumulate(out, key, coeff * mono[atom])
        return self._canonical(out)

    def total_derivative(self, direction: str) -> "JetPolynomial":
        """Total derivative along x, y, or z on jets of order at most one."""
        if direction not in ("x", "y", "z"):
            raise ValueError(f"direction must be x, y or z, got {direction!r}")
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for idx, exp in enumerate(mono):
                if not exp:
                    continue
                bumps = _derivative_of_variable(VARIABLES[idx], direction, mono)
                if bumps is not None:
                    self._accumulate(out, _bump(mono, (idx, -1), *bumps), coeff * exp)
        return self._canonical(out)

    def substitute(self, name: str, replacement: "JetPolynomial") -> "JetPolynomial":
        """Replace every occurrence of a variable by a polynomial."""
        idx = _INDEX[name]
        powers = [self.constant(1)]
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            power = mono[idx]
            while len(powers) <= power:
                powers.append(powers[-1] * replacement)
            base = _bump(mono, (idx, -power))
            for rmono, rcoeff in powers[power].terms.items():
                self._accumulate(out, tuple(map(add, base, rmono)), coeff * rcoeff)
        return self._canonical(out)

    @classmethod
    def parse(cls, text: str) -> "JetPolynomial":
        return _parse_polynomial(text)


_SOURCE_CHAIN = ((_INDEX["f"], _INDEX["f'"]), (_INDEX["f'"], _INDEX["f''"]))

_FIRST_JETS = {"x": "u_x", "y": "u_y", "z": "u_z"}
_SECOND_JETS = {
    ("x", "x"): "u_xx", ("x", "y"): "u_xy", ("x", "z"): "u_xz",
    ("y", "y"): "u_yy", ("y", "z"): "u_yz", ("z", "z"): "u_zz",
}


def _second_jet(a: str, b: str) -> str:
    return _SECOND_JETS[(a, b)] if (a, b) in _SECOND_JETS else _SECOND_JETS[(b, a)]


def _derivative_of_variable(
    name: str, direction: str, context: Monomial
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """D_direction(name) as exponent bumps of a monomial; None when it is 0."""
    if name in ("x", "y", "z"):
        return () if name == direction else None
    if name == "u":
        return ((_INDEX[_FIRST_JETS[direction]], 1),)
    if name in ("u_x", "u_y", "u_z"):
        return ((_INDEX[_second_jet(name.split("_")[1], direction)], 1),)
    if name in ("f", "f'"):
        bump = "f'" if name == "f" else "f''"
        return ((_INDEX[bump], 1), (_INDEX[_FIRST_JETS[direction]], 1))
    raise OrderOverflowError(
        f"total derivative of {JetPolynomial({context: 1})} leaves second order"
    )


# convenient handles
x, y, z, u = (JetPolynomial.variable(n) for n in ("x", "y", "z", "u"))
f_atom = JetPolynomial.variable("f")
f_prime = JetPolynomial.variable("f'")
ONE = JetPolynomial.constant(1)


# ---------------------------------------------------------------------------
# parser for the printed form
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(u_[xyz]{2}|u_[xyz]|f''|f'|f|[xyzu]|\d+|[-+*/^])")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot read polynomial near {text[pos:pos+12]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _parse_polynomial(text: str) -> JetPolynomial:
    """Parse the printed polynomial form (signed sums of monomials)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    result = JetPolynomial.zero()
    pos = 0

    def parse_term(start: int) -> Tuple[JetPolynomial, int]:
        idx = start
        term = JetPolynomial.constant(1)
        expect_factor = True
        while idx < len(tokens):
            token = tokens[idx]
            if token in "+-" and not expect_factor:
                break
            if token == "*":
                idx += 1
                expect_factor = True
                continue
            if not expect_factor and (token.isdigit() or token in _INDEX):
                raise ValueError(f"missing '*' before {token!r} in polynomial text")
            if token.isdigit():
                value = int(token)
                if idx + 2 < len(tokens) and tokens[idx + 1] == "/" and tokens[idx + 2].isdigit():
                    if int(tokens[idx + 2]) == 0:
                        raise ValueError(f"zero denominator in {token}/{tokens[idx + 2]}")
                    value = Fraction(int(token), int(tokens[idx + 2]))
                    idx += 2
                term = term * value
                idx += 1
                expect_factor = False
                continue
            if token in _INDEX:
                factor = JetPolynomial.variable(token)
                idx += 1
                if idx + 1 < len(tokens) and tokens[idx] == "^" and tokens[idx + 1].isdigit():
                    factor = factor ** int(tokens[idx + 1])
                    idx += 2
                term = term * factor
                expect_factor = False
                continue
            raise ValueError(f"unexpected token {token!r} in polynomial text")
        if expect_factor:
            raise ValueError("polynomial text ends a term without a factor")
        return term, idx

    sign = 1
    while pos < len(tokens):
        if tokens[pos] == "+":
            sign = 1
            pos += 1
        elif tokens[pos] == "-":
            sign = -1
            pos += 1
        term, pos = parse_term(pos)
        result = result + sign * term
        sign = 1
    return result


# ---------------------------------------------------------------------------
# point vector fields and prolongation
# ---------------------------------------------------------------------------

_POINT_VARS = ("x", "y", "z", "u")


@dataclass(frozen=True)
class PointVectorField:
    """Vector field xi_1 dx + xi_2 dy + xi_3 dz + phi du on point space."""

    xi1: JetPolynomial
    xi2: JetPolynomial
    xi3: JetPolynomial
    phi: JetPolynomial

    def __post_init__(self):
        for label, component in self.components():
            banned = [n for n in VARIABLES if n not in _POINT_VARS]
            if component.uses(banned):
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


def rigid_basis_field(index: int) -> PointVectorField:
    """The basis generators X_1..X_6 realized as point vector fields."""
    zero = JetPolynomial.zero()
    table = {
        1: (ONE, zero, zero),
        2: (zero, ONE, zero),
        3: (zero, zero, ONE),
        4: (zero, -z, y),
        5: (z, zero, -x),
        6: (-y, x, zero),
    }
    xi1, xi2, xi3 = table[index]
    return PointVectorField(xi1, xi2, xi3, zero)


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


def second_prolongation(v: PointVectorField) -> Prolongation:
    xi = v.xi()
    first: Dict[str, JetPolynomial] = {}
    for a in ("x", "y", "z"):
        acc = v.phi.total_derivative(a)
        for i, direction in enumerate(("x", "y", "z")):
            acc = acc - xi[i].total_derivative(a) * JetPolynomial.variable(
                _FIRST_JETS[direction]
            )
        first[a] = acc
    second: Dict[str, JetPolynomial] = {}
    for a, b in (("x", "x"), ("x", "y"), ("x", "z"), ("y", "y"), ("y", "z"), ("z", "z")):
        acc = first[a].total_derivative(b)
        for i, direction in enumerate(("x", "y", "z")):
            acc = acc - xi[i].total_derivative(b) * JetPolynomial.variable(
                _second_jet(a, direction)
            )
        second[a + b] = acc
    return Prolongation(
        first["x"], first["y"], first["z"],
        second["xx"], second["xy"], second["xz"],
        second["yy"], second["yz"], second["zz"],
    )


def reduce_on_shell(p: JetPolynomial) -> JetPolynomial:
    """Substitute u_zz = f - u_xx - u_yy (use the equation itself)."""
    replacement = (
        f_atom
        - JetPolynomial.variable("u_xx")
        - JetPolynomial.variable("u_yy")
    )
    return p.substitute("u_zz", replacement)


def invariance_residual(v: PointVectorField) -> JetPolynomial:
    """On-shell residual of the lifted action on (laplacian of u) - f(u).

    Zero exactly when v generates a symmetry for every source function.
    """
    pro = second_prolongation(v)
    raw = pro.phi_xx + pro.phi_yy + pro.phi_zz - v.phi * f_prime
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
    """Specialize residuals to a vanishing source term."""
    return p.substitute("f", JetPolynomial.zero()).substitute(
        "f'", JetPolynomial.zero()
    ).substitute("f''", JetPolynomial.zero())


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

    def members(self) -> List[Tuple[JetPolynomial, JetPolynomial]]:
        return [self.particular] + list(self.basis)

    def gauge_fixed_g(self) -> JetPolynomial:
        """Particular u-coefficient with its constant term dropped."""
        g = self.particular[0]
        return g - JetPolynomial.constant(g.terms.get(_ZERO_MONOMIAL, Fraction(0)))


class _PhiSystem(NamedTuple):
    """The phi-system of one (f_mode, cap), reduced once.

    The unknowns are the coefficients of g over monomials, then those of h.
    Write A for the matrix of the system.  transform holds, for each row
    that can carry a right-hand side, its key (equation, monomial) and its
    column of an invertible N with N A = RREF(A) (stacked on zero rows), as
    sparse (row, value) pairs; N b then reduces a right-hand side b.
    """

    monomials: Tuple[Monomial, ...]
    pivots: Tuple[int, ...]
    transform: Tuple[Tuple[Tuple[int, Monomial], Tuple[Tuple[int, Fraction], ...]], ...]
    nullspace: Tuple[Tuple[Fraction, ...], ...]

    def particular(self, rhs: Dict[Tuple[int, Monomial], Fraction]) -> Optional[List[Fraction]]:
        """Solution of A x = b with the free unknowns zero, or None when there
        is none.  rhs holds the nonzero entries of b by row key.  The system
        is consistent when every right-hand key has a row and every reduced
        row past the rank is zero."""
        columns = dict(self.transform)
        reduced: Dict[int, Fraction] = {}
        for key, value in rhs.items():
            column = columns.get(key)
            if column is None:
                return None
            for r, entry in column:
                reduced[r] = reduced.get(r, 0) + entry * value
        rank = len(self.pivots)
        if any(value for r, value in reduced.items() if r >= rank):
            return None
        zero = Fraction(0)
        solution = [zero] * (2 * len(self.monomials))
        for r, piv in enumerate(self.pivots):
            solution[piv] = reduced.get(r, zero)
        return solution


@functools.lru_cache(maxsize=None)
def _phi_system(f_mode: str, max_degree: int) -> _PhiSystem:
    """The reduced phi-system.  Its equations, by index: 0..2 are
    2 d_a g = lap(xi_a) for a = x, y, z, the only ones with a right-hand
    side; 3 is lap(g) = 0; 4 is lap(h) = 0; for the generic source also
    5, g = 0, and 6, h = 0.  Each equation has one row per monomial of its
    left-hand side."""
    monomials = tuple(_space_monomials(max_degree))
    units = [JetPolynomial({mono: Fraction(1)}) for mono in monomials]
    none = [JetPolynomial.zero()] * len(units)
    laps = [_laplacian(p) for p in units]
    # each equation as its columns: the images of the g unknowns, then of h
    equations = [[2 * p.partial(axis) for p in units] + none for axis in ("x", "y", "z")]
    equations += [laps + none, none + laps]
    if f_mode == "generic":
        equations += [units + none, none + units]
    keys, rows = [], []
    for index, columns in enumerate(equations):
        for mono in sorted(set().union(*(c.terms for c in columns))):
            keys.append((index, mono))
            rows.append([c.terms.get(mono, 0) for c in columns])
    ncols = 2 * len(monomials)
    # [A | I] with the identity restricted to the right-hand-side rows: the
    # reduced identity block is then the wanted columns of N
    rhs_rows = [i for i, (index, _) in enumerate(keys) if index < 3]
    mat, pivots = exact_rref([row + [int(i == j) for j in rhs_rows] for i, row in enumerate(rows)])
    pivots = tuple(p for p in pivots if p < ncols)
    transform = tuple(
        (keys[j], tuple((r, row[ncols + k]) for r, row in enumerate(mat) if row[ncols + k]))
        for k, j in enumerate(rhs_rows)
    )
    nullspace = tuple(nullspace_from_rref(mat, pivots, ncols))
    return _PhiSystem(monomials, pivots, transform, nullspace)


def solve_phi_for_xi(
    xi: Sequence[JetPolynomial], f_mode: str, max_degree: int = 3
) -> Optional[PhiSolutionSpace]:
    """All phi = g u + h (polynomial, degree capped) compatible with xi.

    f_mode "zero" solves for the vanishing source; "generic" demands the
    identities hold for an arbitrary source, which forces phi = 0 and only
    leaves xi with divergence-free axis behaviour.  Returns None when the
    system is inconsistent (no admissible phi at all).

    Only the right-hand sides lap(xi_a) depend on xi.  The system itself is
    reduced once per mode and cap and kept; each call maps its right-hand
    side through the stored row transform.  By uniqueness of the reduced
    echelon form, the particular solution and the basis are those of
    exact_solve on the whole system.
    """
    if isinstance(max_degree, bool) or not isinstance(max_degree, numbers.Integral):
        raise ValueError(f"degree cap must be an integer, got {max_degree!r}")
    if max_degree < 2:
        raise ValueError("degree cap must be at least 2")
    if f_mode not in ("zero", "generic"):
        raise ValueError(f"unknown f_mode {f_mode!r}")
    xi1, xi2, xi3 = (JetPolynomial.coerce(c) for c in xi)
    for component in (xi1, xi2, xi3):
        if component.uses([n for n in VARIABLES if n not in ("x", "y", "z")]):
            raise ValueError("xi components must be polynomials in x, y, z")
    # consistency rows that do not involve phi
    pure = _conformal_rows(xi1, xi2, xi3)
    if f_mode == "generic":
        pure.append(xi3.partial("z"))
    if any(not p.is_zero() for p in pure):
        return None

    system = _phi_system(f_mode, int(max_degree))
    particular = system.particular({
        (index, mono): value
        for index, component in enumerate((xi1, xi2, xi3))
        for mono, value in _laplacian(component).terms.items()
    })
    if particular is None:
        return None
    monomials = system.monomials
    nmono = len(monomials)

    def unpack(vec) -> Tuple[JetPolynomial, JetPolynomial]:
        g = JetPolynomial({m: c for m, c in zip(monomials, vec[:nmono]) if c})
        h = JetPolynomial({m: c for m, c in zip(monomials, vec[nmono:]) if c})
        return g, h

    return PhiSolutionSpace(unpack(particular), tuple(unpack(v) for v in system.nullspace))


def field_from_phi(xi: Sequence[JetPolynomial], g: JetPolynomial, h: JetPolynomial) -> PointVectorField:
    xi1, xi2, xi3 = (JetPolynomial.coerce(c) for c in xi)
    return PointVectorField(xi1, xi2, xi3, g * u + h)

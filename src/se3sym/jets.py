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

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import exact_solve
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
            if token.isdigit():
                value = Fraction(int(token))
                if idx + 2 < len(tokens) and tokens[idx + 1] == "/" and tokens[idx + 2].isdigit():
                    if int(tokens[idx + 2]) == 0:
                        raise ValueError(f"zero denominator in {token}/{tokens[idx + 2]}")
                    value = Fraction(int(token), int(tokens[idx + 2]))
                    idx += 2
                term = term * JetPolynomial.constant(value)
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
        return term, idx

    sign = Fraction(1)
    while pos < len(tokens):
        if tokens[pos] == "+":
            sign = Fraction(1)
            pos += 1
        elif tokens[pos] == "-":
            sign = Fraction(-1)
            pos += 1
        term, pos = parse_term(pos)
        result = result + JetPolynomial.constant(sign) * term
        sign = Fraction(1)
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


@dataclass(frozen=True)
class Prolongation:
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

    def first(self) -> Dict[str, JetPolynomial]:
        return {"x": self.phi_x, "y": self.phi_y, "z": self.phi_z}

    def second(self) -> Dict[str, JetPolynomial]:
        return {
            "xx": self.phi_xx, "xy": self.phi_xy, "xz": self.phi_xz,
            "yy": self.phi_yy, "yz": self.phi_yz, "zz": self.phi_zz,
        }


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


def explicit_phi_x(v: PointVectorField) -> JetPolynomial:
    """First-order lift written out directly, used as a cross-check oracle:
    -u_x (d_x + u_x d_u) xi1 - u_y (d_x + u_x d_u) xi2
    - u_z (d_x + u_x d_u) xi3 + (d_x + u_x d_u) phi.
    """
    ux = JetPolynomial.variable("u_x")
    op = lambda p: p.partial("x") + ux * p.partial("u")
    uy, uz = JetPolynomial.variable("u_y"), JetPolynomial.variable("u_z")
    return -ux * op(v.xi1) - uy * op(v.xi2) - uz * op(v.xi3) + op(v.phi)


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
        xi1.partial("x") - xi3.partial("z"),
        xi2.partial("x") + xi1.partial("y"),
        xi3.partial("x") + xi1.partial("z"),
        xi3.partial("y") + xi2.partial("z"),
        xi3.partial("z") - xi2.partial("y"),
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


@dataclass(frozen=True)
class PhiSolutionSpace:
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


def solve_phi_for_xi(
    xi: Sequence[JetPolynomial], f_mode: str, max_degree: int = 3
) -> Optional[PhiSolutionSpace]:
    """All phi = g u + h (polynomial, degree capped) compatible with xi.

    f_mode "zero" solves for the vanishing source; "generic" demands the
    identities hold for an arbitrary source, which forces phi = 0 and only
    leaves xi with divergence-free axis behaviour.  Returns None when the
    system is inconsistent (no admissible phi at all).
    """
    if max_degree < 2:
        raise ValueError("degree cap must be at least 2")
    if f_mode not in ("zero", "generic"):
        raise ValueError(f"unknown f_mode {f_mode!r}")
    xi1, xi2, xi3 = (JetPolynomial.coerce(c) for c in xi)
    for component in (xi1, xi2, xi3):
        if component.uses([n for n in VARIABLES if n not in ("x", "y", "z")]):
            raise ValueError("xi components must be polynomials in x, y, z")
    # consistency rows that do not involve phi
    pure = [
        xi1.partial("x") - xi3.partial("z"),
        xi2.partial("x") + xi1.partial("y"),
        xi3.partial("x") + xi1.partial("z"),
        xi3.partial("y") + xi2.partial("z"),
        xi3.partial("z") - xi2.partial("y"),
    ]
    if f_mode == "generic":
        pure.append(xi3.partial("z"))
    if any(not p.is_zero() for p in pure):
        return None

    monomials = _space_monomials(max_degree)
    nmono = len(monomials)

    # unknowns: g coefficients then h coefficients
    def g_poly(col: int) -> JetPolynomial:
        return JetPolynomial({monomials[col]: Fraction(1)})

    equations: List[Tuple[Optional[str], Optional[str], JetPolynomial]] = []
    # each entry: (operator on g, operator on h, right-hand side)
    equations.append(("2dx", None, _laplacian(xi1)))
    equations.append(("2dy", None, _laplacian(xi2)))
    equations.append(("2dz", None, _laplacian(xi3)))
    equations.append(("lap", None, JetPolynomial.zero()))
    equations.append((None, "lap", JetPolynomial.zero()))
    if f_mode == "generic":
        equations.append(("id", None, JetPolynomial.zero()))
        equations.append((None, "id", JetPolynomial.zero()))

    operators = {
        "2dx": lambda p: 2 * p.partial("x"),
        "2dy": lambda p: 2 * p.partial("y"),
        "2dz": lambda p: 2 * p.partial("z"),
        "lap": _laplacian,
        "id": lambda p: p,
    }

    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for op_g, op_h, right in equations:
        columns: List[JetPolynomial] = []
        for col in range(nmono):
            base = g_poly(col)
            poly = operators[op_g](base) if op_g else JetPolynomial.zero()
            columns.append(poly)
        for col in range(nmono):
            base = g_poly(col)
            poly = operators[op_h](base) if op_h else JetPolynomial.zero()
            columns.append(poly)
        seen = set()
        for poly in columns + [right]:
            seen.update(poly.terms)
        for mono in sorted(seen):
            rows.append([col.terms.get(mono, Fraction(0)) for col in columns])
            rhs.append(right.terms.get(mono, Fraction(0)))

    solved = exact_solve(rows, rhs)
    if solved is None:
        return None
    particular, nullspace = solved

    def unpack(vec) -> Tuple[JetPolynomial, JetPolynomial]:
        g = JetPolynomial({monomials[i]: vec[i] for i in range(nmono)})
        h = JetPolynomial({monomials[i]: vec[nmono + i] for i in range(nmono)})
        return g, h

    return PhiSolutionSpace(unpack(particular), tuple(unpack(v) for v in nullspace))


def field_from_phi(xi: Sequence[JetPolynomial], g: JetPolynomial, h: JetPolynomial) -> PointVectorField:
    xi1, xi2, xi3 = (JetPolynomial.coerce(c) for c in xi)
    return PointVectorField(xi1, xi2, xi3, g * u + h)


# ---------------------------------------------------------------------------
# closed-form generator family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryAnsatz:
    """Eleven-coefficient family of candidate generators.

    The induced spatial components are fixed quadratic polynomials in the
    coefficients; the u-part is F1*u + F2 with F1 determined by the same
    coefficients and F2 a free polynomial in x, y, z.
    """

    a: Tuple[Fraction, ...]
    f2: Optional[JetPolynomial] = None

    def __post_init__(self):
        if len(self.a) != 11:
            raise ValueError("the ansatz takes 11 coefficients")
        object.__setattr__(self, "a", tuple(Fraction(c) for c in self.a))

    @classmethod
    def from_coeffs(cls, **kwargs) -> "SymmetryAnsatz":
        """Build from keyword coefficients a1..a11 (missing ones are 0)."""
        coeffs = [Fraction(0)] * 11
        f2 = kwargs.pop("f2", None)
        for key, value in kwargs.items():
            if not key.startswith("a"):
                raise ValueError(f"unknown coefficient {key!r}")
            coeffs[int(key[1:]) - 1] = Fraction(value)
        return cls(tuple(coeffs), f2)

    def f1(self) -> JetPolynomial:
        a = self.a
        return JetPolynomial.constant(a[10]) - (a[6] * x + a[4] * y + a[0] * z)

    def field(self) -> PointVectorField:
        a = self.a
        xi1 = (
            a[6] * (x * x - y * y - z * z)
            + 2 * (a[4] * y + a[0] * z) * x
            + a[5] * x + a[7] * y - a[3] * z
            + JetPolynomial.constant(a[8])
        )
        xi2 = (
            a[4] * (y * y - z * z - x * x)
            + 2 * (a[6] * x + a[0] * z) * y
            - a[7] * x + a[5] * y + a[1] * z
            + JetPolynomial.constant(a[9])
        )
        xi3 = (
            a[0] * (z * z - x * x - y * y)
            + 2 * (a[6] * x + a[4] * y) * z
            + a[3] * x - a[1] * y + a[5] * z
            + JetPolynomial.constant(a[2])
        )
        f2 = self.f2 if self.f2 is not None else JetPolynomial.zero()
        phi = self.f1() * u + f2
        return PointVectorField(xi1, xi2, xi3, phi)


def ansatz_residuals(ansatz: SymmetryAnsatz, f_mode: str) -> List[JetPolynomial]:
    """Defining-system residuals of the instantiated ansatz."""
    if f_mode not in ("zero", "generic"):
        raise ValueError(f"unknown f_mode {f_mode!r}")
    if f_mode == "zero" and ansatz.f2 is None:
        raise ValueError("the zero-source mode needs an explicit F2")
    residuals = defining_equations(ansatz.field())
    if f_mode == "zero":
        residuals = [substitute_zero_source(r) for r in residuals]
    return residuals

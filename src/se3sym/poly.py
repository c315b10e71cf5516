"""Sparse polynomials with exact rational coefficients.

A polynomial is a dict from exponent tuples (one entry per name in the
class's VARIABLES) to nonzero ints or Fractions: a coefficient enters as an
int where it is integral, so most arithmetic stays on Python ints.  An
integral Fraction that arithmetic leaves behind equals, hashes and prints
as its int, so it is not rewritten.  Subclasses name their variables and
may rewrite monomials into a normal form by overriding _canonical, which
every result passes through; everything else - the ring operations,
equality, hashing, the printer and its reader - lives here once.  Printing
orders monomials by total degree, then by exponent tuple, both descending,
so equal polynomials print identically, and parse reads that form back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Dict, Optional, Tuple, Union

Monomial = Tuple[int, ...]
Coefficient = Union[int, Fraction]
Terms = Dict[Monomial, Coefficient]

# after blanks: an integer, a name (a letter, then letters and '_', then
# primes: u_xy, f'') or an operator; group 1 is None for any other character
_LEXEME = re.compile(r"\s*(?:(\d+|[^\W\d_][^\W\d]*'*|[-+*/^])|\S)")


def _coefficient(value) -> Coefficient:
    """value as an int where it is integral, else as a Fraction."""
    if type(value) is not int:
        value = value if isinstance(value, Fraction) else Fraction(value)
        if value.denominator == 1:
            return value.numerator
    return value


class SparsePoly:
    """Polynomial over the names in VARIABLES, kept in canonical form."""

    VARIABLES: Tuple[str, ...] = ()

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Terms] = None):
        store = {k: _coefficient(v) for k, v in (terms or {}).items()}
        self.terms = self._canonical(store).terms

    @classmethod
    def _canonical(cls, store: Terms):
        """Wrap a store, dropping zero terms; the hook for a normal-form rewrite."""
        poly = object.__new__(cls)
        poly.terms = {k: v for k, v in store.items() if v}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, value):
        return cls._canonical({(0,) * len(cls.VARIABLES): _coefficient(value)})

    @classmethod
    def variable(cls, name: str):
        key = tuple(int(v == name) for v in cls.VARIABLES)
        if 1 not in key:
            raise KeyError(name)
        return cls._canonical({key: 1})

    # -- ring structure ----------------------------------------------------

    def _shift(self, value: Coefficient):
        """self + value for a number value."""
        key = (0,) * len(self.VARIABLES)
        merged = dict(self.terms)
        merged[key] = merged.get(key, 0) + value
        return self._canonical(merged)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return self._shift(_coefficient(other))
        merged = dict(self.terms)
        for key, value in other.terms.items():
            old = merged.get(key)
            merged[key] = value if old is None else old + value
        return self._canonical(merged)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return self._shift(-_coefficient(other))
        merged = dict(self.terms)
        for key, value in other.terms.items():
            old = merged.get(key)
            merged[key] = -value if old is None else old - value
        return self._canonical(merged)

    def __rsub__(self, other):
        return (-self)._shift(_coefficient(other))

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            value = _coefficient(other)
            return self._canonical({k: v * value for k, v in self.terms.items()})
        prod: Terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(map(add, m1, m2))
                old = prod.get(key)
                prod[key] = c1 * c2 if old is None else old + c1 * c2
        return self._canonical(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Power by binary squaring, high bit first: two products per bit."""
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.constant(1)
        for bit in f"{exponent:b}":
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash as that value
        constant_key = (0,) * len(self.VARIABLES)
        if self.terms.keys() <= {constant_key}:
            return hash(self.terms.get(constant_key, 0))
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        text = ""
        for key in sorted(self.terms, key=lambda k: (sum(k), k), reverse=True):
            value = self.terms[key]
            mono = "*".join(
                name if exp == 1 else f"{name}^{exp}"
                for name, exp in zip(self.VARIABLES, key)
                if exp
            )
            if not mono:
                body = str(abs(value))
            elif abs(value) == 1:
                body = mono
            else:
                body = f"{abs(value)}*{mono}"
            if not text:
                text = f"-{body}" if value < 0 else body
            else:
                text += f" {'-' if value < 0 else '+'} {body}"
        return text

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str):
        """Read back the form __str__ prints; over tokens that blanks may
        separate, with NAME one of VARIABLES:

            poly   := [sign] term {sign term}        sign := "+" | "-"
            term   := factor {"*" factor}
            factor := INT ["/" INT] | NAME ["^" INT]

        A ValueError names the first unreadable character, else the first
        token out of place."""
        tokens = []
        for match in _LEXEME.finditer(text):
            if match[1] is None:
                raise ValueError(f"cannot read polynomial near {text[match.start():][:12]!r}")
            tokens.append(match[1])
        if not tokens:
            raise ValueError("empty polynomial text")
        tokens += [""] * 3  # the end, and room to look two tokens past it
        index = {name: i for i, name in enumerate(cls.VARIABLES)}
        store: Terms = {}
        pos = 0
        while tokens[pos]:
            sign = -1 if tokens[pos] == "-" else 1
            pos += tokens[pos] in ("+", "-")
            coefficient, key, pos = _read_term(tokens, pos, index)
            if coefficient:
                total = store[key] = store.get(key, 0) + sign * coefficient
                if not total:
                    del store[key]
        return cls._canonical(store)


def _read_term(tokens, pos: int, index: Dict[str, int]):
    """term := factor {"*" factor} from tokens[pos]: (coefficient, exponents, end)."""
    coefficient, key = 1, [0] * len(index)
    while True:
        token, follow, ahead = tokens[pos:pos + 3]
        if token.isdecimal():
            value = int(token)
            if follow == "/" and ahead.isdecimal():
                if not int(ahead):
                    raise ValueError(f"zero denominator in {token}/{ahead}")
                value, pos = Fraction(value, int(ahead)), pos + 2
            coefficient = coefficient * _coefficient(value)
        elif token in index:
            raised = follow == "^" and ahead.isdecimal()
            key[index[token]] += int(ahead) if raised else 1
            pos += 2 * raised
        elif token == "*":
            raise ValueError("'*' where a factor is expected in polynomial text")
        elif not token:
            raise ValueError("polynomial text ends a term without a factor")
        else:
            raise ValueError(f"unexpected token {token!r} in polynomial text")
        follow = tokens[pos + 1]
        if follow in ("+", "-", ""):
            return coefficient, tuple(key), pos + 1
        if follow != "*":
            fault = "missing '*' before" if follow.isdecimal() or follow in index else "unexpected token"
            raise ValueError(f"{fault} {follow!r} in polynomial text")
        pos += 2

"""Sparse polynomials with exact rational coefficients.

A polynomial is a dict from exponent tuples (one entry per name in the
class's VARIABLES) to nonzero Fractions.  Subclasses name their variables
and may rewrite monomials into a normal form by overriding _accumulate;
everything else - the ring operations, equality, hashing and the printer -
lives here once.  Printing orders monomials by total degree, then by
exponent tuple, both descending, so equal polynomials print identically.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Optional, Tuple

Monomial = Tuple[int, ...]
Terms = Dict[Monomial, Fraction]


class SparsePoly:
    """Polynomial over the names in VARIABLES, kept in canonical form."""

    VARIABLES: Tuple[str, ...] = ()

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Terms] = None):
        store: Terms = {}
        for key, value in (terms or {}).items():
            self._accumulate(store, key, Fraction(value))
        self.terms = {k: v for k, v in store.items() if v}

    @staticmethod
    def _accumulate(store: Terms, key: Monomial, value: Fraction) -> None:
        """Add value * key to store; the hook for a normal-form rewrite."""
        store[key] = store.get(key, 0) + value

    @classmethod
    def _canonical(cls, store: Terms):
        """Wrap a store whose keys are already in normal form."""
        poly = object.__new__(cls)
        poly.terms = {k: v for k, v in store.items() if v}
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, value):
        return cls({(0,) * len(cls.VARIABLES): Fraction(value)})

    @classmethod
    def variable(cls, name: str):
        key = tuple(int(v == name) for v in cls.VARIABLES)
        if 1 not in key:
            raise KeyError(name)
        return cls({key: Fraction(1)})

    @classmethod
    def coerce(cls, value):
        return value if isinstance(value, cls) else cls.constant(value)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        merged = dict(self.terms)
        for key, value in self.coerce(other).terms.items():
            merged[key] = merged.get(key, 0) + value
        return self._canonical(merged)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) + (-self)

    def __mul__(self, other):
        other = self.coerce(other)
        prod: Terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                self._accumulate(prod, tuple(map(add, m1, m2)), c1 * c2)
        return self._canonical(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
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

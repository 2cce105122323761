"""Scalar rings: Gaussian integers, complex floats, and polynomials.

All three rings are involutive: they carry a conjugation that the
dagger of a matrix applies entrywise.  The polynomial ring has one
formal variable per box of a reference diagram together with its
formal conjugate, written ``x3`` and ``x3~``.

A fourth ring, :class:`MultilinearRing`, is a quotient of the
polynomial ring with no conjugation; the semantic isomorphism count
evaluates in it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import DaggereqError, ParseError


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer ``re + im*i``."""

    re: int = 0
    im: int = 0

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> GaussianInt:
        return GaussianInt(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


# -- polynomials -------------------------------------------------------

# A variable is (box id, conjugated?).
PolyVar = tuple[int, bool]


@dataclass(frozen=True)
class Monomial:
    """A product of powers of variables, kept sorted by variable."""

    powers: tuple[tuple[PolyVar, int], ...] = ()

    @classmethod
    def unit(cls) -> Monomial:
        return cls(())

    @classmethod
    def of(cls, *variables: PolyVar) -> Monomial:
        counts: dict[PolyVar, int] = {}
        for v in variables:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(sorted(counts.items())))

    def __mul__(self, other: Monomial) -> Monomial:
        counts = dict(self.powers)
        for v, k in other.powers:
            counts[v] = counts.get(v, 0) + k
        return Monomial(tuple(sorted(counts.items())))

    def conjugate(self) -> Monomial:
        flipped = (((box, not conj), k) for (box, conj), k in self.powers)
        return Monomial(tuple(sorted(flipped)))

    @property
    def degree(self) -> int:
        return sum(k for _, k in self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for (box, conj), k in self.powers:
            var = f"x{box}~" if conj else f"x{box}"
            parts.append(var if k == 1 else f"{var}^{k}")
        return "*".join(parts)


class ConjPolynomial:
    """Sparse polynomial with integer coefficients over paired variables.

    Values are immutable; arithmetic returns new polynomials with zero
    coefficients dropped.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        self._terms = cleaned

    @classmethod
    def zero(cls) -> ConjPolynomial:
        return cls()

    @classmethod
    def const(cls, c: int) -> ConjPolynomial:
        return cls({Monomial.unit(): c})

    @classmethod
    def variable(cls, box: int, conjugated: bool = False) -> ConjPolynomial:
        return cls({Monomial.of((box, conjugated)): 1})

    def terms(self) -> Iterable[tuple[Monomial, int]]:
        return self._terms.items()

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(m, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self._terms}
        return len(degrees) <= 1

    def __add__(self, other: ConjPolynomial) -> ConjPolynomial:
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return ConjPolynomial(terms)

    def __neg__(self) -> ConjPolynomial:
        return ConjPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: ConjPolynomial) -> ConjPolynomial:
        return self + (-other)

    def __mul__(self, other: ConjPolynomial) -> ConjPolynomial:
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                terms[m] = terms.get(m, 0) + c1 * c2
        return ConjPolynomial(terms)

    def conjugate(self) -> ConjPolynomial:
        return ConjPolynomial({m.conjugate(): c for m, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m in sorted(self._terms, key=lambda m: (m.degree, m.powers)):
            c = self._terms[m]
            if m.degree == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = str(m)
            else:
                body = f"{abs(c)}*{m}"
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {body}" if parts else
                         (f"-{body}" if c < 0 else body))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ConjPolynomial({self})"


# -- rings -------------------------------------------------------------

class ScalarRing:
    """An involutive ring of scalars, the values a diagram denotes.

    The values bring their own arithmetic: ``add``, ``mul``, ``conj``
    and ``eq`` are ``+``, ``*``, ``.conjugate()`` and ``==`` on them.
    A ring supplies its constants ``zero`` and ``one`` and how values
    are made, sampled, parsed and printed.  The float ring's ``eq``
    compares within a relative tolerance and sets ``exact`` to False.
    """

    name: str
    exact: bool = True
    zero: Any
    one: Any

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def conj(self, a):
        return a.conjugate()

    def eq(self, a, b) -> bool:
        return a == b

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def sample(self, rng):
        """A random element, used for witness search."""
        raise NotImplementedError(f"ring {self.name} has no random elements")

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        raise NotImplementedError


_GAUSS_RE = re.compile(r"\s*([+-]?\d+)\s*([+-]\s*\d+)\s*i\s*\Z")
_FLOAT_BODY = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"\s*([+-]?{_FLOAT_BODY})\s*([+-]\s*{_FLOAT_BODY})\s*i\s*\Z")


class GaussianIntegerRing(ScalarRing):
    name = "gauss"
    zero, one = GaussianInt(0, 0), GaussianInt(1, 0)

    def from_int(self, n: int) -> GaussianInt:
        return GaussianInt(n, 0)

    def sample(self, rng, magnitude: int = 9) -> GaussianInt:
        return GaussianInt(rng.randint(-magnitude, magnitude),
                           rng.randint(-magnitude, magnitude))

    def parse(self, text: str) -> GaussianInt:
        m = _GAUSS_RE.match(text)
        if not m:
            raise ParseError(f"bad Gaussian integer {text!r}")
        return GaussianInt(int(m.group(1)), int(m.group(2).replace(" ", "")))


class ComplexFloatRing(ScalarRing):
    name = "float"
    exact = False
    zero, one = 0j, 1 + 0j

    def __init__(self, tolerance: float = 1e-9):
        if not 0 <= tolerance < float("inf"):  # also false for nan
            raise DaggereqError("tolerance must be nonnegative and finite")
        self.tolerance = tolerance

    def from_int(self, n: int) -> complex:
        return complex(n, 0)

    def eq(self, a: complex, b: complex) -> bool:
        return abs(a - b) <= self.tolerance * max(1.0, abs(a), abs(b))

    def sample(self, rng, magnitude: int = 1) -> complex:
        return complex(rng.uniform(-magnitude, magnitude),
                       rng.uniform(-magnitude, magnitude))

    def format(self, a: complex) -> str:
        return f"{a.real!r}{a.imag:+}i"

    def parse(self, text: str) -> complex:
        m = _COMPLEX_RE.match(text)
        if not m:
            raise ParseError(f"bad complex number {text!r}")
        return complex(float(m.group(1)), float(m.group(2).replace(" ", "")))


class ConjPolynomialRing(ScalarRing):
    name = "poly"
    zero, one = ConjPolynomial.zero(), ConjPolynomial.const(1)

    def from_int(self, n: int) -> ConjPolynomial:
        return ConjPolynomial.const(n)

    def variable(self, box: int, conjugated: bool) -> ConjPolynomial:
        return ConjPolynomial.variable(box, conjugated)


class MultilinearRing(ScalarRing):
    """Polynomials over box variables modulo ``x_i^2 = 0`` and ``x_i~ = 0``.

    A value is a ``dict`` from a monomial, the bitmask of its variables,
    to its integer coefficient.  A product of two monomials that share
    a variable is zero, so only square-free monomials are kept.  The
    conjugate variables ``x_i~`` are zero too, so the ring has no
    conjugation.  Used by the semantic isomorphism count only; it is
    not a ring the witness search can choose.
    """

    name = "multilinear"

    @property
    def zero(self) -> dict[int, int]:
        return {}

    @property
    def one(self) -> dict[int, int]:
        return {0: 1}

    def add(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return out

    def mul(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                if not m1 & m2:
                    m = m1 | m2
                    out[m] = out.get(m, 0) + c1 * c2
        return out

    def from_int(self, n: int) -> dict[int, int]:
        return {0: n}

    def variable(self, box: int, conjugated: bool) -> dict[int, int]:
        return {} if conjugated else {1 << box: 1}


RINGS = {
    "gauss": GaussianIntegerRing,
    "poly": ConjPolynomialRing,
}


def make_ring(name: str, tolerance: float = 1e-9) -> ScalarRing:
    if name == "float":
        return ComplexFloatRing(tolerance)
    try:
        return RINGS[name]()
    except KeyError:
        raise DaggereqError(f"unknown ring {name!r}") from None

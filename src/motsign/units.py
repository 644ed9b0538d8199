"""Exact arithmetic for the sign units {1, -1, eps, -eps} and the
coefficient ring Z[eps]/(eps^2 - 1).

The unit eps is the extra square root of 1 coming from inversion on the
weight (Tate) circle; coefficients a + b*eps keep it formal until a mode
substitutes eps = +1 or eps = -1, optionally followed by a modulus.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError

__all__ = [
    "Unit",
    "ONE",
    "MINUS_ONE",
    "EPS",
    "MINUS_EPS",
    "UNITS",
    "Coef",
    "CoefMode",
    "GENERIC",
    "Bidegree",
    "parse_unit",
    "specialize",
    "is_unit_coef",
    "parse_coef",
    "parse_bidegree",
]


@dataclass(frozen=True)
class Unit:
    """A square root of 1 written (-1)^s * eps^t, with s and t mod 2."""

    s: int = 0
    t: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", self.s % 2)
        object.__setattr__(self, "t", self.t % 2)

    def __mul__(self, other: "Unit") -> "Unit":
        return _UNITS_BY_BITS[(self.s ^ other.s) << 1 | (self.t ^ other.t)]

    def __pow__(self, n: int) -> "Unit":
        # x^(-1) = x, so only n mod 2 matters
        return _UNITS_BY_BITS[self.s << 1 | self.t] if n % 2 else ONE

    def specialize(self, mode: "CoefMode") -> "Unit":
        """Image under the mode's eps substitution and modulus.

        Mod 2 (or mod 1) the sign -1 collapses to 1; in generic mode eps
        stays a genuine unit even mod 2 because eps - 1 is nilpotent, not
        zero, there.
        """
        s, t = self.s, self.t
        if mode.eps == "+1":
            t = 0
        elif mode.eps == "-1":
            s, t = s ^ t, 0
        if mode.modulus == 1:
            s = t = 0
        elif mode.modulus == 2:
            s = 0
        return _UNITS_BY_BITS[s << 1 | t]

    def to_coef(self) -> "Coef":
        sign = -1 if self.s else 1
        return Coef(0, sign) if self.t else Coef(sign, 0)

    def __str__(self) -> str:
        return _UNIT_NAMES[(self.s, self.t)]


ONE = Unit(0, 0)
MINUS_ONE = Unit(1, 0)
EPS = Unit(0, 1)
MINUS_EPS = Unit(1, 1)
UNITS = (ONE, MINUS_ONE, EPS, MINUS_EPS)

# The four units above are the only ones the library makes: every unit it
# returns is looked up here by the 2-bit index s << 1 | t.
_UNITS_BY_BITS = (ONE, EPS, MINUS_ONE, MINUS_EPS)


def _unit(s: int, t: int) -> Unit:
    """(-1)^s * eps^t for any ints s and t (& 1 is mod 2, negatives too)."""
    return _UNITS_BY_BITS[(s & 1) << 1 | (t & 1)]


_UNIT_NAMES = {(0, 0): "1", (1, 0): "-1", (0, 1): "eps", (1, 1): "-eps"}
_UNITS_BY_NAME = {name: _unit(s, t) for (s, t), name in _UNIT_NAMES.items()}


def parse_unit(text: str) -> Unit:
    """Parse one of "1", "-1", "eps", "-eps"."""
    try:
        return _UNITS_BY_NAME[text.strip()]
    except (KeyError, AttributeError):  # AttributeError: not a string, as a JSON number
        raise ParseError(f"not a unit: {text!r}") from None


@dataclass(frozen=True)
class Coef:
    """a + b*eps with arbitrary-precision integers a, b."""

    a: int = 0
    b: int = 0

    def __add__(self, other: "Coef | int") -> "Coef":
        other = _as_coef(other)
        return Coef(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "Coef | int") -> "Coef":
        other = _as_coef(other)
        return Coef(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Coef":
        return Coef(-self.a, -self.b)

    def __mul__(self, other: "Coef | int") -> "Coef":
        # eps^2 = 1
        other = _as_coef(other)
        return Coef(self.a * other.a + self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        eps_part = {1: "eps", -1: "-eps"}.get(self.b, f"{self.b}*eps")
        if self.a == 0:
            return eps_part
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{eps_part}"


def _as_coef(value: "Coef | int") -> Coef:
    if isinstance(value, Coef):
        return value
    if isinstance(value, int):
        return Coef(value)
    raise TypeError(f"cannot coerce {value!r} to a coefficient")


_MODE_EPS_VALUES = ("generic", "+1", "-1")


@dataclass(frozen=True)
class CoefMode:
    """Coefficient specialization: the image of eps plus an optional modulus.

    Mode "-1" with modulus 0 is the integers; modulus 0 means
    characteristic zero.  The eps substitution models the unit map of a
    ring spectrum sending eps to +-1.
    """

    eps: str = "generic"
    modulus: int = 0

    def __post_init__(self) -> None:
        if self.eps not in _MODE_EPS_VALUES:
            raise ValueError(f"mode eps must be one of {_MODE_EPS_VALUES}, got {self.eps!r}")
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")


GENERIC = CoefMode()


def specialize(c: Coef, mode: CoefMode) -> Coef:
    """Apply the eps substitution, then the modulus.  A ring homomorphism."""
    return Coef(*_specialized(c.a, c.b, mode))


def _specialized(a: int, b: int, mode: CoefMode) -> tuple[int, int]:
    """`specialize` on the integer pair (a, b) of a + b*eps."""
    if mode.eps == "+1":
        a, b = a + b, 0
    elif mode.eps == "-1":
        a, b = a - b, 0
    if mode.modulus:
        a %= mode.modulus
        b %= mode.modulus
    return a, b


def is_unit_coef(c: Coef, mode: CoefMode = GENERIC) -> bool:
    """Whether c is invertible after specialization.

    Multiplication by a + b*eps has determinant a^2 - b^2 on the basis
    (1, eps), so c is a unit exactly when that determinant is.  In
    characteristic zero this picks out {1, -1, eps, -eps}.
    """
    s = specialize(c, mode)
    det = s.a * s.a - s.b * s.b
    if mode.modulus == 0:
        return det in (1, -1)
    return math.gcd(det, mode.modulus) == 1


_COEF_RE = re.compile(r"(?P<int>[+-]?\d+)?(?P<eps>(?P<sign>[+-])?(?:(?P<mag>\d+)\*)?eps)?", re.ASCII)


def parse_coef(text: str) -> Coef:
    """Parse "a", "b*eps", "a+b*eps" style coefficient strings."""
    compact = text.replace(" ", "")
    m = _COEF_RE.fullmatch(compact)
    if not m or (m.group("int") is None and m.group("eps") is None):
        raise ParseError(f"not a coefficient: {text!r}")
    if m.group("int") is not None and m.group("eps") is not None and m.group("sign") is None:
        raise ParseError(f"missing sign between parts: {text!r}")
    try:
        a = int(m.group("int") or 0)
        b = int(m.group("mag") or 1) if m.group("eps") is not None else 0
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"integer too long in coefficient: {text[:20]!r}...") from None
    return Coef(a, -b if m.group("sign") == "-" else b)


@dataclass(frozen=True)
class Bidegree:
    """A point (p, q) of the Z x Z grading: p the stem, q the weight."""

    p: int
    q: int

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.p + other.p, self.q + other.q)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def parse_bidegree(text: str) -> Bidegree:
    """Parse "p,q" (parentheses optional) into a bidegree; each coordinate
    is an optional sign and ASCII digits, with ASCII whitespace around it."""
    m = re.fullmatch(r"\s*\(?\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)?\s*", text, re.ASCII)
    if m is None:
        raise ParseError(f"not a bidegree: {text!r}")
    try:
        return Bidegree(int(m[1]), int(m[2]))
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"not a bidegree: {text!r}") from None

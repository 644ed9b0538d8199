"""Bilinear 2-cocycles on Z x Z valued in {1, -1, eps, -eps}.

Every cohomology class of Z x Z with coefficients in an elementary
abelian 2-group has a bilinear representative, so the exact objects here
are bilinear forms (and quadratic cochains for their coboundaries);
arbitrary pair functions are only ever checked on finite grids.  A
quadratic cochain's value depends on a bidegree only mod 4, so it is read
from a table of its 16 residue classes; a grid check builds each grid
point's Bidegree once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Iterable

from .errors import ParseError
from .units import EPS, MINUS_EPS, MINUS_ONE, ONE, Bidegree, Unit, _unit, parse_unit

__all__ = [
    "BilinearCocycle",
    "QuadraticCochain",
    "UnitSubgroup",
    "CocycleCheck",
    "CoboundaryDecision",
    "DEFAULT_GRID",
    "unit_twist",
    "check_cocycle_identity",
    "parity_classes",
    "coboundary",
    "is_symmetric",
    "is_coboundary",
    "antisymmetrization",
    "count_classes",
    "cocycle_to_json",
    "cocycle_from_json",
    "cochain_to_json",
    "cochain_from_json",
]

DEFAULT_GRID = range(-4, 5)


@dataclass(frozen=True)
class BilinearCocycle:
    """alpha(a, b) = m11^(a1 b1) * m12^(a1 b2) * m21^(a2 b1) * m22^(a2 b2).

    Bilinearity makes the reduced-cocycle identity hold identically, so
    these are honest reduced 2-cocycles by construction.
    """

    m11: Unit
    m12: Unit
    m21: Unit
    m22: Unit

    def __post_init__(self) -> None:
        _check_units(self)

    def __call__(self, a: Bidegree, b: Bidegree) -> Unit:
        e11, e12, e21, e22 = a.p * b.p, a.p * b.q, a.q * b.p, a.q * b.q
        s = self.m11.s * e11 + self.m12.s * e12 + self.m21.s * e21 + self.m22.s * e22
        t = self.m11.t * e11 + self.m12.t * e12 + self.m21.t * e21 + self.m22.t * e22
        return _unit(s, t)

    def __mul__(self, other: "BilinearCocycle") -> "BilinearCocycle":
        return BilinearCocycle(
            self.m11 * other.m11,
            self.m12 * other.m12,
            self.m21 * other.m21,
            self.m22 * other.m22,
        )

    def is_trivial(self) -> bool:
        return self == TRIVIAL_COCYCLE


def _check_units(record: BilinearCocycle | QuadraticCochain) -> None:
    """Raise TypeError unless every field of a just-built record is a Unit."""
    for field in fields(record):  # not vars(): building the instance dict slows every field read
        value = getattr(record, field.name)
        if not isinstance(value, Unit):
            raise TypeError(f"{type(record).__name__}.{field.name} must be a Unit, got {value!r}")


TRIVIAL_COCYCLE = BilinearCocycle(ONE, ONE, ONE, ONE)


def unit_twist(u: Unit) -> BilinearCocycle:
    """The cocycle u^(a2 (b1 - b2)) charging u per swap of a weight circle
    past a simplicial circle."""
    return BilinearCocycle(ONE, ONE, u, u)


@dataclass(frozen=True)
class QuadraticCochain:
    """beta(a) = c1^a1 c2^a2 c12^(a1 a2) c11^C(a1,2) c22^C(a2,2), beta(0) = 1."""

    c1: Unit
    c2: Unit
    c12: Unit
    c11: Unit
    c22: Unit

    def __post_init__(self) -> None:
        _check_units(self)
        # bit i of s and t: the bits of beta at residue i; the table of its
        # 16 values sits outside the fields, so out of ==, hash and repr
        s = t = 0
        for u, odd in zip((self.c1, self.c2, self.c12, self.c11, self.c22), _ODD_EXPONENTS):
            s, t = s ^ odd * u.s, t ^ odd * u.t
        object.__setattr__(self, "_table", tuple(_unit(s >> i, t >> i) for i in range(16)))

    def __call__(self, a: Bidegree) -> Unit:
        return self._table[(a.p & 3) << 2 | a.q & 3]  # & 3 is mod 4, negatives too


# Bit (p mod 4) * 4 + q mod 4 of each mask: whether the exponent of c1, c2,
# c12, c11, c22 at (p, q) is odd.  p, q and pq need p and q mod 2 only, and
# C(p, 2) needs p mod 4, since C(p + 4, 2) - C(p, 2) = 4p + 6.
_EXPONENTS = [(p, q, p * q, p * (p - 1) // 2, q * (q - 1) // 2) for p in range(4) for q in range(4)]
_ODD_EXPONENTS = [sum((exps[k] & 1) << i for i, exps in enumerate(_EXPONENTS)) for k in range(5)]


def coboundary(beta: QuadraticCochain) -> BilinearCocycle:
    """delta(beta)(a, b) = beta(a) beta(b) beta(a+b)^(-1).

    The linear parts c1, c2 cancel; what survives is the symmetric
    bilinear cocycle with m12 = m21 = c12, m11 = c11, m22 = c22.
    """
    return BilinearCocycle(beta.c11, beta.c12, beta.c12, beta.c22)


@dataclass(frozen=True)
class CocycleCheck:
    holds: bool
    witness: tuple[Bidegree, Bidegree, Bidegree] | None = None

    def __bool__(self) -> bool:
        return self.holds


def parity_classes(grid: Iterable[int]) -> list[Bidegree]:
    """One bidegree per parity class of grid x grid, where a scan in the
    order (|p|+|q|, -p, -q) first meets it: each coordinate is the least
    |x| of its parity, positive on a tie.  A range is read arithmetically;
    any other grid in one pass, with no copy."""
    if isinstance(grid, range) and grid:
        # |x| is convex in x's position, least at -start/step, so each
        # parity's least |x| is at one of the four positions around it
        last = (grid[-1] - grid.start) // grid.step  # len() overflows past sys.maxsize
        k = min(max(-grid.start // grid.step, 0), last)
        grid = grid[max(k - 1, 0):k + 3]
    best: list[int | None] = [None, None]
    for x in grid:
        held = best[x & 1]
        if held is None or abs(x) < abs(held) or (x > 0 and x == -held):
            best[x & 1] = x
    reps = [x for x in best if x is not None]
    if not reps:
        raise ValueError("grid must be nonempty")
    coords = [Bidegree(p, q) for p in reps for q in reps]
    coords.sort(key=lambda d: (abs(d.p) + abs(d.q), -d.p, -d.q))
    return coords


class _PairTable(dict):
    """The bits s << 1 | t of f(a, b), keyed a * nn + b for point numbers
    a and b; f is called on a key's first lookup only, so the table holds
    just the pairs looked up, with point(x) the Bidegree numbered x."""

    def __init__(self, f: Callable[[Bidegree, Bidegree], Unit], point: Callable[[int], Bidegree], nn: int):
        self.f, self.point, self.nn = f, point, nn

    def __missing__(self, key: int) -> int:
        a, b = divmod(key, self.nn)
        unit = self.f(self.point(a), self.point(b))
        if not isinstance(unit, Unit):
            raise TypeError(f"cocycle check: f returned {unit!r}, not a Unit")
        bits = self[key] = unit.s << 1 | unit.t
        return bits


def check_cocycle_identity(
    f: BilinearCocycle | Callable[[Bidegree, Bidegree], Unit],
    grid: Iterable[int] = DEFAULT_GRID,
) -> CocycleCheck:
    """Test f(u+v,w) f(u,v) == f(v,w) f(u,v+w) for all bidegree triples
    with entries in the grid; the witness is the first failing triple in
    itertools.product order.

    A bilinear cocycle holds without a scan: by bilinearity both sides
    equal f(u,w) f(v,w) f(u,v).  Any other f is checked over the whole
    grid but called at most once per distinct argument pair, so it must
    be a pure function returning a Unit; any other return value raises
    TypeError.
    """
    points = grid if isinstance(grid, range) else list(grid)  # a huge range is never listed
    if not points:
        raise ValueError("grid must be nonempty")
    if isinstance(f, BilinearCocycle):
        return CocycleCheck(True, None)
    # Arguments range over P and P + P, P = grid x grid (P is not inside
    # P + P when 0 is not in the grid).
    # [lo, hi] holds both, and numbering its points linearly makes
    # index(u + v) = index(u) + index(v) + shift.  Only the witness is
    # turned back into bidegrees.
    lo, hi = min(points), max(points)
    lo, hi = min(lo, 2 * lo), max(hi, 2 * hi)
    n = hi - lo + 1
    nn, shift = n * n, lo * (n + 1)
    index = [(p - lo) * n + q - lo for p in points for q in points]
    point = cache(lambda x: Bidegree(x // n + lo, x % n + lo))  # one Bidegree per point
    table = _PairTable(f, point, nn)
    for u in index:
        for v in index:
            # key prefixes of the pairs (u + v, w), (v, w) and (u, v + w)
            uv_, v_, u_v = (u + v + shift) * nn, v * nn, u * nn + v + shift
            t_uv = table[u * nn + v]
            for w in index:
                if table[uv_ + w] ^ t_uv != table[v_ + w] ^ table[u_v + w]:
                    return CocycleCheck(False, (point(u), point(v), point(w)))
    return CocycleCheck(True, None)


def is_symmetric(alpha: BilinearCocycle) -> bool:
    """Whether alpha(a, b) = alpha(b, a) everywhere; for bilinear forms
    this is exactly m12 = m21."""
    return alpha.m12 == alpha.m21


def antisymmetrization(alpha: BilinearCocycle) -> Unit:
    """m12 * m21^(-1): the complete invariant of the coboundary class
    (units are their own inverses)."""
    return alpha.m12 * alpha.m21


@dataclass(frozen=True)
class CoboundaryDecision:
    is_coboundary: bool
    witness: QuadraticCochain | None = None

    def __bool__(self) -> bool:
        return self.is_coboundary


def is_coboundary(alpha: BilinearCocycle) -> CoboundaryDecision:
    """Decide whether alpha is the coboundary of a quadratic cochain.

    Coboundaries are symmetric, and every symmetric bilinear cocycle is
    reconstructed from its fields, so the antisymmetrization being
    trivial is both necessary and sufficient.  The decision is exact,
    never grid-based.
    """
    if alpha.m12 == alpha.m21:
        witness = QuadraticCochain(ONE, ONE, alpha.m12, alpha.m11, alpha.m22)
        return CoboundaryDecision(True, witness)
    return CoboundaryDecision(False, None)


class UnitSubgroup(enum.Enum):
    """A subgroup of the Klein four-group {1, -1, eps, -eps}."""

    TRIVIAL = "trivial"
    MINUS_ONE = "gen-minus-one"
    EPS = "gen-eps"
    MINUS_EPS = "gen-minus-eps"
    FULL = "full"

    def elements(self) -> tuple[Unit, ...]:
        return _SUBGROUP_ELEMENTS[self]

    @classmethod
    def from_string(cls, text: str) -> "UnitSubgroup":
        key = text.strip().lower().removeprefix("gen-")
        try:
            return _SUBGROUP_ALIASES[key]
        except KeyError:
            raise ParseError(f"not a unit subgroup: {text!r}") from None


_SUBGROUP_ELEMENTS = {
    UnitSubgroup.TRIVIAL: (ONE,),
    UnitSubgroup.MINUS_ONE: (ONE, MINUS_ONE),
    UnitSubgroup.EPS: (ONE, EPS),
    UnitSubgroup.MINUS_EPS: (ONE, MINUS_EPS),
    UnitSubgroup.FULL: (ONE, MINUS_ONE, EPS, MINUS_EPS),
}

_SUBGROUP_ALIASES = {
    "trivial": UnitSubgroup.TRIVIAL,
    "minus-one": UnitSubgroup.MINUS_ONE,
    "-1": UnitSubgroup.MINUS_ONE,
    "eps": UnitSubgroup.EPS,
    "minus-eps": UnitSubgroup.MINUS_EPS,
    "-eps": UnitSubgroup.MINUS_EPS,
    "full": UnitSubgroup.FULL,
}


def count_classes(sub: UnitSubgroup) -> int:
    """Number of coboundary classes of bilinear cocycles valued in sub.

    The antisymmetrization m12 * m21 is a complete class invariant and
    takes every value of sub (m21 = 1, m12 free), so the classes are
    counted by the subgroup's order.
    """
    return len(sub.elements())


def _units_to_json(record: BilinearCocycle | QuadraticCochain) -> dict[str, str]:
    return {field.name: str(getattr(record, field.name)) for field in fields(record)}


def _units_from_json(cls: type, doc: dict[str, str], what: str) -> BilinearCocycle | QuadraticCochain:
    """Read a record of unit fields, keyed by the dataclass's field names."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    try:
        return cls(*(parse_unit(doc[field.name]) for field in fields(cls)))
    except KeyError as missing:
        raise ParseError(f"{what} document missing field {missing}") from None


def cocycle_to_json(alpha: BilinearCocycle) -> dict[str, str]:
    return _units_to_json(alpha)


def cocycle_from_json(doc: dict[str, str]) -> BilinearCocycle:
    return _units_from_json(BilinearCocycle, doc, "cocycle")


def cochain_to_json(beta: QuadraticCochain) -> dict[str, str]:
    return _units_to_json(beta)


def cochain_from_json(doc: dict[str, str]) -> QuadraticCochain:
    return _units_from_json(QuadraticCochain, doc, "cochain")

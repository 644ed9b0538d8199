"""Named multiplication conventions and their commutation laws.

A convention is a cocycle twist applied on top of the reference product,
together with a coefficient mode.  The four presets twist by a unit u in
{1, -1, eps, -eps}; "reference"/"deligne" is u = 1 and
"epsilon"/"bernstein" is u = eps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycles import (
    BilinearCocycle,
    CoboundaryDecision,
    QuadraticCochain,
    cocycle_from_json,
    cocycle_to_json,
    is_coboundary,
    unit_twist,
)
from .errors import ModeMismatchError, ParseError
from .units import EPS, GENERIC, MINUS_EPS, MINUS_ONE, ONE, Bidegree, CoefMode, Unit, _unit, parse_unit

__all__ = [
    "Convention",
    "TwistRatio",
    "PRESET_NAMES",
    "convention",
    "base_commutation",
    "commutation_unit",
    "error_factor",
    "twist_ratio",
    "super_degree",
    "mode_to_json",
    "mode_from_json",
    "convention_to_json",
    "convention_from_json",
]


@dataclass(frozen=True)
class Convention:
    """A named product: reference product twisted by a bilinear cocycle,
    with coefficients read through a mode."""

    name: str
    twist: BilinearCocycle
    mode: CoefMode = GENERIC


_PRESET_UNITS = {
    "reference": ONE,
    "minus-one": MINUS_ONE,
    "epsilon": EPS,
    "minus-epsilon": MINUS_EPS,
}

PRESET_NAMES = tuple(_PRESET_UNITS)

# each preset by its name, as u=<unit> and as its bare unit; deligne and bernstein name two of them
_PRESET_ALIASES = {
    alias: name for name, unit in _PRESET_UNITS.items() for alias in (name, f"u={unit}", str(unit))
} | {"deligne": "reference", "bernstein": "epsilon"}


def convention(name: str, mode: CoefMode = GENERIC) -> Convention:
    """Resolve a preset name or alias ("epsilon", "u=-1", "bernstein", ...)."""
    try:
        canonical = _PRESET_ALIASES[name.strip().lower()]
    except KeyError:
        raise ParseError(f"unknown convention: {name!r}") from None
    return Convention(canonical, unit_twist(_PRESET_UNITS[canonical]), mode)


def base_commutation(a: Bidegree, b: Bidegree) -> Unit:
    """Commutation unit of the untwisted reference product:
    (-1)^((a1-a2)(b1-b2)) * eps^(a2 b2)."""
    return _unit((a.p - a.q) * (b.p - b.q), a.q * b.q)


def commutation_unit(conv: Convention, a: Bidegree, b: Bidegree) -> Unit:
    """The unit w(a, b) with x y = y x w(a, b) in the twisted product,
    specialized through the convention's mode.

    w(a, b) = base_commutation(a, b) * twist(a, b)^(-1) * twist(b, a), and
    twist(a, b)^(-1) = twist(a, b) since every unit is its own inverse.
    """
    w = base_commutation(a, b) * conv.twist(a, b) * conv.twist(b, a)
    return w.specialize(conv.mode)


def error_factor(a: Bidegree, b: Bidegree) -> Unit:
    """eps^(a2 b1 + a1 b2): the ratio of the epsilon- and
    reference-convention commutation units in generic mode."""
    return _unit(0, a.q * b.p + a.p * b.q)


@dataclass(frozen=True)
class TwistRatio:
    cocycle: BilinearCocycle
    is_coboundary: bool
    witness: QuadraticCochain | None


def twist_ratio(conv_a: Convention, conv_b: Convention) -> TwistRatio:
    """Pointwise ratio of the two twists, with the coboundary decision
    that settles whether a standard isomorphism links the two products."""
    if conv_a.mode != conv_b.mode:
        raise ModeMismatchError(
            f"conventions {conv_a.name!r} and {conv_b.name!r} use different coefficient modes"
        )
    ratio = conv_b.twist * conv_a.twist  # twists are self-inverse
    decision: CoboundaryDecision = is_coboundary(ratio)
    return TwistRatio(ratio, decision.is_coboundary, decision.witness)


def super_degree(a: int, b: int) -> Bidegree:
    """Degree dictionary for the supersymmetry presets: a + b*sigma maps
    to the bidegree (a + b, b).

    Under this dictionary the reference commutation unit at mapped
    degrees is (-1)^(ac) * eps^(bd), the Deligne penalty.
    """
    return Bidegree(a + b, b)


def mode_to_json(mode: CoefMode) -> dict:
    return {"eps": mode.eps, "modulus": mode.modulus}


def mode_from_json(doc: dict) -> CoefMode:
    if not isinstance(doc, dict):
        raise ParseError("convention mode must be a JSON object")
    modulus = doc.get("modulus", 0)
    if type(modulus) is not int:
        raise ParseError(f"mode modulus must be an integer, got {modulus!r}")
    try:
        return CoefMode(doc.get("eps", "generic"), modulus)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def convention_to_json(conv: Convention) -> dict:
    return {
        "name": conv.name,
        "twist": cocycle_to_json(conv.twist),
        "mode": mode_to_json(conv.mode),
    }


def convention_from_json(doc: dict) -> Convention:
    """Load {"name", "u" or "twist", "mode"} convention documents."""
    if not isinstance(doc, dict):
        raise ParseError("convention document must be a JSON object")
    mode = mode_from_json(doc.get("mode", {}))
    if "u" in doc and "twist" in doc:
        raise ParseError("convention document must give either 'u' or 'twist', not both")
    if "u" in doc:
        twist = unit_twist(parse_unit(doc["u"]))
        name = doc.get("name", f"u={doc['u']}")
    elif "twist" in doc:
        twist = cocycle_from_json(doc["twist"])
        name = doc.get("name", "custom")
    else:
        raise ParseError("convention document needs a 'u' or 'twist' field")
    if not isinstance(name, str):
        raise ParseError(f"convention name must be a string, got {name!r}")
    return Convention(name, twist, mode)

"""Grading-collapse realization models and ring-homomorphism decisions.

A realization is axiomatized by three pieces of data: how it collapses
the bigrading to a single integer, where it sends eps, and the bilinear
defect measuring its failure to respect the reference product.  That is
enough to decide, per convention, whether the induced map of homotopy
rings is a ring homomorphism and whether commutation units land on the
target's Koszul signs.  Both depend on bidegrees only mod 2, so each
decision tests at most 16 parity-class pairs, never the whole grid.

The fixed-point model's trivial defect and eps |-> +1 are model
assumptions chosen to reproduce the known decision outcomes, not data
read off a construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cocycles import BilinearCocycle, DEFAULT_GRID, TRIVIAL_COCYCLE, parity_classes, unit_twist
from .conventions import Convention, commutation_unit
from .errors import MotsignError
from .units import Bidegree, MINUS_ONE, Unit

__all__ = [
    "RealizationModel",
    "RingHomDecision",
    "SignCompatDecision",
    "MODEL_NAMES",
    "builtin_model",
    "collapse_degree",
    "realized_sign",
    "is_ring_hom",
    "target_sign_compat",
]

MODEL_NAMES = ("betti", "c2-underlying", "geometric-fixed")


@dataclass(frozen=True)
class RealizationModel:
    """collapse: "total" sends (p, q) to p, "fixed" sends it to p - q.
    sigma_eps is the image of eps in {+1, -1}; defect is the bilinear
    multiplicativity defect against the reference product."""

    name: str
    collapse: str
    sigma_eps: int
    defect: BilinearCocycle

    def __post_init__(self) -> None:
        if self.collapse not in ("total", "fixed"):
            raise MotsignError(f"unknown collapse rule: {self.collapse!r}")
        if self.sigma_eps not in (1, -1):
            raise MotsignError("sigma_eps must be +1 or -1")
        if any(u.t for u in (self.defect.m11, self.defect.m12, self.defect.m21, self.defect.m22)):
            raise MotsignError("defect must take values in {1, -1}")


def builtin_model(name: str) -> RealizationModel:
    """The Betti (complex points), C2-underlying, and geometric
    fixed-point models."""
    if name in ("betti", "c2-underlying"):
        # a weight circle crossing a simplicial circle is visible after
        # realization: defect (-1)^(a2 (b1 - b2))
        return RealizationModel(name, "total", -1, unit_twist(MINUS_ONE))
    if name == "geometric-fixed":
        return RealizationModel(name, "fixed", 1, TRIVIAL_COCYCLE)
    raise MotsignError(f"unknown realization model: {name!r}")


def collapse_degree(model: RealizationModel, degree: Bidegree) -> int:
    return degree.p - degree.q if model.collapse == "fixed" else degree.p


def realized_sign(model: RealizationModel, unit: Unit) -> int:
    """Image of a unit in {+1, -1} under the model's specialization."""
    sign = -1 if unit.s else 1
    if unit.t and model.sigma_eps == -1:
        sign = -sign
    return sign


@dataclass(frozen=True)
class RingHomDecision:
    is_hom: bool
    witness: tuple[Bidegree, Bidegree] | None = None

    def __bool__(self) -> bool:
        return self.is_hom


def is_ring_hom(
    conv: Convention,
    model: RealizationModel,
    grid: Iterable[int] = DEFAULT_GRID,
) -> RingHomDecision:
    """Whether realizing the twisted product lands multiplicatively on
    the target, i.e. the realized defect times twist is +1 on the grid."""
    coords = parity_classes(grid)
    for a in coords:
        for b in coords:
            if realized_sign(model, model.defect(a, b) * conv.twist(a, b)) != 1:
                return RingHomDecision(False, (a, b))
    return RingHomDecision(True, None)


@dataclass(frozen=True)
class SignCompatDecision:
    compatible: bool
    witness: tuple[Bidegree, Bidegree] | None = None

    def __bool__(self) -> bool:
        return self.compatible


def target_sign_compat(
    conv: Convention,
    model: RealizationModel,
    grid: Iterable[int] = DEFAULT_GRID,
) -> SignCompatDecision:
    """Whether the convention's commutation units realize to the target's
    Koszul signs (-1)^(collapse(a) collapse(b)) on the grid."""
    coords = parity_classes(grid)
    for a in coords:
        for b in coords:
            expected = -1 if (collapse_degree(model, a) * collapse_degree(model, b)) % 2 else 1
            if realized_sign(model, commutation_unit(conv, a, b)) != expected:
                return SignCompatDecision(False, (a, b))
    return SignCompatDecision(True, None)

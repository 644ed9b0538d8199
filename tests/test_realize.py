import itertools
import random

import pytest

from motsign import (
    BilinearCocycle,
    Bidegree,
    CoefMode,
    MODEL_NAMES,
    MINUS_ONE,
    MotsignError,
    ONE,
    UNITS,
    builtin_model,
    check_cocycle_identity,
    collapse_degree,
    commutation_unit,
    convention,
    is_ring_hom,
    realized_sign,
    target_sign_compat,
    unit_twist,
)
from motsign.conventions import Convention

PRESETS = ("reference", "minus-one", "epsilon", "minus-epsilon")

# is_ring_hom outcomes for every preset convention and builtin model
EXPECTED_TABLE = {
    ("betti", "reference"): False,
    ("betti", "minus-one"): True,
    ("betti", "epsilon"): True,
    ("betti", "minus-epsilon"): False,
    ("c2-underlying", "reference"): False,
    ("c2-underlying", "minus-one"): True,
    ("c2-underlying", "epsilon"): True,
    ("c2-underlying", "minus-epsilon"): False,
    ("geometric-fixed", "reference"): True,
    ("geometric-fixed", "minus-one"): False,
    ("geometric-fixed", "epsilon"): True,
    ("geometric-fixed", "minus-epsilon"): False,
}


def test_builtin_models():
    betti = builtin_model("betti")
    assert betti.collapse == "total"
    assert betti.sigma_eps == -1
    assert betti.defect == unit_twist(MINUS_ONE)
    underlying = builtin_model("c2-underlying")
    assert underlying.collapse == betti.collapse
    assert underlying.sigma_eps == betti.sigma_eps
    assert underlying.defect == betti.defect
    fixed = builtin_model("geometric-fixed")
    assert fixed.collapse == "fixed"
    assert fixed.sigma_eps == 1
    assert fixed.defect.is_trivial()
    with pytest.raises(MotsignError):
        builtin_model("etale")


def test_betti_defect_and_collapse_examples():
    betti = builtin_model("betti")
    assert betti.defect(Bidegree(0, 1), Bidegree(1, 0)) == MINUS_ONE
    assert collapse_degree(betti, Bidegree(3, 2)) == 3
    fixed = builtin_model("geometric-fixed")
    assert collapse_degree(fixed, Bidegree(3, 2)) == 1
    for a, b in itertools.product([Bidegree(p, q) for p in range(-2, 3) for q in range(-2, 3)], repeat=2):
        assert fixed.defect(a, b) == ONE


def test_is_ring_hom_decision_table():
    for model_name in MODEL_NAMES:
        model = builtin_model(model_name)
        for conv_name in PRESETS:
            decision = is_ring_hom(convention(conv_name), model)
            assert decision.is_hom == EXPECTED_TABLE[(model_name, conv_name)], (model_name, conv_name)
            if not decision.is_hom:
                a, b = decision.witness
                assert realized_sign(model, model.defect(a, b) * convention(conv_name).twist(a, b)) == -1


def test_ring_hom_witness_is_deterministic():
    decision = is_ring_hom(convention("reference"), builtin_model("betti"))
    assert decision.witness == (Bidegree(0, 1), Bidegree(1, 0))


def test_target_sign_compat_examples():
    assert target_sign_compat(convention("epsilon"), builtin_model("geometric-fixed")).compatible
    assert target_sign_compat(convention("epsilon"), builtin_model("betti")).compatible
    decision = target_sign_compat(convention("reference"), builtin_model("betti"))
    assert not decision.compatible
    # the quoted counterexample pair really does violate the condition
    betti = builtin_model("betti")
    ref = convention("reference")
    a, b = Bidegree(0, 1), Bidegree(1, 0)
    assert realized_sign(betti, commutation_unit(ref, a, b)) != (-1) ** (
        collapse_degree(betti, a) * collapse_degree(betti, b)
    )
    wa, wb = decision.witness
    expected = -1 if (collapse_degree(betti, wa) * collapse_degree(betti, wb)) % 2 else 1
    assert realized_sign(betti, commutation_unit(ref, wa, wb)) != expected


def test_koszul_identity_behind_fixed_point_compat():
    # (a1+a2)(b1+b2) and (a1-a2)(b1-b2) agree mod 2
    for a1, a2, b1, b2 in itertools.product(range(-3, 4), repeat=4):
        assert ((a1 + a2) * (b1 + b2)) % 2 == ((a1 - a2) * (b1 - b2)) % 2


def test_ring_hom_implies_sign_compat():
    for model_name in MODEL_NAMES:
        model = builtin_model(model_name)
        for conv_name in PRESETS:
            conv = convention(conv_name)
            if is_ring_hom(conv, model).is_hom:
                assert target_sign_compat(conv, model).compatible, (model_name, conv_name)


def test_table_stable_under_grid_enlargement():
    big = range(-8, 9)
    for model_name in MODEL_NAMES:
        model = builtin_model(model_name)
        for conv_name in PRESETS:
            conv = convention(conv_name)
            assert is_ring_hom(conv, model, big).is_hom == EXPECTED_TABLE[(model_name, conv_name)]


def test_betti_hom_iff_u_realizes_to_minus_one():
    betti = builtin_model("betti")
    from motsign import EPS, MINUS_EPS, ONE as U1, MINUS_ONE as UM1
    from motsign.conventions import Convention

    for u in (U1, UM1, EPS, MINUS_EPS):
        conv = Convention(f"u={u}", unit_twist(u))
        assert is_ring_hom(conv, betti).is_hom == (realized_sign(betti, u) == -1)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        is_ring_hom(convention("reference"), builtin_model("betti"), range(0))


# ---------- brute-force oracle: the full ordered-grid scan ----------


def _scan_order(points):
    """Every bidegree of points x points, small degrees first, positive
    entries preferred: the order a full scan meets them."""
    coords = [Bidegree(p, q) for p in points for q in points]
    coords.sort(key=lambda d: (abs(d.p) + abs(d.q), -d.p, -d.q))
    return coords


def _ring_hom_holds(conv, model, a, b):
    return realized_sign(model, model.defect(a, b) * conv.twist(a, b)) == 1


def _sign_compat_holds(conv, model, a, b):
    koszul = -1 if (collapse_degree(model, a) * collapse_degree(model, b)) % 2 else 1
    return realized_sign(model, commutation_unit(conv, a, b)) == koszul


def _scan(holds, conv, model, coords):
    """(decision, witness) of the first failing pair over the whole grid."""
    for a in coords:
        for b in coords:
            if not holds(conv, model, a, b):
                return False, (a, b)
    return True, None


ORACLE_GRIDS = {
    "centred": range(-2, 3),
    "zero only": range(0, 1),
    "one only": range(1, 2),
    "shifted": range(3, 8),
    "negative only": range(-6, -1),
    "stepped": range(0, 9, 2),
    "list": [5, -5, 2, -2],
}
ORACLE_MODES = [CoefMode(), CoefMode("+1"), CoefMode("-1"), CoefMode("generic", 2), CoefMode("generic", 4)]
ALL_TWISTS = [BilinearCocycle(*fields) for fields in itertools.product(UNITS, repeat=4)]


def _oracle_conventions():
    """The four presets, generic and in one other mode each, and 16 of the
    256 bilinear twists (each field taking all four units), with the
    coefficient modes taken in turn."""
    convs = [convention(name) for name in PRESETS]
    convs += [convention(name, mode) for name, mode in zip(PRESETS, ORACLE_MODES[1:])]
    for i, twist in enumerate(random.Random(0).sample(ALL_TWISTS, 16)):
        convs.append(Convention(f"twist{i}", twist, ORACLE_MODES[i % len(ORACLE_MODES)]))
    return convs


def test_decisions_match_full_grid_scan():
    scans = {name: _scan_order(list(grid)) for name, grid in ORACLE_GRIDS.items()}
    cases = 0
    for model_name in MODEL_NAMES:
        model = builtin_model(model_name)
        for conv in _oracle_conventions():
            for grid_name, grid in ORACLE_GRIDS.items():
                for decide, holds in ((is_ring_hom, _ring_hom_holds), (target_sign_compat, _sign_compat_holds)):
                    want = _scan(holds, conv, model, scans[grid_name])
                    got = decide(conv, model, grid)
                    assert (bool(got), got.witness) == want, (model_name, conv, grid_name, decide.__name__)
                    # a one-shot generator over the same points gives the same answer
                    assert decide(conv, model, iter(list(grid))) == got
                    cases += 1
    assert cases == len(MODEL_NAMES) * (8 + 16) * len(ORACLE_GRIDS) * 2


def test_decisions_exact_on_huge_grid():
    # far beyond what a scan of grid x grid x grid x grid could visit
    huge = range(-10**5, 10**5 + 1)
    for model_name in MODEL_NAMES:
        model = builtin_model(model_name)
        for conv_name in PRESETS:
            conv = convention(conv_name)
            assert is_ring_hom(conv, model, huge) == is_ring_hom(conv, model)
    betti = builtin_model("betti")
    assert target_sign_compat(convention("reference"), betti, huge) == target_sign_compat(convention("reference"), betti)
    for u in UNITS:
        assert check_cocycle_identity(unit_twist(u), huge) == check_cocycle_identity(unit_twist(u))

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything here is exact arithmetic; there are no tolerances to tune.
"""

import itertools
import random

from motsign import (
    Bidegree,
    BilinearCocycle,
    Coef,
    CoefMode,
    EPS,
    Generator,
    MINUS_EPS,
    MINUS_ONE,
    ONE,
    Presentation,
    QuadraticCochain,
    TAU,
    UNITS,
    UNIVERSAL,
    UnitSubgroup,
    ZERO,
    builtin_model,
    check_cocycle_identity,
    check_conjecture,
    coboundary,
    commutation_unit,
    convention,
    count_classes,
    eval_expr,
    generator_element,
    graded_commutator,
    GroupTableRow,
    is_coboundary,
    is_ring_hom,
    is_symmetric,
    load_sample_table,
    multiply,
    normalize,
    parse_table,
    realized_sign,
    render_table,
    sensitivity_table,
    unit_twist,
    universal_presentation,
)
from test_algebra import _random_swap_normalize

PRESET_NAMES = ("reference", "minus-one", "epsilon", "minus-epsilon")

TAU_DEG = Bidegree(0, -1)
NU_DEG = Bidegree(3, 2)
TAU0_DEG = Bidegree(1, 0)
ETA_DEG = Bidegree(1, 1)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_sign_table():
    ref = convention("reference")
    eps_conv = convention("epsilon")
    total_sign = convention("minus-one", CoefMode("-1"))
    # tau nu = - nu tau under u = 1
    assert commutation_unit(ref, TAU_DEG, NU_DEG) == MINUS_ONE
    # tau nu = -eps nu tau under u = eps
    assert commutation_unit(eps_conv, TAU_DEG, NU_DEG) == MINUS_EPS
    # tau0 tau = - tau tau0 under u = 1
    assert commutation_unit(ref, TAU0_DEG, TAU_DEG) == MINUS_ONE
    # tau0 tau = + tau tau0 under u = -1 with eps = -1
    assert commutation_unit(total_sign, TAU0_DEG, TAU_DEG) == ONE
    # commuting eta past itself picks up eps
    assert commutation_unit(ref, ETA_DEG, ETA_DEG) == EPS
    _passed(1, "sign table reproduction")


def test_criterion_2_commutativity_law_equivalence():
    eps_generic = convention("epsilon")
    specialized = {name: convention(name, CoefMode("-1")) for name in ("minus-one", "epsilon")}
    span = range(-6, 7)
    for a1, a2, b1, b2 in itertools.product(span, repeat=4):
        a, b = Bidegree(a1, a2), Bidegree(b1, b2)
        expected = MINUS_ONE ** (a1 * b1) * MINUS_EPS ** (a2 * b1 + a1 * b2 + a2 * b2)
        assert commutation_unit(eps_generic, a, b) == expected
        total = MINUS_ONE ** (a1 * b1)
        for conv in specialized.values():
            assert commutation_unit(conv, a, b) == total
    _passed(2, "commutativity-law equivalence on [-6,6]^4")


def test_criterion_3_cocycle_laws():
    for unit in UNITS:
        assert check_cocycle_identity(unit_twist(unit)).holds
    for fields in itertools.product(UNITS, repeat=5):
        beta = QuadraticCochain(*fields)
        delta = coboundary(beta)
        assert check_cocycle_identity(delta).holds
        assert is_symmetric(delta)
    for unit in UNITS:
        assert is_coboundary(unit_twist(unit)).is_coboundary == (unit == ONE)
    _passed(3, "cocycle laws for presets and all 4^5 coboundaries")


def test_criterion_4_class_counts():
    assert count_classes(UnitSubgroup.MINUS_ONE) == 2
    assert count_classes(UnitSubgroup.FULL) == 4
    _passed(4, "coboundary class counts")


def test_criterion_5_realization_decision_table():
    expected = {
        ("betti", "reference"): False,
        ("betti", "minus-one"): True,
        ("betti", "epsilon"): True,
        ("geometric-fixed", "minus-one"): False,
        ("geometric-fixed", "epsilon"): True,
    }
    for (model_name, conv_name), want in expected.items():
        model = builtin_model(model_name)
        conv = convention(conv_name)
        decision = is_ring_hom(conv, model)
        assert decision.is_hom == want, (model_name, conv_name)
        if not want:
            a, b = decision.witness
            assert realized_sign(model, model.defect(a, b) * conv.twist(a, b)) == -1
    _passed(5, "realization decision table with witnesses")


def test_criterion_6_algebra_engine():
    catalog = universal_presentation(include_tau=True)
    free = Presentation(
        [Generator(entry.name, entry.degree) for entry in UNIVERSAL] + [Generator("tau", TAU.degree)]
    )
    names = [gen.name for gen in catalog.generators]
    rng = random.Random(2022)

    for conv_name in PRESET_NAMES:
        conv = convention(conv_name)
        for _ in range(1000):
            x, y, z = (generator_element(rng.choice(names), conv, catalog) for _ in range(3))
            left = multiply(multiply(x, y, conv, catalog), z, conv, catalog)
            right = multiply(x, multiply(y, z, conv, catalog), conv, catalog)
            assert left == right

    free_names = [gen.name for gen in free.generators]
    for conv_name in PRESET_NAMES:
        conv = convention(conv_name)
        for _ in range(10):
            word = [rng.choice(free_names) for _ in range(rng.randint(2, 6))]
            expected_form = normalize(word, conv, free)
            for _ in range(100):
                assert _random_swap_normalize(word, conv, free, rng) == expected_form

    for conv_name in PRESET_NAMES:
        conv = convention(conv_name)
        for _ in range(100):
            x = normalize([rng.choice(free_names) for _ in range(rng.randint(1, 3))], conv, free)
            y = normalize([rng.choice(free_names) for _ in range(rng.randint(1, 3))], conv, free)
            assert graded_commutator(x, y, conv, free) == ZERO

    ref = convention("reference")
    assert eval_expr("(1-eps)*eta*eta", ref, catalog) == ZERO
    assert eval_expr("(1-eps)*eta", ref, catalog) == ZERO
    assert eval_expr("(1-eps)*rho", ref, catalog) == ZERO
    integral = convention("epsilon", CoefMode("-1", 0))
    doubled = eval_expr("2*eta*eta", integral, catalog)
    assert not doubled.is_zero
    assert doubled.terms[0][1] == Coef(2)
    _passed(6, "algebra engine: associativity, normal forms, commutators, relations")


def test_criterion_7_sensitivity_analysis():
    base_rows = sensitivity_table(universal_presentation())
    assert len(base_rows) == 21
    for row in base_rows:
        if not row.trivial:
            assert "rho" in (row.x, row.y) or "eta" in (row.x, row.y)
            assert row.rescued
    tau_rows = sensitivity_table(universal_presentation(include_tau=True))
    unrescued = {(row.x, row.y) for row in tau_rows if row.rescued is False}
    assert unrescued
    assert ("nu", "tau") in unrescued or ("tau", "nu") in unrescued
    _passed(7, "sensitivity analysis of universal pairs")


def test_criterion_8_conjecture_scanner():
    rows = load_sample_table()
    assert check_conjecture(rows) == []
    planted = GroupTableRow("x", 3, 1, True, "synthetic")
    assert check_conjecture(rows + [planted]) == [planted]
    for fmt in ("csv", "json"):
        text = render_table(rows, fmt)
        assert parse_table(text, fmt) == rows
        assert render_table(parse_table(text, fmt), fmt) == text
    _passed(8, "conjecture scanner and round trips")

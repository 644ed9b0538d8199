import itertools

import pytest
from hypothesis import given, strategies as st

from motsign import (
    Bidegree,
    CoefMode,
    Convention,
    EPS,
    GENERIC,
    MINUS_EPS,
    MINUS_ONE,
    ModeMismatchError,
    ONE,
    ParseError,
    PRESET_NAMES,
    base_commutation,
    commutation_unit,
    convention,
    convention_from_json,
    convention_to_json,
    error_factor,
    super_degree,
    twist_ratio,
    unit_twist,
)

GRID = [Bidegree(p, q) for p in range(-4, 5) for q in range(-4, 5)]

TAU = Bidegree(0, -1)
NU = Bidegree(3, 2)
TAU0 = Bidegree(1, 0)
ETA = Bidegree(1, 1)


def test_presets_resolve():
    assert convention("reference").twist == unit_twist(ONE)
    assert convention("deligne").twist == unit_twist(ONE)
    assert convention("minus-one").twist == unit_twist(MINUS_ONE)
    assert convention("epsilon").twist == unit_twist(EPS)
    assert convention("bernstein").twist == unit_twist(EPS)
    assert convention("minus-epsilon").twist == unit_twist(MINUS_EPS)
    assert convention("u=-1").name == "minus-one"
    assert convention("u=eps").name == "epsilon"
    aliases = {
        "reference": ["reference", "deligne", "u=1", "1"],
        "minus-one": ["minus-one", "u=-1", "-1"],
        "epsilon": ["epsilon", "bernstein", "u=eps", "eps"],
        "minus-epsilon": ["minus-epsilon", "u=-eps", "-eps"],
    }
    assert sum(map(len, aliases.values())) == 14
    for name, unit in zip(aliases, (ONE, MINUS_ONE, EPS, MINUS_EPS)):
        for alias in aliases[name]:
            assert convention(alias) == Convention(name, unit_twist(unit), GENERIC), alias
            assert convention(f" {alias.upper()} ").name == name
    with pytest.raises(ParseError):
        convention("koszul")


def test_base_commutation_examples():
    assert base_commutation(ETA, ETA) == EPS
    assert base_commutation(Bidegree(1, 0), Bidegree(0, -1)) == MINUS_ONE
    for b in (Bidegree(1, 2), Bidegree(-3, 0), Bidegree(0, 0)):
        assert base_commutation(Bidegree(0, 0), b) == ONE


def test_commutation_unit_quoted_signs():
    ref = convention("reference")
    eps_conv = convention("epsilon")
    assert commutation_unit(ref, TAU, NU) == MINUS_ONE
    assert commutation_unit(eps_conv, TAU, NU) == MINUS_EPS
    assert commutation_unit(ref, TAU0, TAU) == MINUS_ONE
    total_sign = convention("minus-one", CoefMode("-1"))
    assert commutation_unit(total_sign, TAU0, TAU) == ONE
    assert commutation_unit(ref, ETA, ETA) == EPS


def test_commutation_unit_total_degree_formula_under_minus_one_mode():
    for name in ("minus-one", "epsilon"):
        conv = convention(name, CoefMode("-1"))
        for a, b in itertools.product(GRID[::3], GRID[::3]):
            assert commutation_unit(conv, a, b) == MINUS_ONE ** (a.p * b.p)


def test_commutation_unit_epsilon_closed_form():
    conv = convention("epsilon")
    for a, b in itertools.product(GRID[::3], GRID[::3]):
        expected = MINUS_ONE ** (a.p * b.p) * MINUS_EPS ** (a.q * b.p + a.p * b.q + a.q * b.q)
        assert commutation_unit(conv, a, b) == expected


def test_reference_commutation_is_base_commutation():
    ref = convention("reference")
    for a, b in itertools.product(GRID[::5], GRID[::5]):
        assert commutation_unit(ref, a, b) == base_commutation(a, b)


def test_commutation_unit_skew_symmetric():
    for name in PRESET_NAMES:
        conv = convention(name)
        for a, b in itertools.product(GRID[::4], GRID[::4]):
            assert commutation_unit(conv, a, b) * commutation_unit(conv, b, a) == ONE


def test_error_factor_examples():
    # exponent a2 b1 + a1 b2 = -3 - 2 = -5, odd
    assert error_factor(Bidegree(-1, -1), NU) == EPS
    assert error_factor(Bidegree(3, 0), Bidegree(7, 0)) == ONE
    assert error_factor(ETA, ETA) == ONE


def test_error_factor_is_ratio_of_commutation_units():
    ref = convention("reference")
    eps_conv = convention("epsilon")
    for a, b in itertools.product(GRID[::3], GRID[::3]):
        ratio = commutation_unit(eps_conv, a, b) * commutation_unit(ref, a, b) ** -1
        assert error_factor(a, b) == ratio


def test_twist_ratio_examples():
    ratio = twist_ratio(convention("reference"), convention("epsilon"))
    assert ratio.cocycle == unit_twist(EPS)
    assert not ratio.is_coboundary
    assert ratio.witness is None

    same = twist_ratio(convention("epsilon"), convention("epsilon"))
    assert same.cocycle == unit_twist(ONE)
    assert same.is_coboundary

    cross = twist_ratio(convention("minus-one"), convention("minus-epsilon"))
    assert cross.cocycle == unit_twist(EPS)
    assert not cross.is_coboundary


def test_twist_ratio_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        twist_ratio(convention("reference"), convention("epsilon", CoefMode("-1")))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_super_degree_gives_deligne_penalty(a, b, c, d):
    # commuting degree a + b*sigma past c + d*sigma costs (-1)^(ac) eps^(bd)
    penalty = base_commutation(super_degree(a, b), super_degree(c, d))
    assert penalty == MINUS_ONE ** (a * c) * EPS ** (b * d)


def test_convention_json_roundtrip():
    conv = convention("epsilon", CoefMode("-1", 8))
    doc = convention_to_json(conv)
    loaded = convention_from_json(doc)
    assert loaded.twist == conv.twist
    assert loaded.mode == conv.mode

    from_unit = convention_from_json({"u": "-eps", "mode": {"eps": "generic", "modulus": 0}})
    assert from_unit.twist == unit_twist(MINUS_EPS)

    with pytest.raises(ParseError):
        convention_from_json({"mode": {"eps": "generic"}})
    with pytest.raises(ParseError):
        convention_from_json({"u": "1", "twist": {"m11": "1", "m12": "1", "m21": "1", "m22": "1"}})


@pytest.mark.parametrize("mode", [{"eps": "bogus"}, {"modulus": -3}])
def test_malformed_mode_document_raises_parse_error(mode):
    with pytest.raises(ValueError) as direct:
        CoefMode(mode.get("eps", "generic"), mode.get("modulus", 0))
    with pytest.raises(ParseError) as loaded:
        convention_from_json({"u": "eps", "mode": mode})
    # the CLI prints the message as it did when the ValueError escaped
    assert str(loaded.value) == str(direct.value)


def test_custom_convention_commutation():
    # twisting by a symmetric cocycle never changes the commutation law
    from motsign import BilinearCocycle

    symmetric = BilinearCocycle(MINUS_ONE, EPS, EPS, MINUS_EPS)
    conv = Convention("custom", symmetric)
    ref = convention("reference")
    for a, b in itertools.product(GRID[::6], GRID[::6]):
        assert commutation_unit(conv, a, b) == commutation_unit(ref, a, b)


def _circle_shuffle(a: Bidegree, b: Bidegree, u) -> object:
    """Oracle: the unit w with x y = y x w, by moving circles one swap at a time.

    A class of degree (p, q), p >= q >= 0, is p - q simplicial circles "s"
    and q weight circles "w". Each of x's circles, the last first, moves
    past every circle of y by adjacent swaps: s past s charges -1, w past w
    charges eps, and w past s (either way round) charges the convention's
    unit u. Only this unit level with nonnegative degrees is covered; a
    negative degree (the inverse of the circle model) and whole words of
    circles are not.
    """
    charge = {("s", "s"): MINUS_ONE, ("w", "w"): EPS, ("s", "w"): u, ("w", "s"): u}
    line = ["s"] * (a.p - a.q) + ["w"] * a.q + ["s"] * (b.p - b.q) + ["w"] * b.q
    w = ONE
    for start in reversed(range(a.p)):  # x's circles sit at 0 .. a.p - 1
        for i in range(start, start + b.p):
            w = w * charge[line[i], line[i + 1]]
            line[i], line[i + 1] = line[i + 1], line[i]
    assert line == ["s"] * (b.p - b.q) + ["w"] * b.q + ["s"] * (a.p - a.q) + ["w"] * a.q
    return w


def test_commutation_matches_the_circle_shuffle():
    degrees = [Bidegree(p, q) for p in range(5) for q in range(p + 1)]
    assert len(degrees) == 15
    for a, b in itertools.product(degrees, repeat=2):
        assert base_commutation(a, b) == _circle_shuffle(a, b, ONE), (a, b)
        for name, u in zip(PRESET_NAMES, (ONE, MINUS_ONE, EPS, MINUS_EPS)):
            assert commutation_unit(convention(name, GENERIC), a, b) == _circle_shuffle(a, b, u), (name, a, b)
        # units are their own inverses, so the ratio is a product
        assert error_factor(a, b) == _circle_shuffle(a, b, EPS) * _circle_shuffle(a, b, ONE), (a, b)

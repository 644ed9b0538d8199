import itertools
import random

import pytest
from hypothesis import given, strategies as st

from motsign import (
    Bidegree,
    BilinearCocycle,
    Coef,
    CoefMode,
    EPS,
    GENERIC,
    MINUS_EPS,
    MINUS_ONE,
    ONE,
    PRESET_NAMES,
    ParseError,
    QuadraticCochain,
    UNITS,
    Unit,
    base_commutation,
    commutation_unit,
    convention,
    error_factor,
    is_unit_coef,
    parse_bidegree,
    parse_coef,
    parse_unit,
    specialize,
)

units_st = st.sampled_from(UNITS)
coef_st = st.builds(Coef, st.integers(-100, 100), st.integers(-100, 100))
mode_st = st.sampled_from(
    [GENERIC, CoefMode("+1"), CoefMode("-1"), CoefMode("generic", 5), CoefMode("-1", 8)]
)


def test_unit_group_table_exhaustive():
    # abelian group of exponent 2 with identity ONE
    for x in UNITS:
        assert ONE * x == x
        assert x * x == ONE
        for y in UNITS:
            assert x * y in UNITS
            assert x * y == y * x
    assert len(set(UNITS)) == 4


def test_unit_product_examples():
    assert MINUS_ONE * MINUS_ONE == ONE
    assert EPS * MINUS_EPS == MINUS_ONE
    for x in UNITS:
        assert ONE * x == x


def test_unit_exponent_examples():
    assert EPS**-2 == ONE
    assert MINUS_EPS**-5 == MINUS_EPS
    assert MINUS_ONE**0 == ONE


@given(units_st, st.integers(-10, 10), st.integers(-10, 10))
def test_unit_exponent_additive(x, m, n):
    assert x ** (m + n) == x**m * x**n


def test_specialize_examples():
    one_minus_eps = Coef(1, -1)
    assert specialize(one_minus_eps, CoefMode("-1")) == Coef(2)
    assert specialize(one_minus_eps, CoefMode("+1")) == Coef(0)
    assert specialize(one_minus_eps, GENERIC) == one_minus_eps


@given(coef_st, coef_st, mode_st)
def test_specialize_is_a_ring_hom(x, y, mode):
    assert specialize(x * y, mode) == specialize(specialize(x, mode) * specialize(y, mode), mode)
    assert specialize(x + y, mode) == specialize(specialize(x, mode) + specialize(y, mode), mode)


@given(coef_st, mode_st)
def test_specialize_idempotent(c, mode):
    once = specialize(c, mode)
    assert specialize(once, mode) == once


def test_mode_minus_one_modulus_zero_is_integers():
    for a, b in itertools.product(range(-4, 5), repeat=2):
        assert specialize(Coef(a, b), CoefMode("-1")).b == 0


def test_mode_validation():
    with pytest.raises(ValueError):
        CoefMode("weird")
    with pytest.raises(ValueError):
        CoefMode("generic", -3)


def _has_small_inverse(c: Coef, bound: int = 10) -> bool:
    # brute-force oracle: search for x with c * x = 1
    for a, b in itertools.product(range(-bound, bound + 1), repeat=2):
        if c * Coef(a, b) == Coef(1):
            return True
    return False


def test_is_unit_coef_examples():
    assert is_unit_coef(EPS.to_coef(), GENERIC)
    one_minus_eps = Coef(1, -1)
    assert not _has_small_inverse(one_minus_eps)
    assert not is_unit_coef(one_minus_eps, GENERIC)
    assert not is_unit_coef(Coef(2), CoefMode("-1", 0))


def test_is_unit_coef_matches_brute_force_search():
    for a, b in itertools.product(range(-3, 4), repeat=2):
        c = Coef(a, b)
        assert is_unit_coef(c, GENERIC) == _has_small_inverse(c)


def test_is_unit_coef_with_modulus():
    assert is_unit_coef(Coef(2), CoefMode("-1", 5))
    assert not is_unit_coef(Coef(2), CoefMode("-1", 4))
    # 1+eps has determinant 0, so it is never a unit, any modulus
    assert not is_unit_coef(Coef(1, 1), CoefMode("generic", 5))
    # 2+eps has determinant 3, a unit mod 5 but not mod 9
    assert is_unit_coef(Coef(2, 1), CoefMode("generic", 5))
    assert not is_unit_coef(Coef(2, 1), CoefMode("generic", 9))


def test_unit_render_parse_roundtrip():
    for u in UNITS:
        assert parse_unit(str(u)) == u
    with pytest.raises(ParseError):
        parse_unit("2")


def test_coef_render_parse_roundtrip():
    samples = [Coef(0), Coef(3), Coef(-2), Coef(0, 1), Coef(0, -1), Coef(0, 4), Coef(1, -1), Coef(-2, 3)]
    for c in samples:
        assert parse_coef(str(c)) == c
    assert parse_coef("1 - eps") == Coef(1, -1)
    assert parse_coef("2+3*eps") == Coef(2, 3)
    with pytest.raises(ParseError):
        parse_coef("eps+1")  # integer part must come first
    with pytest.raises(ParseError):
        parse_coef("1eps")
    with pytest.raises(ParseError):
        parse_coef("9" * 5000 + "+eps")  # past the integer-string digit limit
    with pytest.raises(ParseError):
        parse_coef("\u0663")  # an Arabic-Indic three: digits are ASCII only


def test_coef_with_a_trailing_newline_is_refused():
    # the whole text must be a coefficient: a trailing newline is not skipped
    for text in ("1\n", "2*eps\n", "1-eps\n"):
        with pytest.raises(ParseError, match="not a coefficient"):
            parse_coef(text)


def test_bidegree_arithmetic_and_parse():
    assert Bidegree(1, 2) + Bidegree(-3, 5) == Bidegree(-2, 7)
    assert Bidegree(0, 0) + Bidegree(4, -1) == Bidegree(4, -1)
    assert parse_bidegree("3,2") == Bidegree(3, 2)
    assert parse_bidegree("(0,-1)") == Bidegree(0, -1)
    assert parse_bidegree(" +3 , -1 ") == Bidegree(3, -1)
    # each coordinate is a sign and ASCII digits, not whatever int() reads
    for bad in ("3", "1_0,2", "\u0663,1", "3,1\u3000", "9" * 5000 + ",1"):
        with pytest.raises(ParseError):
            parse_bidegree(bad)


def _made(unit, s: int, t: int) -> None:
    """A unit the library made is one of the four constants, and it is
    (-1)^s eps^t by an independent reading of the bits."""
    assert any(unit is u for u in UNITS), unit
    assert (unit.s, unit.t) == (s % 2, t % 2)


def _specialized_bits(u, mode: CoefMode) -> tuple[int, int]:
    """Oracle: the first unit, in the order 1, -1, eps, -eps, whose
    coefficient has the same image under the mode as u's."""
    image = specialize(u.to_coef(), mode)
    for s, t in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if specialize(Coef((-1) ** s, 0) if t == 0 else Coef(0, (-1) ** s), mode) == image:
            return s, t
    raise AssertionError("no unit has the image of a unit")


PRESET_BITS = {"reference": (0, 0), "minus-one": (1, 0), "epsilon": (0, 1), "minus-epsilon": (1, 1)}


def test_every_unit_made_is_interned():
    assert tuple(PRESET_BITS) == PRESET_NAMES
    rng = random.Random(7)
    ints = [0, 1, -1, 2, -2, 3, -3, 10**30, -(10**30), 10**30 + 1, -(10**30) - 1]
    ints += [rng.randint(-(10**6), 10**6) for _ in range(20)]
    degrees = [Bidegree(rng.choice(ints), rng.choice(ints)) for _ in range(30)]
    for x, y in itertools.product(UNITS, repeat=2):
        _made(x * y, x.s + y.s, x.t + y.t)
    for x in (*UNITS, Unit(3, -5)):
        for n in ints:
            _made(x**n, x.s * n, x.t * n)
        for eps, modulus in itertools.product(("generic", "+1", "-1"), range(5)):
            mode = CoefMode(eps, modulus)
            _made(x.specialize(mode), *_specialized_bits(x, mode))
    for a, b in itertools.product(degrees, repeat=2):
        _made(base_commutation(a, b), (a.p - a.q) * (b.p - b.q), a.q * b.q)
        _made(error_factor(a, b), 0, a.q * b.p + a.p * b.q)
        # the preset twists u^(a2 (b1 - b2)), applied as twist(a, b) twist(b, a)
        twists = a.q * (b.p - b.q) + b.q * (a.p - a.q)
        for name, (us, ut) in PRESET_BITS.items():
            w = commutation_unit(convention(name), a, b)
            _made(w, (a.p - a.q) * (b.p - b.q) + us * twists, a.q * b.q + ut * twists)
    for _ in range(40):
        alpha = BilinearCocycle(*rng.choices(UNITS, k=4))
        beta = QuadraticCochain(*rng.choices(UNITS, k=5))
        a, b = rng.choice(degrees), rng.choice(degrees)
        exps = (a.p * b.p, a.p * b.q, a.q * b.p, a.q * b.q)
        units = (alpha.m11, alpha.m12, alpha.m21, alpha.m22)
        _made(alpha(a, b), sum(m.s * e for m, e in zip(units, exps)), sum(m.t * e for m, e in zip(units, exps)))
        exps = (a.p, a.q, a.p * a.q, a.p * (a.p - 1) // 2, a.q * (a.q - 1) // 2)
        units = (beta.c1, beta.c2, beta.c12, beta.c11, beta.c22)
        _made(beta(a), sum(m.s * e for m, e in zip(units, exps)), sum(m.t * e for m, e in zip(units, exps)))

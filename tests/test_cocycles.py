import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from motsign import (
    Bidegree,
    BilinearCocycle,
    EPS,
    MINUS_EPS,
    MINUS_ONE,
    ONE,
    ParseError,
    QuadraticCochain,
    UNITS,
    Unit,
    UnitSubgroup,
    antisymmetrization,
    check_cocycle_identity,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    cocycle_from_json,
    cocycle_to_json,
    count_classes,
    is_coboundary,
    is_symmetric,
    parity_classes,
    unit_twist,
)

units_st = st.sampled_from(UNITS)
cocycle_st = st.builds(BilinearCocycle, units_st, units_st, units_st, units_st)
cochain_st = st.builds(QuadraticCochain, units_st, units_st, units_st, units_st, units_st)

ALL_COCYCLES = [BilinearCocycle(*fields) for fields in itertools.product(UNITS, repeat=4)]
ALL_COCHAINS = [QuadraticCochain(*fields) for fields in itertools.product(UNITS, repeat=5)]


def _slow_eval(alpha: BilinearCocycle, a: Bidegree, b: Bidegree):
    """Oracle: expand the product of unit powers factor by factor."""
    result = ONE
    for unit, exponent in (
        (alpha.m11, a.p * b.p),
        (alpha.m12, a.p * b.q),
        (alpha.m21, a.q * b.p),
        (alpha.m22, a.q * b.q),
    ):
        for _ in range(abs(exponent)):
            result = result * (unit if exponent > 0 else unit**-1)
    return result


def test_cocycle_value_examples():
    alpha_eps = unit_twist(EPS)
    # exponent a2 (b1 - b2) = 1 * (3 - 2) = 1
    assert alpha_eps(Bidegree(1, 1), Bidegree(3, 2)) == EPS
    for alpha in (alpha_eps, unit_twist(MINUS_ONE)):
        for b in (Bidegree(0, 0), Bidegree(2, -5), Bidegree(-1, 3)):
            assert alpha(Bidegree(0, 0), b) == ONE
    # exponent (-1)(3 - 2) = -1, odd
    a, b = Bidegree(0, -1), Bidegree(3, 2)
    assert _slow_eval(unit_twist(MINUS_ONE), a, b) == MINUS_ONE
    assert unit_twist(MINUS_ONE)(a, b) == MINUS_ONE


@given(cocycle_st, st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_eval_matches_slow_expansion(alpha, p1, q1, p2, q2):
    a, b = Bidegree(p1, q1), Bidegree(p2, q2)
    assert alpha(a, b) == _slow_eval(alpha, a, b)


def test_unit_twist_fields():
    assert unit_twist(ONE) == BilinearCocycle(ONE, ONE, ONE, ONE)
    assert unit_twist(EPS) == BilinearCocycle(ONE, ONE, EPS, EPS)
    assert unit_twist(MINUS_ONE)(Bidegree(0, 1), Bidegree(1, 0)) == MINUS_ONE


def test_cocycles_and_cochains_are_reduced():
    zero = Bidegree(0, 0)
    probes = [Bidegree(2, -3), Bidegree(-1, 1), Bidegree(5, 0)]
    for alpha in ALL_COCYCLES[::19]:
        for d in probes:
            assert alpha(zero, d) == ONE
            assert alpha(d, zero) == ONE
    for beta in ALL_COCHAINS[::77]:
        assert beta(zero) == ONE


def test_bilinearity_in_each_slot():
    alpha = unit_twist(MINUS_EPS)
    rng = [Bidegree(p, q) for p in range(-2, 3) for q in range(-2, 3)]
    for a, a2, b in itertools.product(rng[:8], rng[8:16], rng[16:24]):
        assert alpha(a + a2, b) == alpha(a, b) * alpha(a2, b)
        assert alpha(b, a + a2) == alpha(b, a) * alpha(b, a2)


def test_check_identity_presets_hold():
    for u in UNITS:
        assert check_cocycle_identity(unit_twist(u), range(-3, 4)).holds


def test_check_identity_all_bilinear_cocycles_hold():
    for alpha in ALL_COCYCLES:
        assert check_cocycle_identity(alpha).holds


def test_check_identity_coboundaries_hold():
    for beta in ALL_COCHAINS[:64]:
        assert check_cocycle_identity(coboundary(beta), range(-3, 4)).holds


def test_parity_reduction_agrees_with_brute_force():
    # the BilinearCocycle fast path must decide exactly like the generic
    # callable sweep over the same grid (both parities present)
    grid = range(-1, 2)
    for alpha in ALL_COCYCLES[::7]:
        fast = check_cocycle_identity(alpha, grid)
        slow = check_cocycle_identity(lambda a, b, alpha=alpha: alpha(a, b), grid)
        assert fast.holds == slow.holds
        assert fast.holds  # bilinear forms always satisfy the identity


def test_check_identity_counterexample_with_witness():
    def f(a, b):
        return MINUS_ONE**a.p

    result = check_cocycle_identity(f, range(-2, 3))
    assert not result.holds
    u, v, w = result.witness
    assert f(u + v, w) * f(u, v) != f(v, w) * f(u, v + w)
    # hand check: the all-(1,0) triple violates the identity
    one = Bidegree(1, 0)
    assert f(one + one, one) * f(one, one) != f(one, one) * f(one, one + one)


def test_check_identity_empty_grid_rejected():
    with pytest.raises(ValueError):
        check_cocycle_identity(unit_twist(EPS), range(0))


def _cochain_delta(beta: QuadraticCochain, a: Bidegree, b: Bidegree):
    """Oracle: the coboundary evaluated straight from the definition."""
    return beta(a) * beta(b) * beta(a + b) ** -1


def test_coboundary_examples():
    trivial = QuadraticCochain(ONE, ONE, ONE, ONE, ONE)
    assert coboundary(trivial) == BilinearCocycle(ONE, ONE, ONE, ONE)
    twisted = QuadraticCochain(ONE, ONE, MINUS_ONE, ONE, ONE)
    assert coboundary(twisted) == BilinearCocycle(ONE, MINUS_ONE, MINUS_ONE, ONE)
    for beta in ALL_COCHAINS[::41]:
        assert check_cocycle_identity(coboundary(beta), range(-3, 4)).holds


def test_coboundary_matches_direct_expansion():
    grid = [Bidegree(p, q) for p in range(-2, 3) for q in range(-2, 3)]
    for beta in ALL_COCHAINS[::17]:
        delta = coboundary(beta)
        for a, b in itertools.product(grid, repeat=2):
            assert delta(a, b) == _cochain_delta(beta, a, b)


def test_every_coboundary_is_symmetric_exhaustive():
    assert len(ALL_COCHAINS) == 4**5
    for beta in ALL_COCHAINS:
        assert is_symmetric(coboundary(beta))


def test_is_symmetric_examples():
    assert is_symmetric(unit_twist(ONE))
    assert not is_symmetric(unit_twist(EPS))


def test_is_coboundary_examples():
    assert not is_coboundary(unit_twist(MINUS_ONE))
    for beta in ALL_COCHAINS[::29]:
        assert is_coboundary(coboundary(beta))
    square = unit_twist(EPS) * unit_twist(EPS)
    decision = is_coboundary(square)
    assert decision.is_coboundary
    assert coboundary(decision.witness) == square


def test_is_coboundary_witness_reconstructs():
    for alpha in ALL_COCYCLES:
        decision = is_coboundary(alpha)
        assert decision.is_coboundary == is_symmetric(alpha)
        if decision.is_coboundary:
            assert coboundary(decision.witness) == alpha


def test_count_classes():
    assert count_classes(UnitSubgroup.MINUS_ONE) == 2
    assert count_classes(UnitSubgroup.FULL) == 4
    assert count_classes(UnitSubgroup.TRIVIAL) == 1
    assert count_classes(UnitSubgroup.EPS) == 2
    assert count_classes(UnitSubgroup.MINUS_EPS) == 2


def _enumerated_classes(sub: UnitSubgroup) -> int:
    """Oracle: keep one representative per class over all 4^4 (or fewer)
    cocycles valued in sub."""
    reps: list[BilinearCocycle] = []
    for fields in itertools.product(sub.elements(), repeat=4):
        alpha = BilinearCocycle(*fields)
        # alpha / rep = alpha * rep: every unit-valued cocycle is its own inverse
        if not any(is_coboundary(alpha * rep) for rep in reps):
            reps.append(alpha)
    return len(reps)


@pytest.mark.parametrize("sub", list(UnitSubgroup))
def test_count_classes_matches_enumeration(sub):
    assert count_classes(sub) == _enumerated_classes(sub)


def test_unit_subgroup_parsing():
    assert UnitSubgroup.from_string("minus-one") is UnitSubgroup.MINUS_ONE
    assert UnitSubgroup.from_string("gen-eps") is UnitSubgroup.EPS
    assert UnitSubgroup.from_string("full") is UnitSubgroup.FULL
    with pytest.raises(ParseError):
        UnitSubgroup.from_string("so(3)")


@given(cocycle_st, cocycle_st)
def test_pointwise_product_is_a_cocycle(a, b):
    assert check_cocycle_identity(a * b, range(-2, 3)).holds


@given(cocycle_st, cochain_st)
def test_torsor_ratio_preserves_class(alpha, beta):
    # dividing by a coboundary never moves the antisymmetrization class
    ratio = alpha * coboundary(beta)  # a coboundary is its own inverse
    assert antisymmetrization(ratio) == antisymmetrization(alpha)


def test_json_roundtrip():
    for alpha in ALL_COCYCLES[::23]:
        assert cocycle_from_json(cocycle_to_json(alpha)) == alpha
    for beta in ALL_COCHAINS[::97]:
        assert cochain_from_json(cochain_to_json(beta)) == beta
    with pytest.raises(ParseError):
        cocycle_from_json({"m11": "1"})


def _scan_reference(f, grid):
    """Oracle: the triple scan over the whole grid, calling f four times
    per triple, as check_cocycle_identity did before it tabulated f."""
    points = list(grid)
    coords = [Bidegree(p, q) for p in points for q in points]
    for u, v, w in itertools.product(coords, repeat=3):
        if f(u + v, w) * f(u, v) != f(v, w) * f(u, v + w):
            return False, (u, v, w)
    return True, None


DIFFERENTIAL_GRIDS = [range(-2, 3), range(0, 1), range(1, 2), range(3, 6), [5, -5, 2, -2], [1, 1, 0], range(0, 7, 2)]


def _pair_functions(rng: random.Random, grid) -> list:
    """Seeded spiked pair functions (one argument pair of some triple's
    identity sent to a non-identity unit), coboundaries of quadratic
    cochains, and non-cocycles built from unit powers."""
    xs = list(grid)
    fs = []
    for _ in range(6):
        u, v, w = (Bidegree(rng.choice(xs), rng.choice(xs)) for _ in range(3))
        spike = rng.choice([(u + v, w), (u, v), (v, w), (u, v + w)])
        unit = rng.choice(UNITS[1:])
        fs.append(lambda a, b, spike=spike, unit=unit: unit if (a, b) == spike else ONE)
    for _ in range(2):
        beta = QuadraticCochain(*rng.choices(UNITS, k=5))
        fs.append(lambda a, b, beta=beta: beta(a) * beta(b) * beta(a + b))
    for _ in range(3):
        x, y = rng.choices(UNITS[1:], k=2)
        fs.append(lambda a, b, x=x, y=y: x**a.p * y ** (a.q * b.q * b.p))
    return fs


@pytest.mark.parametrize("grid", DIFFERENTIAL_GRIDS, ids=repr)
def test_tabulated_check_matches_scan_reference(grid):
    rng = random.Random(repr(grid))
    for f in _pair_functions(rng, grid):
        seen = set()

        def once(a, b, f=f, seen=seen):
            assert (a, b) not in seen, f"f evaluated twice at {(a, b)}"
            seen.add((a, b))
            return f(a, b)

        result = check_cocycle_identity(once, grid)
        assert (result.holds, result.witness) == _scan_reference(f, grid)


def test_spiked_check_on_a_large_grid_tabulates_only_what_it_meets():
    # one spike at the grid's first point fails the scan's second triple;
    # the check must get there without first building the grid's bidegrees
    corner = Bidegree(-1000, -1000)
    calls = []

    def f(a, b):
        calls.append((a, b))
        return MINUS_ONE if a == b == corner else ONE

    result = check_cocycle_identity(f, range(-1000, 1001))
    assert (result.holds, result.witness) == (False, (corner, corner, Bidegree(-1000, -999)))
    assert len(calls) <= 8


PARITY_RANGES = [range(0), range(3, 3), range(5, 0), range(0, 5, -1), range(7, 8), range(-8, -7), range(-6, 0),
                 range(-1, -9, -1), range(-9, 10, 3), range(10, -9, -3), range(4, 40, 2), range(-5, 40, 2),
                 range(-40, -3, 2), range(3, -40, -2), range(-7, 7), range(7, -8, -1), range(-7, 8)]


def test_parity_classes_reads_ranges_like_the_walk():
    # a range is read arithmetically; any other iterable is walked once, so
    # the walk over the same points is the reference
    rng = random.Random(41)
    grids = PARITY_RANGES + [
        range(start, start + rng.randint(-3, 20) * step, step)
        for step in (1, -1, 2, -2, 3, -3)
        for start in rng.sample(range(-25, 26), 12)
    ]
    for grid in grids:
        if not grid:
            with pytest.raises(ValueError):
                parity_classes(grid)
            continue
        assert parity_classes(grid) == parity_classes(iter(grid)), grid
    assert all(x.p < 0 and x.q < 0 for x in parity_classes(range(-40, -3, 2)))
    huge = range(-3 * 10**30, 3 * 10**30 + 1, 3)  # past sys.maxsize: len() would overflow
    assert parity_classes(huge) == [Bidegree(p, q) for p, q in ((0, 0), (3, 0), (0, 3), (3, 3))]


def test_check_identity_rejects_non_unit_values():
    with pytest.raises(TypeError, match=r"\(0, 1\)"):
        check_cocycle_identity(lambda a, b: (0, 1), range(-1, 2))


def _cochain_reference(beta: QuadraticCochain, a: Bidegree) -> Unit:
    """Oracle: the closed formula, with whole exponents, that beta was
    evaluated by before it read a table of residues mod 4."""
    e11 = a.p * (a.p - 1) // 2
    e22 = a.q * (a.q - 1) // 2
    s = beta.c1.s * a.p + beta.c2.s * a.q + beta.c12.s * (a.p * a.q) + beta.c11.s * e11 + beta.c22.s * e22
    t = beta.c1.t * a.p + beta.c2.t * a.q + beta.c12.t * (a.p * a.q) + beta.c11.t * e11 + beta.c22.t * e22
    return Unit(s, t)


def test_residue_table_matches_closed_formula():
    # beta(a) is read from its 16 residues mod 4; C(p, 2) mod 2 needs p mod 4
    points = [Bidegree(p, q) for p in range(-9, 10) for q in range(-9, 10)]
    for beta in ALL_COCHAINS:
        assert [beta(a) for a in points] == [_cochain_reference(beta, a) for a in points], beta


def test_residue_table_is_invisible():
    beta = QuadraticCochain(MINUS_ONE, EPS, MINUS_EPS, ONE, EPS)
    values = (MINUS_ONE, EPS, MINUS_EPS, ONE, EPS)
    assert [f.name for f in dataclasses.fields(QuadraticCochain)] == ["c1", "c2", "c12", "c11", "c22"]
    assert all(f.type == "Unit" for f in dataclasses.fields(QuadraticCochain))
    assert beta == QuadraticCochain(*values) and beta != QuadraticCochain(ONE, *values[1:])
    assert hash(beta) == hash(values)
    assert repr(beta) == (
        "QuadraticCochain(c1=Unit(s=1, t=0), c2=Unit(s=0, t=1), c12=Unit(s=1, t=1), c11=Unit(s=0, t=0), "
        "c22=Unit(s=0, t=1))"
    )
    assert cochain_to_json(beta) == {"c1": "-1", "c2": "eps", "c12": "-eps", "c11": "1", "c22": "eps"}
    points = [Bidegree(p, q) for p in range(-5, 6) for q in range(-5, 6)]
    replaced = dataclasses.replace(beta, c11=MINUS_ONE)
    assert replaced == QuadraticCochain(MINUS_ONE, EPS, MINUS_EPS, MINUS_ONE, EPS)
    assert [replaced(a) for a in points] == [_cochain_reference(replaced, a) for a in points]
    for twin in (copy.deepcopy(beta), pickle.loads(pickle.dumps(beta)), copy.copy(beta)):
        assert twin == beta and hash(twin) == hash(beta) and repr(twin) == repr(beta)
        assert [twin(a) for a in points] == [beta(a) for a in points]


def test_records_refuse_non_unit_fields():
    # a record of ints would pass a check unscanned and answer in ints
    with pytest.raises(TypeError, match=r"BilinearCocycle\.m11 must be a Unit, got 1$"):
        BilinearCocycle(1, 1, 1, 1)
    with pytest.raises(TypeError, match=r"BilinearCocycle\.m22 must be a Unit, got None$"):
        BilinearCocycle(ONE, EPS, ONE, None)
    with pytest.raises(TypeError, match=r"QuadraticCochain\.c1 must be a Unit, got '1'$"):
        QuadraticCochain("1", ONE, ONE, ONE, ONE)
    with pytest.raises(TypeError, match=r"QuadraticCochain\.c22 must be a Unit, got \(0, 1\)$"):
        QuadraticCochain(ONE, ONE, ONE, ONE, (0, 1))
    with pytest.raises(TypeError, match=r"QuadraticCochain\.c12"):
        dataclasses.replace(QuadraticCochain(*UNITS, ONE), c12=-1)
    good = {"m11": "1", "m12": "-1", "m21": "eps", "m22": "-eps"}
    for bad in ({**good, "m11": 1}, {**good, "m21": "2"}, {**good, "m22": None}, ["1", "1", "1", "1"]):
        with pytest.raises(ParseError):
            cocycle_from_json(bad)
    chain = {"c1": "1", "c2": "1", "c12": "eps", "c11": "1", "c22": "-1"}
    for bad in ({**chain, "c1": 1}, {**chain, "c22": "-2"}, {k: chain[k] for k in ("c1", "c2")}, "1"):
        with pytest.raises(ParseError):
            cochain_from_json(bad)
    assert cocycle_from_json(good) == BilinearCocycle(ONE, MINUS_ONE, EPS, MINUS_EPS)
    assert cochain_from_json(chain) == QuadraticCochain(ONE, ONE, EPS, ONE, MINUS_ONE)


def test_check_builds_each_grid_point_once():
    # range(-1, 2): arguments range over [-2, 2]^2, 25 points, in 369
    # distinct pairs (225 (u + v, w), 225 (u, v + w), 81 of them in both)
    beta = QuadraticCochain(EPS, MINUS_ONE, MINUS_EPS, EPS, MINUS_ONE)
    calls = []

    def f(a, b):
        calls.append((a, b))
        return beta(a) * beta(b) * beta(a + b)

    result = check_cocycle_identity(f, range(-1, 2))
    assert (result.holds, result.witness) == (True, None)
    assert len(calls) == len(set(calls)) == 369
    args = [x for pair in calls for x in pair]
    # as many objects as values: equal points are one object, built once
    assert len({id(x) for x in args}) == len(set(args)) <= 25


def test_interned_check_decides_like_the_scan():
    grid = range(-1, 2)
    for beta in ALL_COCHAINS:
        result = check_cocycle_identity(lambda a, b, beta=beta: beta(a) * beta(b) * beta(a + b), grid)
        assert (result.holds, result.witness) == (True, None), beta
    rng = random.Random(2023)
    span = [Bidegree(p, q) for p in range(-2, 3) for q in range(-2, 3)]
    failing = 0
    for _ in range(20):
        spike, unit = tuple(rng.choices(span, k=2)), rng.choice(UNITS[1:])

        def f(a, b, spike=spike, unit=unit):
            return unit if (a, b) == spike else ONE

        result = check_cocycle_identity(f, grid)
        assert (result.holds, result.witness) == _scan_reference(f, grid), spike
        failing += not result.holds
    assert 0 < failing < 20

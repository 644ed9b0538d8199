import copy
import gc
import itertools
import random
import re
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from motsign import (
    Bidegree,
    BilinearCocycle,
    Coef,
    CoefMode,
    Convention,
    EPS,
    Element,
    Generator,
    InhomogeneousError,
    MINUS_EPS,
    MINUS_ONE,
    ModeMismatchError,
    MotsignError,
    ONE,
    ParseError,
    Presentation,
    RewriteLimitError,
    TAU,
    UNIVERSAL,
    ZERO,
    add_elements,
    base_commutation,
    commutation_unit,
    convention,
    eval_expr,
    generator_element,
    graded_commutator,
    multiply,
    normalize,
    parse_expression,
    presentation_from_json,
    presentation_to_json,
    scalar_element,
    scalar_mul,
    specialize,
    transport_check,
    universal_presentation,
)
from motsign.units import UNITS
from motsign import algebra
from motsign.algebra import MAX_EXPONENT, MAX_GENERATORS, MAX_NESTING

REF = convention("reference")
EPS_CONV = convention("epsilon")
PRESETS = [convention(name) for name in ("reference", "minus-one", "epsilon", "minus-epsilon")]

CATALOG = universal_presentation(include_tau=True)
FREE = Presentation(
    [Generator(entry.name, entry.degree) for entry in UNIVERSAL] + [Generator("tau", TAU.degree)]
)


def test_presentation_validation():
    with pytest.raises(MotsignError):
        Presentation([Generator("x", Bidegree(1, 0)), Generator("x", Bidegree(0, 1))])
    with pytest.raises(MotsignError):
        Presentation([Generator("eps", Bidegree(1, 0))])
    with pytest.raises(MotsignError):
        Presentation([Generator("2x", Bidegree(1, 0))])
    gens = [Generator("x", Bidegree(1, 1)), Generator("y", Bidegree(1, 1))]
    with pytest.raises(MotsignError):
        # two-term relation with non-unit coefficients is not supported
        Presentation(gens, ["(1-eps)*x + (1-eps)*y"])
    with pytest.raises(MotsignError):
        Presentation(gens, ["x - x"])


AB = [Generator("a", Bidegree(1, 0)), Generator("b", Bidegree(2, 0))]


def test_prebuilt_relation_mixing_bidegrees_rejected():
    # a + b is a sum of terms of bidegrees (1,0) and (2,0); rewriting a to
    # -b would silently change the degree of every element containing a
    mixed = Element((((0,), Coef(1)), ((1,), Coef(1))), Bidegree(1, 0))
    with pytest.raises(InhomogeneousError):
        Presentation(AB, [mixed])
    with pytest.raises(InhomogeneousError):  # homogeneous, but not of its stated degree
        Presentation(AB, [Element((((1,), Coef(1)),), Bidegree(1, 0))])


@pytest.mark.parametrize(
    "relation",
    [
        Element((((7,), Coef(1)),), Bidegree(1, 0)),  # index out of range
        Element((((-1,), Coef(1)),), Bidegree(2, 0)),  # negative index
        Element((((1, 0), Coef(1)),), Bidegree(3, 0)),  # unsorted word
        Element(((["a"], Coef(1)),), Bidegree(1, 0)),  # not a tuple of indices
        Element((((0,), 1),), Bidegree(1, 0)),  # int coefficient
        7,  # neither an expression string nor an element
    ],
)
def test_malformed_prebuilt_relation_rejected(relation):
    with pytest.raises(MotsignError):
        Presentation(AB, [relation])


@pytest.mark.parametrize(
    "terms",
    [
        (((0,), Coef(2)), ((0,), Coef(1))),
        (((0,), Coef(1)), ((0,), Coef(-1)), ((1,), Coef(1))),  # a + -a + b
    ],
)
def test_prebuilt_relation_repeating_a_word_rejected(terms):
    # such a rule's tail would hold its own lead, so rewriting a never ends
    gens = [Generator("a", Bidegree(1, 0)), Generator("b", Bidegree(1, 0))]
    with pytest.raises(MotsignError, match="relation repeats the word 'a'"):
        Presentation(gens, [Element(terms, Bidegree(1, 0))])
    written = Presentation(gens, ["a + -a + b"])  # a string is merged as it is read: b = 0
    assert eval_expr("a", REF, written).render(written) == "a"
    assert eval_expr("b", REF, written) == ZERO


def test_prebuilt_relation_matches_string_relation():
    gens = [Generator("a", Bidegree(1, 0)), Generator("b", Bidegree(1, 0))]
    prebuilt = Presentation(gens, [Element((((0,), Coef(1)), ((1,), Coef(-1))), Bidegree(1, 0))])
    written = Presentation(gens, ["a - b"])
    assert prebuilt.relations == written.relations
    for mode in ROUNDTRIP_MODES:
        conv = convention("epsilon", mode)
        for pres in (prebuilt, written):
            # a lone generator that leads a rule is rewritten as well
            assert eval_expr("a", conv, pres).render(pres) == "b"
            assert eval_expr("a*a", conv, pres) == eval_expr("b*b", conv, pres)


def test_normalize_examples():
    assert normalize(["tau", "nu"], REF, CATALOG).render(CATALOG) == "-nu*tau"
    eta = normalize(["eta"], REF, CATALOG)
    assert eta.render(CATALOG) == "eta"
    assert eta.degree == Bidegree(1, 1)
    squared = normalize(["eta", "eta"], convention("epsilon", CoefMode("-1")), CATALOG)
    assert squared.terms == ((tuple(sorted((1, 1))), Coef(1)),)
    assert squared.render(CATALOG) == "eta^2"


def test_two_eta_squared_survives_minus_one_mode():
    mode = CoefMode("-1")
    doubled = eval_expr("2*eta*eta", convention("epsilon", mode), CATALOG)
    assert not doubled.is_zero
    assert doubled.render(CATALOG) == "2*eta^2"
    eta_idx = CATALOG.index("eta")
    assert dict(doubled.terms).get((eta_idx, eta_idx), Coef()) == Coef(2)
    assert dict(doubled.terms).get((eta_idx,), Coef()) == Coef(0)


def test_normalize_empty_word_rejected():
    with pytest.raises(MotsignError):
        normalize([], REF, CATALOG)


def test_multiply_examples():
    tau0_tau = eval_expr("tau0*tau", REF, CATALOG)
    tau_tau0 = eval_expr("tau*tau0", REF, CATALOG)
    assert tau0_tau == scalar_mul(-1, tau_tau0, REF, CATALOG)

    total_sign = convention("minus-one", CoefMode("-1"))
    assert eval_expr("tau0*tau", total_sign, CATALOG) == eval_expr("tau*tau0", total_sign, CATALOG)

    y = eval_expr("nu", EPS_CONV, CATALOG)
    assert multiply(scalar_element(1, EPS_CONV, CATALOG), y, EPS_CONV, CATALOG) == y


def test_multiply_by_zero():
    y = eval_expr("nu", REF, CATALOG)
    assert multiply(ZERO, y, REF, CATALOG) == ZERO
    assert multiply(y, ZERO, REF, CATALOG) == ZERO


def test_graded_commutator_examples():
    for x_name, y_name, conv in [("eta", "eta", EPS_CONV), ("tau", "nu", REF), ("eta", "nu", EPS_CONV)]:
        x = generator_element(x_name, conv, FREE)
        y = generator_element(y_name, conv, FREE)
        assert graded_commutator(x, y, conv, FREE) == ZERO


def test_graded_commutator_free_random_sample():
    rng = random.Random(7)
    names = [gen.name for gen in FREE.generators]
    for conv in PRESETS:
        for _ in range(60):
            word_x = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            word_y = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            x = normalize(word_x, conv, FREE)
            y = normalize(word_y, conv, FREE)
            assert graded_commutator(x, y, conv, FREE) == ZERO


def test_eval_expr_relation_examples():
    assert eval_expr("(1-eps)*(eta*eta)", EPS_CONV, CATALOG) == ZERO
    assert eval_expr("(1-eps)*rho", REF, CATALOG) == ZERO
    assert eval_expr("(1-eps)*eta", REF, CATALOG) == ZERO
    ref_product = eval_expr("eta*nu", REF, CATALOG)
    eps_product = eval_expr("eta*nu", EPS_CONV, CATALOG)
    assert ref_product == eps_product
    assert not ref_product.is_zero


def test_eval_expr_inhomogeneous_sum():
    with pytest.raises(InhomogeneousError):
        eval_expr("eta + nu", REF, CATALOG)
    with pytest.raises(InhomogeneousError):
        eval_expr("1 + eta", REF, CATALOG)


def test_eval_expr_unknown_name():
    with pytest.raises(MotsignError):
        eval_expr("theta", REF, CATALOG)


def test_parse_expression_errors():
    with pytest.raises(ParseError):
        parse_expression("eta *")
    with pytest.raises(ParseError):
        parse_expression("(eta")
    with pytest.raises(ParseError):
        parse_expression("eta ! nu")
    with pytest.raises(ParseError):
        parse_expression("2*" + "9" * 5000)  # past the integer-string digit limit
    tree = parse_expression("-2*(eta + eps*eta)")
    assert eval_expr(tree, REF, CATALOG).render(CATALOG) == "-4*eta"


def test_parse_error_column_is_the_offending_token():
    # 1-based, past the whitespace before the token; one past the end when
    # the token is missing
    messages = {
        "eta ! nu": "unexpected character '!' (column 5)",
        "eta + )": "unexpected token ')' (column 7)",
        "eta  999": "unexpected token '999' (column 6)",
        "2*eta^ x": "exponent must be an integer from 1 to 1000 (column 8)",
        "(eta\t x": "expected ')' (column 7)",
        "eta *  ": "unexpected end of input (column 8)",
        # a run of names is one token, reported at and by its first name
        "eta  nu*tau": "unexpected token 'nu' (column 6)",
        "(eta nu \t* tau)": "expected ')' (column 6)",
        "eta^nu*tau": "exponent must be an integer from 1 to 1000 (column 5)",
        # digits and whitespace are ASCII only
        "\u0663*eta": "unexpected character '\u0663' (column 1)",
        "eta\u3000*nu": "unexpected character '\\u3000' (column 4)",
    }
    for text, message in messages.items():
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert str(info.value) == message, text
    assert parse_expression("eta ") == parse_expression(" eta") == parse_expression("eta")


def test_parsing_leaves_no_reference_cycles():
    # a parse, good or bad, frees what it built without the cycle collector
    gc.collect()
    gc.disable()
    try:
        parse_expression("2*eta^3 + (eta - nu)*tau")
        for text in ("2*(eta + )", "(eta", "eta ! nu"):
            try:
                parse_expression(text)
            except ParseError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_error_column_points_into_the_text():
    # on random token soup, a reported token starts at its column, a bare
    # column is a non-space character, and a missing token is past the end
    rng = random.Random(14)
    alphabet = ["eta", "nu", "12", "0", "+", "-", "*", "(", ")", "^", "!", "#", " ", "  ", "\t", "\n"]
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        try:
            parse_expression(text)
        except ParseError as exc:
            message, column = str(exc), exc.column
        else:
            continue
        at = text[column - 1 :]
        quoted = re.search(r"(?:character|token) '(.*)' \(column", message)
        if quoted:
            assert at.startswith(quoted[1]), (text, message)
        elif column <= len(text):
            assert not at[0].isspace(), (text, message)
        else:
            assert column == len(text) + 1, (text, message)


def test_transport_check_examples():
    report = transport_check("tau*nu", REF, EPS_CONV, FREE)
    assert not report.agree
    assert report.discrepancy == EPS

    report = transport_check("nu_top*sigma_top", REF, EPS_CONV, FREE)
    assert report.agree
    assert report.discrepancy is None

    report = transport_check("rho*nu", REF, EPS_CONV, CATALOG)
    assert report.agree


def test_transport_discrepancy_depends_on_the_order():
    # the presets are pairwise non-coboundaries, so from reference to
    # epsilon a product's discrepancy depends on its factors' order
    for pres in (FREE, CATALOG):
        report = transport_check("tau*nu", REF, EPS_CONV, pres)
        assert (report.agree, report.discrepancy) == (False, EPS)
        report = transport_check("nu*tau", REF, EPS_CONV, pres)
        assert (report.agree, report.discrepancy) == (True, None)
        assert report.result_from == report.result_to == eval_expr("nu*tau", REF, pres)


def test_transport_check_parses_its_text_once(monkeypatch):
    texts = ["tau*nu", "nu_top*sigma_top", "rho*nu + 2*eta*eta_top", "eps*eta*eta"]
    expected = [transport_check(parse_expression(text), REF, EPS_CONV, CATALOG) for text in texts]
    calls = []
    monkeypatch.setattr(algebra, "parse_expression", lambda text: calls.append(text) or parse_expression(text))
    for text, report in zip(texts, expected):
        assert transport_check(text, REF, EPS_CONV, CATALOG) == replace(report, expression=text)
    assert calls == texts


def test_transport_check_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        transport_check("eta", REF, convention("epsilon", CoefMode("-1")), CATALOG)


def test_associativity_random_sample():
    rng = random.Random(11)
    names = [gen.name for gen in CATALOG.generators]
    for conv in PRESETS:
        for _ in range(120):
            x, y, z = (generator_element(rng.choice(names), conv, CATALOG) for _ in range(3))
            left = multiply(multiply(x, y, conv, CATALOG), z, conv, CATALOG)
            right = multiply(x, multiply(y, z, conv, CATALOG), conv, CATALOG)
            assert left == right


def _random_swap_normalize(word, conv, pres, rng):
    """Oracle: sort by randomly chosen adjacent transpositions, sometimes
    inserting a redundant swap-and-return, charging the reference
    commutation unit each time; then hand the sorted word to the engine's
    coefficient pipeline."""
    idxs = [pres.index(name) for name in word]
    degrees = pres._degrees
    twist = ONE
    for i in range(len(idxs)):
        for j in range(i + 1, len(idxs)):
            twist = twist * conv.twist(degrees[idxs[i]], degrees[idxs[j]])
    pen = ONE
    work = list(idxs)
    steps = 0
    while True:
        inverted = [i for i in range(len(work) - 1) if work[i] > work[i + 1]]
        if not inverted:
            break
        steps += 1
        if steps > 500:
            raise AssertionError("random sort did not terminate")
        if rng.random() < 0.25 and len(work) > 1:
            # swap any adjacent pair there and back again
            i = rng.randrange(len(work) - 1)
            a, b = degrees[work[i]], degrees[work[i + 1]]
            pen = pen * base_commutation(a, b) * base_commutation(b, a)
            continue
        i = rng.choice(inverted)
        a, b = degrees[work[i]], degrees[work[i + 1]]
        pen = pen * base_commutation(a, b)
        work[i], work[i + 1] = work[i + 1], work[i]
    coef = (twist * pen).specialize(conv.mode).to_coef()
    return algebra._assemble({tuple(work): coef}, pres.monomial_degree(tuple(work)), conv, pres)


def test_normal_form_invariant_under_swap_order():
    rng = random.Random(23)
    names = [gen.name for gen in FREE.generators]
    for conv in PRESETS:
        for _ in range(25):
            word = [rng.choice(names) for _ in range(rng.randint(2, 6))]
            expected = normalize(word, conv, FREE)
            for _ in range(20):
                assert _random_swap_normalize(word, conv, FREE, rng) == expected


def test_normalize_agrees_with_folded_multiply():
    # a word is the product of its letters: normalize and a left fold of
    # multiply must produce the same element
    rng = random.Random(13)
    names = [gen.name for gen in CATALOG.generators]
    for conv in PRESETS:
        for _ in range(40):
            word = [rng.choice(names) for _ in range(rng.randint(1, 5))]
            folded = generator_element(word[0], conv, CATALOG)
            for name in word[1:]:
                folded = multiply(folded, generator_element(name, conv, CATALOG), conv, CATALOG)
            assert folded == normalize(word, conv, CATALOG)


def test_degree_additivity():
    rng = random.Random(5)
    names = [gen.name for gen in CATALOG.generators]
    for _ in range(80):
        x = generator_element(rng.choice(names), REF, CATALOG)
        y = generator_element(rng.choice(names), REF, CATALOG)
        product = multiply(x, y, REF, CATALOG)
        if not product.is_zero:
            assert product.degree == x.degree + y.degree


def test_add_elements_and_scalars():
    x = eval_expr("eta", REF, CATALOG)
    assert add_elements(x, scalar_mul(-1, x, REF, CATALOG), REF, CATALOG) == ZERO
    assert add_elements(ZERO, x, REF, CATALOG) == x
    with pytest.raises(InhomogeneousError):
        add_elements(x, eval_expr("nu", REF, CATALOG), REF, CATALOG)
    assert scalar_mul(Coef(0, 1), x, REF, CATALOG) == x  # eps*eta = eta


def test_rewrite_rule_engine():
    gens = [Generator("x", Bidegree(1, 0)), Generator("y", Bidegree(1, 0)), Generator("z", Bidegree(2, 0))]
    pres = Presentation(gens, ["x*x - z"])
    assert eval_expr("x*x", REF, pres).render(pres) == "z"
    # cascades: x^3 -> x z, with the commutation penalty handled
    assert eval_expr("x*x*x", REF, pres).render(pres) == "x*z"
    # elements divisible by the lead rewrite wherever they sit
    assert eval_expr("y*x*x", REF, pres).render(pres) == "y*z"


def test_rewrite_respects_unit_leading_coefficient():
    gens = [Generator("x", Bidegree(1, 1)), Generator("w", Bidegree(2, 2))]
    pres = Presentation(gens, ["eps*x*x - w"])
    # eps^-1 = eps, so x*x = eps*w
    assert eval_expr("x*x", REF, pres).render(pres) == "eps*w"
    # every generic unit is its own inverse
    for relation, expected in [("x*x - w", "w"), ("-x*x - w", "-w"), ("-eps*x*x + 3*w", "3*eps*w")]:
        pres = Presentation(gens, [relation])
        assert eval_expr("x*x", REF, pres).render(pres) == expected


def test_rewrite_limit_guard(monkeypatch):
    gens = [Generator("x", Bidegree(1, 0)), Generator("z", Bidegree(2, 0))]
    pres = Presentation(gens, ["x*x - z"])
    monkeypatch.setattr(algebra, "MAX_REWRITE_PASSES", 0)
    with pytest.raises(RewriteLimitError):
        eval_expr("x*x", REF, pres)


def _rescan_assemble(raw, conv, pres):
    """Reference for the rewrite order: sort every term on every pass and
    rewrite the least monomial some rule divides, with the first such rule
    in declaration order.  Returns the element and the number of rewrites;
    a rule is applied by `_apply_rule_reference`, on Coef values."""
    terms = {}
    for monomial, coef in raw.items():
        coef = pres.reduce_coef(monomial, coef, conv.mode)
        if not coef.is_zero():
            terms[monomial] = coef
    passes = 0
    while True:
        hits = ((m, rule) for m in sorted(terms) for rule in pres._rules if not Counter(rule.lead) - Counter(m))
        monomial, rule = next(hits, (None, None))
        if rule is None:
            break
        passes += 1
        if passes > algebra.MAX_REWRITE_PASSES:
            raise RewriteLimitError("no fixed point")
        rest = tuple(sorted((Counter(monomial) - Counter(rule.lead)).elements()))
        coef = terms.pop(monomial)
        for new_monomial, new_coef in _apply_rule_reference(rest, coef, rule, pres):
            total = pres.reduce_coef(new_monomial, terms.get(new_monomial, Coef()) + new_coef, conv.mode)
            if total.is_zero():
                terms.pop(new_monomial, None)
            else:
                terms[new_monomial] = total
    if not terms:
        return ZERO, passes
    return Element(tuple(sorted(terms.items())), pres.monomial_degree(min(terms))), passes


def _chained_presentation(rng, depth):
    # the rewrite workload's relations: x_k*y_k rewrites to x_{k+1}*y_{k+1}
    # times a pair of normal-form generators, and the last lead to pairs;
    # the generators come in name order (see _in_workload_order)
    d = Bidegree(rng.randint(-3, 5), rng.randint(-3, 3))
    degrees = {n: d for n in "efg"}
    relations = []
    need = Bidegree(2 * d.p, 2 * d.q)
    for k in reversed(range(depth)):
        dx = Bidegree(2 * rng.randint(-2, 3), 2 * rng.randint(-2, 2))
        degrees[f"x{k}"], degrees[f"y{k}"] = dx, Bidegree(need.p - dx.p, need.q - dx.q)
        t1, t2 = rng.sample(["e*e", "e*f", "e*g", "f*f", "f*g", "g*g"], 2)
        if k < depth - 1:
            t1, t2 = f"x{k + 1}*y{k + 1}*{t1}", f"x{k + 1}*y{k + 1}*{t2}"
        relations.append(f"x{k}*y{k} - {t1} - eps*{t2}")
        need = need + Bidegree(2 * d.p, 2 * d.q)
    relations.append(rng.choice(["(1-eps)*e*f*g", "2*e*f*g", "(1+eps)*e*f*g"]))
    return Presentation([Generator(n, degrees[n]) for n in sorted(degrees)], relations)


def _in_workload_order(pres):
    """A chained presentation with its generators in the rewrite workload's
    order, x0, y0, x1, y1, ... before e, f, g, so that its leads are the
    workload's x_k*y_k; in name order e, f, g rank first and lead."""
    gens = sorted(pres.generators, key=lambda gen: (gen.name[0] not in "xy", gen.name[1:]))
    return Presentation(gens, pres.relation_strings)


def _overlapping_presentation(rng):
    # generators of one bidegree and leads sharing generators, so the
    # rules are not confluent and the rewrite order changes the answer
    names = "abcde"[: rng.randint(3, 5)]
    d = Bidegree(rng.randint(-2, 3), rng.randint(-2, 2))
    relations = []
    for _ in range(rng.randint(2, 4)):
        k = rng.randint(2, 3)
        words = ["*".join(sorted(rng.choice(names) for _ in range(k))) for _ in range(rng.randint(2, 3))]
        relations.append(" + ".join(rng.choice(["", "-", "eps*", "-eps*"]) + word for word in words))
    return Presentation([Generator(n, d) for n in names], relations)


def test_rewrite_order_matches_rescan_reference():
    rng = random.Random(31)
    cases = []
    while len(cases) < 24:
        try:
            cases.append((_overlapping_presentation(rng), None))
        except MotsignError:  # a relation with no unit lead, or one that is zero
            continue
    cases += [(_chained_presentation(rng, depth), depth) for depth in (2, 3, 2, 3)]
    cases += [(_in_workload_order(pres), depth) for pres, depth in cases[-4:]]
    modes = [CoefMode(), CoefMode("-1"), CoefMode("generic", 4)]
    for pres, depth in cases:
        for trial in range(12):
            conv = convention("epsilon", modes[trial % 3])
            raw = _random_raw(rng, pres, depth)
            degree = pres.monomial_degree(next(iter(raw)))
            assert algebra._assemble(raw, degree, conv, pres) == _rescan_assemble(raw, conv, pres)[0]


def _random_raw(rng, pres, depth):
    """Raw terms of one bidegree: words of one length over an overlapping
    presentation (depth None), or x0^a y0^a times e, f, g over a chained one,
    with a up to 8 in the workload's order (x0 first), where x0*y0 leads."""
    n, raw = len(pres.generators), {}
    if depth is None:
        length = rng.randint(2, 6)
        for _ in range(rng.randint(1, 4)):
            monomial = tuple(sorted(rng.randrange(n) for _ in range(length)))
            raw[monomial] = Coef(rng.randint(-3, 3), rng.randint(-3, 3))
    else:
        # x0^a y0^a times a fixed number of e, f, g: one bidegree
        a, length = rng.randint(1, 8 if pres.generators[0].name == "x0" else 4), rng.randint(1, 3)
        lead = (pres.index("x0"),) * a + (pres.index("y0"),) * a
        for _ in range(rng.randint(1, 3)):
            normal = tuple(pres.index(rng.choice("efg")) for _ in range(length))
            raw[tuple(sorted(lead + normal))] = Coef(rng.randint(-3, 3), rng.randint(-3, 3))
    return raw


def test_rule_loop_matches_rescan_reference_in_every_mode(monkeypatch):
    # the rule loop on integer pairs against the Coef rescan in every mode,
    # over overlapping rules (where the rewrite order shows) and chained
    # ones; the second pass keeps two annihilator bases per presentation,
    # so the cache evicts while a loop runs
    rng = random.Random(89)
    cases = []
    while len(cases) < 10:
        try:
            cases.append((_overlapping_presentation(rng), None))
        except MotsignError:  # a relation with no unit lead, or one that is zero
            continue
    cases += [(_chained_presentation(rng, depth), depth) for depth in (1, 2, 3)]
    cases += [(_in_workload_order(pres), depth) for pres, depth in cases[-3:]]
    outcomes = Counter()
    for bound in (algebra.MAX_BASIS_CACHE, 2):
        monkeypatch.setattr(algebra, "MAX_BASIS_CACHE", bound)
        for pres, depth in cases:
            pres._basis_cache.clear()
            for mode in ALL_MODES * 2:
                conv = convention(rng.choice(PRESETS).name, mode)
                raw = _random_raw(rng, pres, depth)
                degree = pres.monomial_degree(next(iter(raw)))
                want, passes = _rescan_assemble(raw, conv, pres)
                assert algebra._assemble(raw, degree, conv, pres) == want, (pres.relation_strings, raw, conv)
                outcomes["zero" if want == ZERO else "nonzero"] += 1
                outcomes["deep"] += passes > 100
                if not passes:
                    continue
                # the limit trips on the same rewrite as in the reference
                with monkeypatch.context() as limit:
                    limit.setattr(algebra, "MAX_REWRITE_PASSES", passes)
                    assert algebra._assemble(raw, degree, conv, pres) == want
                    limit.setattr(algebra, "MAX_REWRITE_PASSES", passes - 1)
                    for assemble in (lambda: algebra._assemble(raw, degree, conv, pres),
                                     lambda: _rescan_assemble(raw, conv, pres)):
                        with pytest.raises(RewriteLimitError):
                            assemble()
                outcomes["limited"] += 1
            assert len(pres._basis_cache) <= bound
    assert outcomes["nonzero"] > 500 and outcomes["zero"] > 200 and outcomes["limited"] > 300, outcomes
    assert outcomes["deep"] > 10, outcomes  # x0^a*y0^a, a up to 8, in the workload's order


def _merge_words_reference(m1, m2, pres):
    """Oracle: the sorted union of two sorted words and one reference
    commutation unit per strictly inverted cross pair, as _merge_words
    computed it before it read parity masks."""
    pen = ONE
    degrees = pres._degrees
    for i in m1:
        for j in m2:
            if i > j:
                pen = pen * base_commutation(degrees[i], degrees[j])
    return tuple(sorted(m1 + m2)), pen


def _kernel_presentations():
    rng = random.Random(43)
    chained = [_chained_presentation(rng, depth) for depth in (1, 2, 3, 4)]
    return [FREE, CATALOG] + chained + [_in_workload_order(pres) for pres in chained]


def _random_words(rng, n):
    """Sorted words over n generators: empty, short, long repeats of one or
    two letters, and words of 200 and more letters."""
    words = [(), (rng.randrange(n),)]
    words += [tuple(sorted(rng.randrange(n) for _ in range(rng.randint(1, 8)))) for _ in range(6)]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        words.append(tuple(sorted((i,) * rng.randint(2, 60) + (j,) * rng.randint(0, 5))))
    words += [tuple(sorted(rng.randrange(n) for _ in range(rng.randint(200, 260)))) for _ in range(2)]
    return words


def test_merge_words_matches_per_pair_reference():
    rng = random.Random(47)
    for pres in _kernel_presentations():
        n = len(pres.generators)
        for _ in range(2):
            words = _random_words(rng, n)
            for m1 in words:
                for m2 in words:
                    assert algebra._merge_words(m1, m2, pres) == _merge_words_reference(m1, m2, pres)


def test_quotient_matches_counter_reference():
    rng = random.Random(53)
    for pres in _kernel_presentations():
        n = len(pres.generators)
        words = _random_words(rng, n) + [rule.lead for rule in pres._rules]
        for m in words:
            # sub-words of m divide it; other words mostly do not
            subs = [tuple(sorted(rng.sample(m, rng.randint(0, len(m))))) for _ in range(3)]
            for div in subs + words[:8]:
                rest = Counter(m) - Counter(div)
                want = None if Counter(div) - Counter(m) else tuple(sorted(rest.elements()))
                assert algebra._quotient(m, div) == want


def _lead_ranks(pres):
    """Each generator in some rule's lead, mapped to its rank among them."""
    return {i: rank for rank, i in enumerate(sorted({i for rule in pres._rules for i in rule.lead}))}


def _packed(word, pres):
    """Oracle: a word's packed vector, its counts of each lead generator
    shifted to a 64-bit field by that generator's rank, other letters in no
    field; and its two sign masks by `_xor_over`."""
    ranks = _lead_ranks(pres)
    vec = sum(count << 64 * ranks[i] for i, count in Counter(word).items() if i in ranks)
    return vec, algebra._xor_over(pres._s_above, word), algebra._xor_over(pres._t_above, word)


def test_packed_words_match_quotient_and_xor_over(monkeypatch):
    # a lead divides a word when no field of word - lead borrows its guard bit,
    # the top bit of each field, which no count (at most sys.maxsize) reaches;
    # the rest's vector is the difference, its masks the XOR of the two
    assert sys.maxsize < 1 << 63
    rng = random.Random(61)
    cases = _kernel_presentations()
    while len(cases) < 14:  # their leads, unlike the chains', flip both sign masks
        try:
            cases.append(_overlapping_presentation(rng))
        except MotsignError:  # a relation with no unit lead, or one that is zero
            continue
    assert all(any(rule.packed[k] for pres in cases for rule in pres._rules) for k in (1, 2))
    passes = []
    monkeypatch.setattr(algebra, "_apply_rule", lambda rest, a, b, rule: passes.append((rest, rule)) or [])
    for pres in cases:
        n, guard, ranks = len(pres.generators), pres._guard, _lead_ranks(pres)
        assert pres._fields == tuple(_packed((i,), pres)[0] for i in range(n))
        assert guard == sum(1 << 64 * rank + 63 for rank in ranks.values())
        for rule in pres._rules:
            assert rule.packed == _packed(rule.lead, pres)
            assert [step[4] for step in rule.steps] == [_packed(tail, pres) for tail, _ in rule.tail]
        words = _random_words(rng, n) + [rule.lead for rule in pres._rules]
        for m in words:
            vec, s, t = algebra._pack(m, pres)
            assert (vec, s, t) == _packed(m, pres)
            subs = [tuple(sorted(rng.sample(m, rng.randint(0, len(m))))) for _ in range(3)]
            for div in subs + words:
                div_vec, div_s, div_t = algebra._pack(div, pres)
                rest = algebra._quotient(m, div)
                # the guard test reads the lead generators only
                lead_part = tuple(i for i in div if i in ranks)
                divides = algebra._quotient(m, lead_part) is not None
                assert (((vec | guard) - div_vec) & guard == guard) == divides, (m, div)
                if rest is not None:
                    assert (vec - div_vec, s ^ div_s, t ^ div_t) == _packed(rest, pres)
            # the rule loop hands the first dividing rule the rest so packed
            # (here it rewrites the word to nothing, so it makes one pass)
            passes.clear()
            algebra._assemble({m: Coef(1)}, pres.monomial_degree(m), REF, pres)
            hits = [(rest, rule) for rule in pres._rules if (rest := algebra._quotient(m, rule.lead)) is not None]
            assert passes == [((rest, *_packed(rest, pres)), rule) for rest, rule in hits[:1]]


def _apply_rule_reference(rest, coef, rule, pres):
    """Oracle: the terms replacing coef * (rule.lead * rest), one reference
    commutation unit per strictly inverted cross pair, on Coef values."""
    _, pen = _merge_words_reference(rule.lead, rest, pres)
    factor = coef * pen.to_coef() * rule.neg_lead_inv
    want = []
    for tail_monomial, tail_coef in rule.tail:
        merged, tail_pen = _merge_words_reference(tail_monomial, rest, pres)
        want.append((merged, factor * tail_coef * tail_pen.to_coef()))
    return want


def test_apply_rule_matches_per_pair_reference():
    rng = random.Random(59)
    for pres in _kernel_presentations()[2:]:
        n = len(pres.generators)
        for rule in pres._rules:
            for rest in _random_words(rng, n):
                coef = Coef(rng.randint(-3, 3), rng.randint(-3, 3))
                got = algebra._apply_rule((rest, *_packed(rest, pres)), coef.a, coef.b, rule)
                assert [(word[0], Coef(a, b)) for word, a, b in got] == _apply_rule_reference(rest, coef, rule, pres)
                assert [word[1:] for word, _, _ in got] == [_packed(word[0], pres) for word, _, _ in got]


def test_element_rendering():
    assert ZERO.render(CATALOG) == "0"
    assert eval_expr("-eta", REF, CATALOG).render(CATALOG) == "-eta"
    assert eval_expr("3*nu", REF, CATALOG).render(CATALOG) == "3*nu"
    assert eval_expr("(1-eps)*tau", REF, CATALOG).render(CATALOG) == "(1-eps)*tau"
    assert eval_expr("2", REF, CATALOG).render(CATALOG) == "2"
    # nu has odd total degree, so the commutation law kills 2*nu^2
    assert eval_expr("3*nu*nu", REF, CATALOG).render(CATALOG) == "nu^2"


def test_presentation_json_roundtrip(tmp_path):
    doc = presentation_to_json(CATALOG)
    loaded = presentation_from_json(doc)
    assert [gen.name for gen in loaded.generators] == [gen.name for gen in CATALOG.generators]
    assert loaded.relation_strings == CATALOG.relation_strings
    assert eval_expr("(1-eps)*eta", REF, loaded) == ZERO
    with pytest.raises(ParseError):
        presentation_from_json({"generators": [{"name": "x"}]})


def test_commutation_law_holds_in_engine():
    # x y == w(deg x, deg y) y x for single generators of the catalog
    names = ["rho", "eta", "nu", "tau"]
    for conv in (REF, EPS_CONV):
        for x_name in names:
            for y_name in names:
                x = generator_element(x_name, conv, CATALOG)
                y = generator_element(y_name, conv, CATALOG)
                w = commutation_unit(conv, x.degree, y.degree).to_coef()
                lhs = multiply(x, y, conv, CATALOG)
                rhs = scalar_mul(w, multiply(y, x, conv, CATALOG), conv, CATALOG)
                assert lhs == rhs


def test_relations_are_read_as_written():
    gens = [Generator("eta", Bidegree(1, 1)), Generator("nu", Bidegree(3, 2))]
    pres = Presentation(gens, ["(1-eps)*eta", "(2-2*eps)*eta*nu"])
    # the first relation does not reduce the second to zero: each relation
    # is read on its own and becomes an annihilator entry
    assert len(pres._ann_entries) == 2
    assert pres.relations[1].terms == (((0, 1), Coef(2, -2)),)
    assert eval_expr("(2-2*eps)*eta*nu", REF, pres) == ZERO


def test_postfix_power():
    assert eval_expr("nu*eta_top^2", EPS_CONV, CATALOG) == eval_expr("nu*eta_top*eta_top", EPS_CONV, CATALOG)
    assert eval_expr("-eta^3", REF, CATALOG) == eval_expr("-(eta*eta*eta)", REF, CATALOG)
    assert eval_expr("2^3*eta", REF, CATALOG) == eval_expr("8*eta", REF, CATALOG)
    parse_expression(f"eta^{MAX_EXPONENT}")
    for bad in ("eta^0", f"eta^{MAX_EXPONENT + 1}", "eta^x", "eta^", "(eta)^2", "eta^2^2"):
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_deep_and_long_expressions():
    # flat chains of any length evaluate without recursion
    assert eval_expr("*".join(["1"] * 3000) + "*eta", REF, CATALOG) == eval_expr("eta", REF, CATALOG)
    assert eval_expr("+".join(["eta"] * 3000), REF, CATALOG) == eval_expr("3000*eta", REF, CATALOG)
    nested = "(" * MAX_NESTING + "eta" + ")" * MAX_NESTING
    assert eval_expr(nested, REF, CATALOG) == eval_expr("eta", REF, CATALOG)
    assert eval_expr("-" * MAX_NESTING + "eta", REF, CATALOG) == eval_expr("eta", REF, CATALOG)
    for bad in ("(" * 3000 + "eta" + ")" * 3000, "-" * 3000 + "eta", "(" * (MAX_NESTING + 1) + "eta" + ")" * (MAX_NESTING + 1)):
        with pytest.raises(ParseError):
            parse_expression(bad)


REWRITING = Presentation(
    [Generator("x", Bidegree(1, 0)), Generator("y", Bidegree(1, 0)), Generator("z", Bidegree(2, 0))], ["x*x - z"]
)
# interchangeable generators of one bidegree, so random sums stay homogeneous
SAME_DEGREE = {"eta_top": ("eta_top", "tau0"), "tau0": ("eta_top", "tau0"), "x": ("x", "y"), "y": ("x", "y")}
ROUNDTRIP_MODES = [CoefMode(), CoefMode("+1"), CoefMode("-1"), CoefMode("generic", 2), CoefMode("generic", 4)]


@st.composite
def _homogeneous_sums(draw):
    pres = draw(st.sampled_from([CATALOG, REWRITING]))
    base = draw(st.lists(st.sampled_from([gen.name for gen in pres.generators]), min_size=1, max_size=5))
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.permutations([draw(st.sampled_from(SAME_DEGREE.get(name, (name,)))) for name in base]))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        summands.append(f"({a}+{b}*eps)*" + "*".join(word))
    return pres, " + ".join(summands)


@settings(deadline=None)
@given(_homogeneous_sums(), st.sampled_from(PRESETS), st.sampled_from(ROUNDTRIP_MODES))
def test_rendered_elements_parse_back(case, preset, mode):
    pres, text = case
    x = eval_expr(text, convention(preset.name, mode), pres)
    # elements live on the reference word basis, so the rendering is read
    # back under the reference convention
    assert eval_expr(x.render(pres), convention("reference", mode), pres) == x


def test_render_refuses_coefficients_past_the_digit_limit():
    # evaluates fine, but its coefficient has more digits than str() allows
    huge = eval_expr("99999^1000*eta", REF, CATALOG)
    with pytest.raises(MotsignError, match="cannot render"):
        huge.render(CATALOG)
    # a coefficient under the limit still renders and parses back
    x = eval_expr("9^1000*9^1000*9^1000*9^1000*eta", REF, CATALOG)
    assert eval_expr(x.render(CATALOG), REF, CATALOG) == x


def test_rendered_powers_past_max_exponent_parse_back():
    x = eval_expr(f"eta_top^{MAX_EXPONENT}*eta_top", REF, CATALOG)
    assert x.render(CATALOG) == f"eta_top^{MAX_EXPONENT}*eta_top"
    assert eval_expr(x.render(CATALOG), REF, CATALOG) == x
    eta_top, tau0 = CATALOG.index("eta_top"), CATALOG.index("tau0")
    word = (eta_top,) * (2 * MAX_EXPONENT + 1) + (tau0,) * 3
    assert algebra._render_monomial(word, CATALOG) == f"eta_top^{MAX_EXPONENT}*eta_top^{MAX_EXPONENT}*eta_top*tau0^3"


def test_basis_cache_is_bounded(monkeypatch):
    convs = [convention(conv.name, mode) for conv in PRESETS for mode in ROUNDTRIP_MODES]
    catalog_texts = ["eta*eta*nu", "rho*rho*eta", "(1-eps)*eta*nu*nu", "tau*tau*nu*eta_top", "2*sigma*sigma*tau0"]

    def answers():
        out, sizes = [], []
        for pres, texts in [
            (universal_presentation(include_tau=True), catalog_texts),
            (Presentation(REWRITING.generators, ["x*x - z"]), ["x*x*x*y", "y*y*x*x*x"]),
        ]:
            for text in texts:
                for conv in convs:
                    out.append(eval_expr(text, conv, pres).render(pres))
                    sizes.append(len(pres._basis_cache))
        return out, max(sizes)

    expected, size = answers()
    assert size > 4
    monkeypatch.setattr(algebra, "MAX_BASIS_CACHE", 4)
    assert answers() == (expected, 4)


# ---------- annihilator reduction against a subgroup oracle ----------

# each annihilator's expression text and its pair (a, b) for a + b*eps
ORACLE_ANNIHILATORS = {
    "2": (2, 0), "3": (3, 0), "4": (4, 0), "6": (6, 0), "(1-eps)": (1, -1), "(1+eps)": (1, 1),
    "(2-2*eps)": (2, -2), "(2+eps)": (2, 1), "(3-5*eps)": (3, -5), "7*eps": (0, 7), "-7*eps": (0, -7),
}
ORACLE_DEGREES = [Bidegree(1, 0), Bidegree(1, 1), Bidegree(0, 1), Bidegree(2, 1), Bidegree(2, 0)]


def _circle_self_annihilator(d):
    """1 - (-1)^((p-q)^2) eps^(q^2) as a pair: a generator of degree (p, q)
    swapped past itself picks up that unit, so 1 minus it kills its square."""
    sign = -1 if (d.p - d.q) % 2 else 1
    return (1, -sign) if d.q % 2 else (1 - sign, 0)


def _subgroup(pairs, n):
    """The subgroup of (Z/n)^2 that the pairs and their eps multiples
    generate, closed under addition breadth first."""
    steps = [(a % n, b % n) for a, b in pairs] + [(b % n, a % n) for a, b in pairs]
    seen, queue = {(0, 0)}, [(0, 0)]
    for a, b in queue:
        for da, db in steps:
            v = ((a + da) % n, (b + db) % n)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def test_reduce_coef_matches_subgroup_oracle():
    # reduce_coef(x) == reduce_coef(y) exactly when specialize(x) -
    # specialize(y) lies in the subgroup the word's annihilators generate
    rng = random.Random(131)
    for _ in range(8):
        names = "abcd"[: rng.randint(2, 4)]
        degrees = {name: rng.choice(ORACLE_DEGREES) for name in names}
        declared = [
            (Counter(rng.choice(names) for _ in range(rng.randint(1, 2))), rng.choice(list(ORACLE_ANNIHILATORS)))
            for _ in range(rng.randint(1, 4))
        ]
        pres = Presentation(
            [Generator(name, d) for name, d in degrees.items()],
            [f"{text}*" + "*".join(sorted(word.elements())) for word, text in declared],
        )
        assert not pres._rules
        for _ in range(8):
            counts = Counter(rng.choice(names) for _ in range(rng.randint(1, 4)))
            monomial = tuple(sorted(pres.index(name) for name in counts.elements()))
            pairs = [ORACLE_ANNIHILATORS[text] for word, text in declared if not word - counts]
            pairs += [_circle_self_annihilator(degrees[name]) for name, k in counts.items() if k > 1]
            for n in range(1, 13):
                subgroup, coset = _subgroup(pairs, n), {}
                for v in itertools.product(range(n), repeat=2):
                    if v not in coset:
                        for s in subgroup:
                            coset[(v[0] + s[0]) % n, (v[1] + s[1]) % n] = v
                for eps in ("generic", "+1", "-1"):
                    mode = CoefMode(eps, n)
                    classes = set()
                    for a, b in itertools.product(range(n), repeat=2):
                        x = Coef(a + n * rng.randint(-50, 50), b + n * rng.randint(-50, 50))
                        y = specialize(x, mode)
                        classes.add((pres.reduce_coef(monomial, x, mode), coset[y.a, y.b]))
                    # one reduced value per coset, and one coset per value
                    reduced, cosets = zip(*classes)
                    assert len(classes) == len(set(reduced)) == len(set(cosets)), (pres.relation_strings, counts, mode)


def test_ideal_basis_takes_a_positive_eps_coefficient():
    # -7*eps and 7*eps generate one ideal, with one canonical basis
    assert algebra._ideal_basis([Coef(0, -7)]) == algebra._ideal_basis([Coef(0, 7)]) == (0, 7, 7)


# ---------- one reduction per product chain on rule-free presentations ----------

ALL_MODES = [CoefMode(eps, modulus) for eps in ("generic", "+1", "-1") for modulus in (0, 1, 2, 3, 4, 6)]
# 2*a and 3*a span a lattice holding 1, so a dies only when both are met;
# a of degree (1,0) has 2*a^2 = 0 and b of degree (1,1) has (1-eps)*b^2 = 0
KILLED = Presentation(
    [Generator("a", Bidegree(1, 0)), Generator("b", Bidegree(1, 1)), Generator("c", Bidegree(2, 1))],
    ["2*a", "3*a", "(1-eps)*b*c"],
)
TORSION = Presentation(
    [Generator("a", Bidegree(1, 0)), Generator("b", Bidegree(1, 1)), Generator("c", Bidegree(0, 1))],
    ["(1-eps)*a*b", "4*c", "(2+2*eps)*a*c", "6*b*b*c"],
)


def _rule_free_presentations():
    rng = random.Random(59)
    out = [KILLED, TORSION]
    while len(out) < 8:
        names = "abcd"[: rng.randint(2, 4)]
        gens = [Generator(n, rng.choice([Bidegree(1, 0), Bidegree(1, 1), Bidegree(0, 1), Bidegree(2, 1)])) for n in names]
        coefs = ["2", "3", "4", "6", "(1-eps)", "(1+eps)", "(2-2*eps)", "(2+eps)"]
        words = ["*".join(rng.choice(names) for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 4))]
        pres = Presentation(gens, [f"{rng.choice(coefs)}*{word}" for word in words])
        assert not pres._rules
        out.append(pres)
    return out


RULE_FREE = _rule_free_presentations()


def _pairwise_product(x, y, conv, pres):
    """Reference product: merge, twist and assemble one pair of elements."""
    if x.is_zero or y.is_zero:
        return ZERO
    twist = conv.twist(x.degree, y.degree)
    raw = {}
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            merged, pen = algebra._merge_words(m1, m2, pres)
            raw[merged] = raw.get(merged, Coef()) + c1 * c2 * (twist * pen).to_coef()
    return algebra._assemble(raw, x.degree + y.degree, conv, pres)


def _pairwise_eval(expr, conv, pres):
    """Reference evaluation that assembles every leaf and every partial
    product, folding a chain left to right; factors after a zero are still
    evaluated."""
    if isinstance(expr, algebra.NameExpr):
        if expr.name == "eps":
            return algebra._assemble({(): Coef(0, 1)}, Bidegree(0, 0), conv, pres)
        idx = pres.index(expr.name)
        return algebra._assemble({(idx,): Coef(1)}, pres._degrees[idx], conv, pres)
    if isinstance(expr, algebra.IntExpr):
        return algebra._assemble({(): Coef(expr.value)}, Bidegree(0, 0), conv, pres)
    if isinstance(expr, algebra.NegExpr):
        return scalar_mul(-1, _pairwise_eval(expr.child, conv, pres), conv, pres)
    if isinstance(expr, algebra.MulExpr):
        op, (first, *rest) = _pairwise_product, expr.factors
    else:
        op, (first, *rest) = add_elements, expr.terms
    result = _pairwise_eval(first, conv, pres)
    for operand in rest:
        result = op(result, _pairwise_eval(operand, conv, pres), conv, pres)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MotsignError as exc:
        return type(exc), str(exc)


def _random_text(rng, names, depth=0):
    """Products with sums, integers, eps and negations as factors; a sum
    adds a product to a reordered, rescaled copy of itself, so it stays
    homogeneous, and is sometimes zero.  A rare leaf is 0 or an unknown
    name, so that errors are compared too."""
    roll = rng.random()
    if depth > 1 or roll < 0.3:
        if roll < 0.005:
            return rng.choice(["0", "nosuch"])
        return rng.choice(names + ["eps", "2", "3", "-" + rng.choice(names)])
    factors = [_random_text(rng, names, depth + 1) for _ in range(rng.randint(2, 6))]
    if roll < 0.75:
        return "*".join(factors)
    scale = rng.choice(["1", "-1", "eps", "-eps", "2", "(1-eps)"])
    return f"({'*'.join(factors)} + {scale}*{'*'.join(reversed(factors))})"


def test_deferred_product_matches_pairwise_fold():
    rng = random.Random(61)
    outcomes = Counter()
    for pres in RULE_FREE:
        names = [gen.name for gen in pres.generators]
        for mode in ALL_MODES:
            conv = convention(rng.choice(PRESETS).name, mode)
            for _ in range(6):
                text = _random_text(rng, names)
                want = _outcome(_pairwise_eval, parse_expression(text), conv, pres)
                assert _outcome(eval_expr, text, conv, pres) == want, (text, conv)
                outcomes["error" if isinstance(want, tuple) else "zero" if want == ZERO else "nonzero"] += 1
            word = [rng.choice(names) for _ in range(rng.randint(1, 8))]
            assert normalize(word, conv, pres) == _pairwise_eval(parse_expression("*".join(word)), conv, pres)
    assert outcomes["nonzero"] > 150 and outcomes["zero"] > 150 and outcomes["error"] > 10


@pytest.mark.parametrize("mode", ALL_MODES, ids=str)
def test_deferred_product_reduces_the_final_word(mode):
    conv = convention("epsilon", mode)
    for pres, text in [
        (KILLED, "a*b"),  # 2*a and 3*a together kill a
        (KILLED, "eps*b*c"),  # (1-eps)*b*c = 0 only on the whole word
        (KILLED, "b*eps*c*b"),
        (TORSION, "3*a*a*b"),  # 2*a^2 = 0, then (1-eps)*a*b = 0
        (TORSION, "(1+eps)*a*c*a*b"),
        (TORSION, "eps*b*b*eps"),  # (1-eps)*b^2 = 0
        (TORSION, "5*c*c*c"),
        (TORSION, "2*a*a*(a + -a)*nosuch"),  # zero part-way, then an unknown name
    ]:
        want = _outcome(_pairwise_eval, parse_expression(text), conv, pres)
        assert _outcome(eval_expr, text, conv, pres) == want, text


def _trees(names):
    leaves = st.one_of(
        st.sampled_from(names).map(algebra.NameExpr),
        st.just(algebra.NameExpr("eps")),
        st.integers(0, 4).map(algebra.IntExpr),
    )

    def extend(children):
        products = st.lists(children, min_size=2, max_size=5).map(lambda fs: algebra.MulExpr(tuple(fs)))
        return st.one_of(
            children.map(algebra.NegExpr),
            products,
            products.map(lambda p: algebra.AddExpr((p, algebra.NegExpr(p)))),  # zero
            st.lists(children, min_size=2, max_size=3).map(lambda ts: algebra.AddExpr(tuple(ts))),  # often inhomogeneous
            st.tuples(products, leaves).map(lambda pair: algebra.AddExpr((pair[0], algebra.MulExpr((pair[1], pair[0]))))),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@st.composite
def _rule_free_cases(draw):
    pres = draw(st.sampled_from(RULE_FREE))
    return pres, draw(_trees([gen.name for gen in pres.generators]))


@settings(deadline=None, max_examples=200)
@given(_rule_free_cases(), st.sampled_from(PRESETS), st.sampled_from(ALL_MODES))
def test_deferred_product_matches_pairwise_fold_on_random_trees(case, preset, mode):
    pres, tree = case
    conv = convention(preset.name, mode)
    assert _outcome(eval_expr, tree, conv, pres) == _outcome(_pairwise_eval, tree, conv, pres)


def test_long_flat_product_matches_pairwise_fold():
    # e and f of even degree carry no self-annihilator, so the coefficient
    # keeps growing until f*f and a*e appear and their annihilators act
    gens = [Generator("a", Bidegree(1, 1)), Generator("e", Bidegree(2, 0)), Generator("f", Bidegree(0, 2))]
    pres = Presentation(gens, ["(1-eps)*e*f*f", "12*a*e"])
    rng = random.Random(67)
    factors = [rng.choice(["e", "f", "eps", "-e", "3", "(2+eps)"]) for _ in range(2990)] + ["a"] * 10
    rng.shuffle(factors)
    expr = parse_expression("*".join(factors))
    for mode in (CoefMode(), CoefMode("-1", 6)):
        conv = convention("minus-epsilon", mode)
        assert eval_expr(expr, conv, pres) == _pairwise_eval(expr, conv, pres)


def test_long_generator_run_matches_pairwise_fold():
    # one run of 600 generators, alone and after a left factor of two terms
    # whose words carry an odd weight, so that cross pairs charge eps
    rng = random.Random(71)
    letters = [rng.randrange(len(CATALOG.generators)) for _ in range(600)]
    run = "*".join(CATALOG.generators[i].name for i in letters)
    left = "(tau*eta_top + eps*tau*tau0)"
    for preset in PRESETS:
        for mode in ALL_MODES[::4]:
            conv = convention(preset.name, mode)
            for text in (run, f"{left}*{run}"):
                expr = parse_expression(text)
                assert eval_expr(expr, conv, CATALOG) == _pairwise_eval(expr, conv, CATALOG), (text[:30], conv)
    # repeated letters leave few signs standing after reduction, so the raw
    # terms of runs of several lengths are compared against a letter-by-letter
    # fold too, under a twist with four distinct entries as well
    mixed = Convention("mixed", BilinearCocycle(MINUS_ONE, EPS, MINUS_EPS, ONE))
    for conv in [*PRESETS, mixed]:
        x = eval_expr(left, conv, CATALOG)
        assert len(x.terms) == 2
        want = dict(x.terms)
        for k, i in enumerate(letters, 1):
            twist = conv.twist(CATALOG.monomial_degree(next(iter(want))), CATALOG._degrees[i])
            merged = [algebra._merge_words(m, (i,), CATALOG) + (c,) for m, c in want.items()]
            want = {m: c * (twist * pen).to_coef() for m, pen, c in merged}
            if k in (1, 2, 7, 30, 301, 600):
                got = algebra._times_word(x, letters[:k], conv, CATALOG)
                assert dict(got.terms) == want, (conv.name, k)
                assert got.degree == CATALOG.monomial_degree(next(iter(want)))
    flat = eval_expr("*".join(["eta_top"] * 3000), EPS_CONV, CATALOG)
    assert flat.render(CATALOG) == f"eta_top^{MAX_EXPONENT}*eta_top^{MAX_EXPONENT}*eta_top^{MAX_EXPONENT}"


def test_factors_after_a_zero_are_still_evaluated():
    for pres in (CATALOG, REWRITING, KILLED):
        with pytest.raises(MotsignError, match="unknown generator: 'nosuch'"):
            eval_expr("0*nosuch", REF, pres)
    with pytest.raises(MotsignError, match="unknown generator: 'nosuch'"):
        eval_expr("a*3*2*nosuch", REF, KILLED)  # a product that is zero at its end
    with pytest.raises(InhomogeneousError):
        eval_expr("0*(eta + nu)", REF, CATALOG)


def test_rule_path_matches_pairwise_fold():
    # rules that overlap (so bracketing changes the answer) and chained rules
    rng = random.Random(83)
    cases = []
    while len(cases) < 8:
        try:
            cases.append(_overlapping_presentation(rng))
        except MotsignError:  # a relation with no unit lead, or one that is zero
            continue
    cases += [_chained_presentation(rng, depth) for depth in (1, 2, 3)]
    outcomes = Counter()
    for pres in cases:
        names = [gen.name for gen in pres.generators]
        for mode in ALL_MODES[::3]:
            conv = convention(rng.choice(PRESETS).name, mode)
            for _ in range(5):
                text = _random_text(rng, names)
                want = _outcome(_pairwise_eval, parse_expression(text), conv, pres)
                assert _outcome(eval_expr, text, conv, pres) == want, (text, conv)
                outcomes["error" if isinstance(want, tuple) else "zero" if want == ZERO else "nonzero"] += 1
    assert outcomes["nonzero"] > 100 and outcomes["zero"] > 100 and outcomes["error"] > 2, outcomes


def test_a_parenthesised_product_stays_one_factor():
    # the rules overlap, so the normal form depends on the bracketing: a
    # left-nested product folds as the flat chain does, a right-nested one not
    pres = Presentation([Generator(n, Bidegree(1, 0)) for n in "abcd"], ["-a*a + eps*b*c", "a*d + b*c", "a*b + b*c"])
    for text, want in [("b*a*a", "b*c^2"), ("(b*a)*a", "b*c^2"), ("b*(a*a)", "eps*b^2*c")]:
        assert eval_expr(text, REF, pres).render(pres) == want, text


def test_one_node_per_product_and_per_sum():
    power = parse_expression(f"eta^{MAX_EXPONENT}")
    assert type(power) is algebra.MulExpr and len(power.factors) == MAX_EXPONENT
    assert all(factor is power.factors[0] for factor in power.factors)
    a, b = algebra.NameExpr("a"), algebra.NameExpr("b")
    assert parse_expression("a - b") == algebra.AddExpr((a, algebra.NegExpr(b)))
    assert parse_expression("a*(a*b)*b") == algebra.MulExpr((a, algebra.MulExpr((a, b)), b))
    assert parse_expression("-a^2") == algebra.NegExpr(algebra.MulExpr((a, a)))
    assert parse_expression("(a)") == parse_expression("a^1") == a
    # a run of names splices into the product; a unary minus binds its first name
    c = algebra.NameExpr("c")
    assert parse_expression("-a*b") == algebra.MulExpr((algebra.NegExpr(a), b))
    assert parse_expression("a * b\t*\nc^2") == algebra.MulExpr((a, b, algebra.MulExpr((c, c))))
    tree = parse_expression("a*b*(a*c)*a*2")
    assert tree.factors[0] is tree.factors[2].factors[0] is tree.factors[3]  # one node per distinct name


# ---------- a run of names read as one token ----------

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*()^])|(?P<bad>\S))", re.ASCII
)


def _reference_parse(text):
    """The parser before runs were read as one token: one token per name,
    one `factor()` call per factor, and a new node per name."""
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}", column=match.start(kind) + 1)
        tokens.append((kind, match[kind], match.start(kind) + 1))
    tokens.append(("end", "", len(text) + 1))
    pos = depth = 0

    def expr():
        nonlocal pos
        terms = [term()]
        while (op := tokens[pos][1]) in ("+", "-"):
            pos += 1
            terms.append(term() if op == "+" else algebra.NegExpr(term()))
        return algebra.AddExpr(tuple(terms)) if len(terms) > 1 else terms[0]

    def term():
        nonlocal pos
        factors = [factor()]
        while tokens[pos][1] == "*":
            pos += 1
            factors.append(factor())
        return algebra.MulExpr(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor():
        nonlocal pos, depth
        kind, value, col = tokens[pos]
        pos += 1
        if value in ("-", "("):
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING}", column=col)
            node = algebra.NegExpr(factor()) if value == "-" else expr()
            if value == "(":
                if tokens[pos][1] != ")":
                    raise ParseError("expected ')'", column=tokens[pos][2])
                pos += 1
            depth -= 1
            return node
        if kind == "int":
            node = algebra.IntExpr(algebra._int_literal(value, col))
        elif kind == "name":
            node = algebra.NameExpr(value)
        else:
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", column=col)
        if tokens[pos][1] != "^":
            return node
        kind, value, col = tokens[pos + 1]
        pos += 2
        n = algebra._int_literal(value, col) if kind == "int" else 0
        if not 1 <= n <= MAX_EXPONENT:
            raise ParseError(f"exponent must be an integer from 1 to {MAX_EXPONENT}", column=col)
        return algebra.MulExpr((node,) * n) if n > 1 else node

    node = expr()
    kind, value, col = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", column=col)
    return node


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.column


# names that share prefixes and glue into longer names, eps, operators,
# digits and ASCII whitespace
SOUP_NAMES = ["e", "et", "eta", "eta_top", "nu", "nu2", "eps", "_x"]
SOUP_STARS = ["*", " * ", "*\t", "\n*  "]
SOUP = SOUP_NAMES + SOUP_STARS + ["^", "2", "10", "0", "-", "(", ")", "+", " ", "  ", "\t", "\n"]


def _soup_text(rng):
    """Mostly a name and a star in turn, so that runs are common, with any
    soup token in between."""
    pools = (SOUP_NAMES, SOUP_STARS)
    return "".join(rng.choice(SOUP if rng.random() < 0.4 else pools[k % 2]) for k in range(rng.randint(0, 14)))


def _run_columns(text):
    return [m.start("run") + 1 for m in algebra._TOKEN_RE.finditer(text) if m.lastgroup == "run"]


def test_runs_parse_as_the_reference_parser_does():
    rng = random.Random(22)
    seen = Counter()
    for _ in range(30000):
        text = _soup_text(rng)
        want = _parsed(_reference_parse, text)
        assert _parsed(parse_expression, text) == want, text
        columns = _run_columns(text)
        seen["run"] += bool(columns)
        seen["tree"] += type(want) is not tuple
        seen["error at a run"] += type(want) is tuple and want[1] in columns
        seen["minus before a run"] += any(text[: col - 1].rstrip().endswith("-") for col in columns)
    assert seen["run"] > 10000 and seen["tree"] > 4000, seen
    assert seen["error at a run"] > 1000 and seen["minus before a run"] > 300, seen


# a name-like and a star-like token in turn, as in _soup_text, a name often after a minus
SOUP_PAIRS = st.tuples(
    st.sampled_from(["", "", "-"]), st.sampled_from(SOUP_NAMES + SOUP), st.sampled_from(SOUP_STARS + SOUP)
).map("".join)


@settings(deadline=None, max_examples=500)
@given(st.lists(SOUP_PAIRS, max_size=6).map("".join), st.sampled_from(SOUP_NAMES + SOUP))
def test_runs_parse_as_the_reference_parser_does_on_drawn_soup(text, last):
    text += last
    assert _parsed(parse_expression, text) == _parsed(_reference_parse, text)


def test_hostile_runs_parse_to_the_same_trees():
    # long runs ending in a power or padded with whitespace are read in one
    # pass each; a lookahead that backtracked badly would make them quadratic
    eta, a, b = algebra.NameExpr("eta"), algebra.NameExpr("a"), algebra.NameExpr("b")
    n = 10**5
    want = algebra.MulExpr((eta,) * (n - 1) + (algebra.MulExpr((eta, eta)),))
    assert parse_expression(" * ".join(["eta"] * n) + "^2") == want
    assert parse_expression("a*" + " " * n + "b^2") == algebra.MulExpr((a, algebra.MulExpr((b, b))))
    # trailing whitespace is one token too, not rescanned from each character
    assert parse_expression("a*b" + " \t\n" * n) == algebra.MulExpr((a, b))
    with pytest.raises(ParseError) as info:
        parse_expression("a*" + " " * n)
    assert str(info.value) == f"unexpected end of input (column {n + 3})"


def test_names_resolve_in_one_pass_with_errors_in_order():
    with pytest.raises(MotsignError, match=r"^unknown generator: 'theta'$"):
        eval_expr("eta*theta*omega", REF, CATALOG)
    with pytest.raises(MotsignError, match=r"^unknown generator: 'theta'$"):
        eval_expr("eta*theta*(nu*omega)", REF, CATALOG)
    with pytest.raises(MotsignError, match=r"^unknown generator: 'omega'$"):
        eval_expr("eta*(nu*omega)*theta", REF, CATALOG)
    # eps inside a run is the scalar, not a generator
    text = "eps*eta*eps*nu"
    expr = parse_expression(text)
    for preset in PRESETS:
        for mode in ALL_MODES:
            conv = convention(preset.name, mode)
            assert eval_expr(text, conv, CATALOG) == _pairwise_eval(expr, conv, CATALOG), (preset.name, mode)


# ---------- user-named presentations render and parse back ----------


def test_a_trailing_newline_is_not_part_of_a_name():
    # "eta\n" would render as 'eta\n^2', which no expression can name
    with pytest.raises(MotsignError, match="bad generator name"):
        Presentation([Generator("eta\n", Bidegree(1, 1))])
    with pytest.raises(MotsignError, match="bad generator name"):
        presentation_from_json({"generators": [{"name": "eta\n", "degree": [1, 1]}]})


USER_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(lambda name: name != "eps")
NON_UNIT_COEFS = ["2", "3", "4", "6", "(1-eps)", "(1+eps)", "(2-2*eps)", "(2+eps)"]


@st.composite
def _user_presentations(draw):
    """Presentations built from JSON documents: random names, degrees with
    negative entries, random annihilator relations, and rewrite rules in
    the rewrite workload's shape: the lead x_k*y_k rewrites to a unit or
    non-unit multiple of a word in the names after all leads, times the
    next lead when one follows.  Each lead has its own two generators,
    listed before every tail letter, so the lead is the greatest word."""
    rules = draw(st.integers(0, 2))
    names = draw(st.lists(USER_NAMES, min_size=2 * rules + 1, max_size=2 * rules + 4, unique=True))
    leads = names[: 2 * rules]
    degree = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    degrees = {name: draw(degree) for name in names}
    word = st.lists(st.sampled_from(names), min_size=1, max_size=3).map("*".join)
    relations, after = [], []
    for x, y in reversed(list(zip(leads[::2], leads[1::2]))):
        tail = after + draw(st.lists(st.sampled_from(names[len(leads):]), min_size=1, max_size=3))
        degrees[y] = [sum(degrees[name][i] for name in tail) - degrees[x][i] for i in (0, 1)]
        coef = draw(st.sampled_from(["1", "-1", "eps", "-eps", *NON_UNIT_COEFS]))
        relations.append(f"{x}*{y} - {coef}*{'*'.join(tail)}")
        after = [x, y]
    relations += draw(st.lists(st.tuples(st.sampled_from(NON_UNIT_COEFS), word).map("*".join), max_size=3))
    doc = {"generators": [{"name": name, "degree": degrees[name]} for name in names], "relations": relations}
    pres = presentation_from_json(doc)
    assert len(pres._rules) == rules and presentation_to_json(pres) == doc
    return pres


@settings(deadline=None, max_examples=60)
@given(_user_presentations(), st.data())
def test_user_named_elements_parse_back(pres, data):
    # permutations of one word share its degree, so the sum is homogeneous
    base = data.draw(st.lists(st.sampled_from([gen.name for gen in pres.generators]), min_size=1, max_size=5))
    # often with a rule's lead in it, so that the rules rewrite
    base += [pres.generators[i].name for i in data.draw(st.sampled_from([(), *(rule.lead for rule in pres._rules)]))]
    summands = []
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        summands.append(f"({a}+{b}*eps)*" + "*".join(data.draw(st.permutations(base))))
    text = " + ".join(summands)
    for preset in PRESETS:
        for mode in ROUNDTRIP_MODES:
            x = eval_expr(text, convention(preset.name, mode), pres)
            assert eval_expr(x.render(pres), convention("reference", mode), pres) == x, (text, preset.name, mode)


def _spoiled(name, char, at):
    at %= len(name) + 1
    return name[:at] + char + name[at:]


# whitespace, a newline and non-ASCII letters spoil a name anywhere in it
SPOILERS = [" ", "\t", "\n", "\r", "\u00a0", "é", "ß", "λ", "Ω"]
BAD_NAMES = st.one_of(st.just("eps"), st.builds(_spoiled, USER_NAMES, st.sampled_from(SPOILERS), st.integers(0, 8)))


@settings(deadline=None)
@given(BAD_NAMES, st.lists(USER_NAMES, max_size=2, unique=True), st.integers(0, 2))
def test_user_presentations_refuse_names_that_cannot_parse_back(bad, names, at):
    names.insert(at % (len(names) + 1), bad)
    doc = {"generators": [{"name": name, "degree": [1, 0]} for name in names]}
    with pytest.raises(MotsignError, match="bad generator name|is reserved"):
        presentation_from_json(doc)


# ---------- a run's twist from per-convention F2 columns ----------

ALL_COCYCLES = [BilinearCocycle(*entries) for entries in itertools.product(UNITS, repeat=4)]


def test_twist_columns_match_brute_force():
    # bit i of column g: the reference unit sorting g under i > g, and the
    # twist of every earlier letter i against g, whatever their order
    for pres in [CATALOG, *RULE_FREE]:
        degrees = pres._degrees
        for twist in ALL_COCYCLES:
            s_col, t_col = pres._twist_columns(twist)
            for g, d in enumerate(degrees):
                for i, e in enumerate(degrees):
                    unit = twist(e, d) * (base_commutation(e, d) if i > g else ONE)
                    assert (s_col[g] >> i & 1, t_col[g] >> i & 1) == (unit.s, unit.t), (twist, i, g)
        assert len(pres._twist_cache) == len(ALL_COCYCLES) == 256  # one entry per cocycle, bounded


def test_run_twist_matches_pairwise_fold_under_sampled_cocycles():
    rng = random.Random(79)
    presets = {preset.twist for preset in PRESETS}
    twists = [twist for twist in rng.sample(ALL_COCYCLES, 16) if twist not in presets]
    assert sum(twist.m12 != twist.m21 for twist in twists) >= 4
    outcomes = Counter()
    for pres in [CATALOG, *RULE_FREE]:
        names = [gen.name for gen in pres.generators]
        for mode in ALL_MODES:
            conv = Convention("sampled", rng.choice(twists), mode)
            texts = [_random_text(rng, names) for _ in range(4)]
            # a long run alone and after a left factor of nonzero degree
            run = "*".join(rng.choice(names) for _ in range(rng.randint(20, 60)))
            left = "*".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
            texts += [run, f"-({left})*{run}", f"(eps*{left} + 2*{left})*{run}"]
            for text in texts:
                want = _outcome(_pairwise_eval, parse_expression(text), conv, pres)
                assert _outcome(eval_expr, text, conv, pres) == want, (text, conv)
                outcomes["error" if isinstance(want, tuple) else "zero" if want == ZERO else "nonzero"] += 1
    assert outcomes["nonzero"] > 300 and outcomes["zero"] > 300 and outcomes["error"] > 10


# ---------- tables from four parity classes ----------


def _tables_reference(pres):
    """Oracle: (_s_above, _t_above, _self_ann) as built before parity
    classes, one base_commutation call per pair of generators i >= j."""
    degrees, n = pres._degrees, len(pres._degrees)
    s_above, t_above, self_ann = [0] * n, [0] * n, []
    for j in range(n):
        for i in range(j, n):
            unit = base_commutation(degrees[i], degrees[j])
            if i == j:
                self_ann.append(Coef(1) - unit.to_coef())
            else:
                s_above[j] |= unit.s << i
                t_above[j] |= unit.t << i
    return tuple(s_above), tuple(t_above), tuple(self_ann)


def _twist_columns_reference(tables, degrees, twist):
    """Oracle: a run's twist columns as built before parity classes, the
    reference tables XOR one cocycle call per pair of generators."""
    s_col, t_col = list(tables[0]), list(tables[1])
    for g, d in enumerate(degrees):
        for i, e in enumerate(degrees):
            unit = twist(e, d)
            s_col[g] ^= unit.s << i
            t_col[g] ^= unit.t << i
    return tuple(s_col), tuple(t_col)


def _random_degree_presentation(rng, n):
    return Presentation([Generator(f"g{i}", Bidegree(rng.randint(-9, 9), rng.randint(-9, 9))) for i in range(n)])


def test_class_tables_match_the_pairwise_construction():
    rng = random.Random(83)
    cases = [CATALOG, *RULE_FREE, *_kernel_presentations()]
    cases += [_random_degree_presentation(rng, n) for n in (1, 2, 5, 9, 16, 25)]
    assert any(d.p < 0 and d.q < 0 for pres in cases for d in pres._degrees)
    for pres in cases:
        tables = _tables_reference(pres)
        assert (pres._s_above, pres._t_above, pres._self_ann) == tables
        for twist in ALL_COCYCLES:
            assert pres._twist_columns(twist) == _twist_columns_reference(tables, pres._degrees, twist), twist
        if not pres._rules:  # packed fields are for lead generators only
            assert pres._guard == 0 and not any(pres._fields)


class _CountingTwist:
    def __init__(self, twist):
        self.twist, self.calls = twist, 0

    def __call__(self, a, b):
        self.calls += 1
        return self.twist(a, b)


def test_tables_make_a_bounded_number_of_unit_calls(monkeypatch):
    # 16 calls, one per pair of parity classes, and one per generator for its
    # self-annihilator; a twist's columns take 16 calls, once per cocycle
    calls = Counter()
    monkeypatch.setattr(algebra, "base_commutation", lambda a, b: calls.update(["B"]) or base_commutation(a, b))
    rng = random.Random(89)
    for n in (20, 200):
        calls.clear()
        pres = _random_degree_presentation(rng, n)
        assert 0 < calls["B"] <= 16 + n
        twist = _CountingTwist(rng.choice(ALL_COCYCLES))
        cols = pres._twist_columns(twist)
        assert pres._twist_columns(twist) is cols and 0 < twist.calls <= 16
        assert cols == _twist_columns_reference(_tables_reference(pres), pres._degrees, twist.twist)


def test_relation_ranking_key_orders_words_as_exponent_vectors():
    # on sorted words, the negated letters order as the exponent vectors
    # [word.count(i) for i in range(n)], the key the ranking had before
    rng = random.Random(97)
    for _ in range(20_000):
        n = rng.randint(1, 6)
        a, b = (tuple(sorted(rng.randrange(n) for _ in range(rng.randint(0, 6)))) for _ in range(2))
        old = [a.count(i) for i in range(n)], [b.count(i) for i in range(n)]
        new = tuple(-i for i in a), tuple(-i for i in b)
        assert (old[0] < old[1], old[0] == old[1]) == (new[0] < new[1], new[0] == new[1]), (a, b)
    # and a rule's lead and tail are ranked so
    gens = [Generator(name, Bidegree(2, 0)) for name in "abcde"]
    for _ in range(200):
        length = rng.randint(1, 4)
        words = list({tuple(sorted(rng.randrange(5) for _ in range(length))) for _ in range(rng.randint(1, 6))})
        rng.shuffle(words)
        pres = Presentation(gens, [Element(tuple((w, Coef(1)) for w in words), Bidegree(2 * length, 0))])
        ranked = sorted(words, key=lambda w: [w.count(i) for i in range(5)])
        (rule,) = pres._rules
        assert (rule.lead, [m for m, _ in rule.tail]) == (ranked[-1], ranked[:-1])


def test_generator_bound(monkeypatch):
    gens = [Generator(f"g{i}", Bidegree(i % 7 - 3, i % 5 - 2)) for i in range(MAX_GENERATORS + 1)]
    start = time.perf_counter()
    pres = Presentation(gens[:-1])
    assert eval_expr("g0*g1", EPS_CONV, pres).render(pres) == "g0*g1"
    assert time.perf_counter() - start < 30  # about 0.1 s on one 2-vCPU core
    calls = Counter()
    monkeypatch.setattr(algebra, "base_commutation", lambda a, b: calls.update(["B"]) or base_commutation(a, b))
    with pytest.raises(MotsignError, match=f"at most {MAX_GENERATORS} generators, got {MAX_GENERATORS + 1}$"):
        Presentation(gens)
    assert not calls  # refused before any table is built


# ---------- one rewrite per chain on coprime leads ----------


def _eager(pres):
    """The same presentation on the eager path: every factor and partial
    product assembled as it forms (the caches are shared, and stay valid)."""
    twin = copy.copy(pres)
    twin._fold_raw = False
    return twin


def _flat_run(n):
    gens = [Generator("x", Bidegree(2, 0)), Generator("y", Bidegree(2, 2))]
    pres = Presentation(gens + [Generator(name, Bidegree(2, 1)) for name in "fg"], ["x*y - f*f - eps*f*g"])
    return pres, "*".join(["x"] * n + ["y"] * n)


def test_deferred_chain_keeps_the_eager_pass_budget(monkeypatch):
    # the whole run is rewritten at its end, in more passes than one
    # assembly allows: the chain has those of one assembly per factor
    pres, text = _flat_run(150)
    assert pres._fold_raw
    deferred = eval_expr(text, REF, pres)
    assert len(deferred.terms) == 151
    assert eval_expr(text, REF, _eager(pres)) == deferred
    monkeypatch.setattr(algebra, "MAX_REWRITE_PASSES", 0)
    for path in (pres, _eager(pres)):
        with pytest.raises(RewriteLimitError):
            eval_expr("x*x*y", REF, path)


def _coprime_leads(pres):
    """The criterion read off the rules, independently of `_fold_raw`."""
    seen = set()
    for rule in pres._rules:
        if seen & set(rule.lead):
            return False
        seen |= set(rule.lead)
    return not any(seen & set(word) for word, _ in pres._ann_entries) and all(
        pres._degrees[i].p % 2 == pres._degrees[i].q % 2 == 0 for i in seen
    )


def _coprime_candidate(rng):
    """A chain in the rewrite workload's shape (leads x_k*y_k, first in
    generator order; tails in e, f, g of degree d and h of degree 2d) that
    may break each condition: a second lead x0*z on x0, a lead generator of
    odd degree, or an annihilator word through a lead generator."""
    d = Bidegree(rng.randint(-2, 3), rng.randint(-2, 2))
    degrees, relations, need = {}, [], d + d
    tails, units = ["e*e", "e*f", "e*g", "f*f", "f*g", "g*g", "h"], ["", "-", "eps*", "-eps*"]

    def tail(k):
        prefix = f"x{k + 1}*y{k + 1}*" if f"x{k + 1}" in degrees else ""
        return " + ".join(rng.choice(units) + prefix + word for word in rng.sample(tails, rng.randint(1, 2)))

    for k in reversed(range(rng.randint(1, 3))):
        dx = Bidegree(rng.randint(-2, 3), rng.randint(-2, 2))
        dx = dx if rng.random() < 0.3 else dx + dx
        degrees[f"x{k}"], degrees[f"y{k}"] = dx, Bidegree(need.p - dx.p, need.q - dx.q)
        relations.append(f"x{k}*y{k} + {tail(k)}")
        need = need + d + d
    if rng.random() < 0.4:
        degrees["z"] = degrees["y0"]
        relations.append(f"x0*z + {tail(0)}")
    for _ in range(rng.randint(0, 2)):
        letters = rng.sample("efgh", rng.randint(1, 2)) + (["x0"] if rng.random() < 0.3 else [])
        relations.append(rng.choice(["2", "3", "4", "(1-eps)", "(1+eps)"]) + "*" + "*".join(letters))
    degrees.update({"e": d, "f": d, "g": d, "h": d + d})
    return Presentation([Generator(name, degree) for name, degree in degrees.items()], relations)


def _confluent_presentations():
    rng = random.Random(97)
    out = [_in_workload_order(_chained_presentation(rng, depth)) for depth in (1, 2, 3)] + [_flat_run(0)[0]]
    while len(out) < 24:
        pres = _coprime_candidate(rng)
        if pres._fold_raw:
            out.append(pres)
    return out


CONFLUENT = _confluent_presentations()


def _bracketings(names):
    """Every full bracketing of the word as a product of two factors."""
    if len(names) == 1:
        return [names[0]]
    out = []
    for k in range(1, len(names)):
        for left in _bracketings(names[:k]):
            for right in _bracketings(names[k:]):
                out.append(f"{f'({left})' if k > 1 else left}*{f'({right})' if len(names) - k > 1 else right}")
    return out


def _word_over(rng, pres):
    """A word of 2-5 letters, shuffled: half the time it holds the least
    common multiple of a rule's lead and another lead, an annihilator word
    or a lead letter's square, where the criterion's three cases meet, and
    a scalar that an annihilator can change."""
    names, scalars, word = [gen.name for gen in pres.generators], ["eps", "3"], []
    if pres._rules and rng.random() < 0.5:
        lead = rng.choice(pres._rules).lead
        meets = [rule.lead for rule in pres._rules] + [word for word, _ in pres._ann_entries] + [(i, i) for i in lead]
        word = [names[i] for i in (Counter(lead) | Counter(rng.choice(meets))).elements()]
        word += [rng.choice(scalars)] * (len(word) < 5)
    while len(word) < rng.randint(2, 5):
        word.append(rng.choice(names + scalars))
    rng.shuffle(word)
    return word


def _check_against_eager(word, conv, pres):
    """Evaluate the flat chain and every bracketing of the word on both
    paths: each text gives one element on both.  With eps generic all texts
    give one element.  A specialized eps leaves a generic annihilator such
    as the 1 - eps of a repeated tail letter unapplied, so the rules are
    not confluent there: such a product stays on the eager path, where the
    bracketing may show.  Returns the flat answer."""
    eager, texts = _eager(pres), ["*".join(word), *_bracketings(word)]
    answers = {text: eval_expr(text, conv, pres) for text in texts}
    for text in texts:
        assert eval_expr(text, conv, eager) == answers[text], (pres.relation_strings, text, conv)
    if conv.mode.eps == "generic":
        assert len(set(answers.values())) == 1, (pres.relation_strings, word, conv)
    return answers[texts[0]]


def test_deferred_chain_matches_the_eager_path_on_coprime_leads():
    rng = random.Random(101)
    outcomes = Counter()
    for pres in CONFLUENT:
        assert pres._fold_raw and _coprime_leads(pres)
        # every mode, and more words with eps generic, where rules defer
        convs = [convention(PRESETS[k % len(PRESETS)].name, mode) for k, mode in enumerate(ALL_MODES)]
        for conv in convs + PRESETS * 5:
            answer = _check_against_eager(_word_over(rng, pres), conv, pres)
            outcomes["zero" if answer == ZERO else "nonzero"] += 1
    assert outcomes["nonzero"] > 300 and outcomes["zero"] > 40, outcomes


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(CONFLUENT), st.sampled_from(PRESETS), st.sampled_from(ALL_MODES), st.randoms(use_true_random=False))
def test_deferred_chain_matches_the_eager_path_on_drawn_words(pres, preset, mode, rng):
    _check_against_eager(_word_over(rng, pres), convention(preset.name, mode), pres)


def test_coprime_criterion_rejects_overlapping_leads():
    # the bracketing-dependent presentation of test_a_parenthesised_product_stays_one_factor
    found = Presentation([Generator(n, Bidegree(1, 0)) for n in "abcd"], ["-a*a + eps*b*c", "a*d + b*c", "a*b + b*c"])
    assert not found._fold_raw
    for text, want in [("b*a*a", "b*c^2"), ("b*(a*a)", "eps*b^2*c")]:
        assert eval_expr(text, REF, found).render(found) == want, text
    # the random presentations of the rescan and pairwise tests: now and
    # then their leads come out coprime (one rule, say), and those pass
    outcomes = Counter()
    for seed in (31, 83, 89):
        rng = random.Random(seed)
        for _ in range(200):
            try:
                pres = _overlapping_presentation(rng)
            except MotsignError:
                continue
            assert pres._fold_raw == _coprime_leads(pres), pres.relation_strings
            leads = [set(rule.lead) for rule in pres._rules]
            shared = any(a & b for a, b in itertools.combinations(leads, 2))
            outcomes["shared" if shared else "coprime" if pres._fold_raw else "other"] += 1
            assert not (shared and pres._fold_raw)
    assert outcomes["shared"] > 200, outcomes
    # the chained presentation sorts e, f, g first, so they lead: rejected
    rng = random.Random(103)
    assert not any(_chained_presentation(rng, depth)._fold_raw for depth in (1, 2, 3))


def test_a_specialized_eps_keeps_the_eager_path():
    # f and g commute with themselves by -eps, which is -1 once eps = +1,
    # but their generic annihilator 1 + eps leaves 2*f^2 standing there: the
    # rules stop being confluent, and rewriting the chain once at its end
    # would drop the eager path's -2*e*f^4*g and flip the sign of its -e*f^3*g^2
    degrees = {"x1": (-2, -2), "x2": (-2, 0), "y1": (2, -2), "y2": (2, -2), "e": (0, -1), "f": (0, -1), "g": (0, -1)}
    pres = Presentation(
        [Generator(name, Bidegree(*d)) for name, d in degrees.items()],
        ["x2*y2 - f*f - eps*f*g", "x1*y1 - x2*y2*e*e - eps*x2*y2*e*f"],
    )
    assert pres._fold_raw
    eager = "e^2*f^4 + 2*e^2*f^3*g + -e^2*f^2*g^2 + e*f^5 + -2*e*f^4*g + -e*f^3*g^2"
    conv = convention("reference", CoefMode("+1"))
    word = [pres.index(name) for name in ("x1", "y1", "x2", "y2")]
    raw = algebra._times_word(None, word, conv, pres)
    once = "e^2*f^4 + 2*e^2*f^3*g + -e^2*f^2*g^2 + e*f^5 + e*f^3*g^2"
    assert algebra._assemble(dict(raw.terms), raw.degree, conv, pres).render(pres) == once
    for path in (pres, _eager(pres)):
        assert eval_expr("x1*y1*x2*y2", conv, path).render(pres) == eager
    assert eval_expr("x1*y1*x2*y2", REF, pres) == eval_expr("x1*y1*x2*y2", REF, _eager(pres))

"""eval: expressions over the catalog presentation with tau (9 generators).

Pure words of 4-64 factors, each evaluated under all four presets in one
coefficient mode (the modes generic, +1, -1 and modulus 4 rotate by
round); homogeneous sums of 2-4 different monomials of one bidegree with
Z[eps] coefficients; and transport_check between preset pairs.  Parsing,
word merging and annihilator reduction in algebra do the work; the
catalog's relations are all annihilators, so the rewrite loop is idle.

Word lengths are drawn one per log-spaced stratum of [4, 64] each round,
so every seed gets the same spread of lengths.

Check: for a word w of generators with degrees d_1..d_n under preset C,
eval_expr(w, C) == scalar_mul(u, eval_expr(w, reference)) with
u = prod_{i<j} twist_C(d_i, d_j) computed here on unit bits.  Sums must
equal the same combination of their summands; a transport report must
match both evaluations, and a DISAGREE must carry a unit acting on the
result as u_to / u_from does.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations_with_replacement

from wl_decide import PRESETS, UNIT_BITS, form, mul

NAME = "eval"
# Peak memory is read after this many rounds, a fixed amount of work.
RSS_ROUNDS = 200

PRESET_NAMES = tuple(PRESETS)
MODES = (("generic", 0), ("+1", 0), ("-1", 0), ("generic", 4))
STRATA = (4, 7, 12, 21, 37, 65)  # word length strata [4,7), [7,12), ... [37,65)
PAIRS = [(a, b) for i, a in enumerate(PRESET_NAMES) for b in PRESET_NAMES[i + 1:]]


def preset_matrix(name):
    u = PRESETS[name]
    return ((0, 0), (0, 0), u, u)


def word_unit(matrix, degrees) -> tuple[int, int]:
    """prod_{i<j} twist(d_i, d_j) as unit bits."""
    u = (0, 0)
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            u = mul(u, form(matrix, degrees[i], degrees[j]))
    return u


# ---------- inputs ----------


def inputs(seed: int):
    return {"seed": seed}


def _coef_text(rng) -> tuple[tuple[int, int], str]:
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0):
            break
    if b == 0:
        return (a, b), f"({a})"
    eps = "eps" if abs(b) == 1 else f"{abs(b)}*eps"
    if a == 0:
        return (a, b), f"({'-' if b < 0 else ''}{eps})"
    return (a, b), f"({a}{'-' if b < 0 else '+'}{eps})"


def rounds(data, ctx):
    rng = random.Random(data["seed"])
    names, degrees = ctx["names"], ctx["degrees"]
    by_degree = defaultdict(list)
    for size in range(1, 5):
        for mono in combinations_with_replacement(range(len(names)), size):
            d = (sum(degrees[i][0] for i in mono), sum(degrees[i][1] for i in mono))
            by_degree[d].append(mono)
    classes = [monos for monos in by_degree.values() if len(monos) >= 2]
    index = 0
    while True:
        mode = index % len(MODES)
        ops = []
        for lo, hi in zip(STRATA, STRATA[1:]):
            word = tuple(rng.randrange(len(names)) for _ in range(rng.randrange(lo, hi)))
            for preset in PRESET_NAMES:
                ops.append(("word", word, preset, mode))
        for _ in range(2):
            monos = rng.choice(classes)
            summands = []
            for mono in rng.sample(monos, rng.randint(2, min(4, len(monos)))):
                word = list(mono)
                rng.shuffle(word)
                coef, text = _coef_text(rng)
                summands.append((coef, tuple(word), text))
            ops.append(("sum", tuple(summands), rng.choice(PRESET_NAMES), mode))
        for k in range(2):
            word = tuple(rng.randrange(len(names)) for _ in range(rng.randint(8, 24)))
            ops.append(("transport", word, PAIRS[(2 * index + k) % len(PAIRS)], mode))
        rng.shuffle(ops)
        index += 1
        yield ops


# ---------- set-up and ops ----------


def build(ms, data):
    pres = ms.catalog.universal_presentation(include_tau=True)
    convs = {}
    for m, (eps, modulus) in enumerate(MODES):
        mode = ms.units.CoefMode(eps, modulus)
        for name in PRESET_NAMES:
            convs[name, m] = ms.conventions.convention(name, mode)
    names = [g.name for g in pres.generators]
    degrees = [(g.degree.p, g.degree.q) for g in pres.generators]
    return {"ms": ms, "pres": pres, "convs": convs, "names": names, "degrees": degrees}


def word_text(ctx, word) -> str:
    return "*".join(ctx["names"][i] for i in word)


def expr_text(ctx, op) -> str:
    if op[0] == "sum":
        parts = [f"{text}*{word_text(ctx, word)}" for _, word, text in op[1]]
        return " + ".join(parts)
    return word_text(ctx, op[1])


def run(ctx, op, tracer=None):
    ms = ctx["ms"]
    kind, _, conv, mode = op
    if kind == "transport":
        a, b = conv
        return ms.algebra.transport_check(expr_text(ctx, op), ctx["convs"][a, mode], ctx["convs"][b, mode], ctx["pres"])
    return ms.algebra.eval_expr(expr_text(ctx, op), ctx["convs"][conv, mode], ctx["pres"])


# ---------- checks ----------


def _unit_coef(ms, bits):
    sign = -1 if bits[0] else 1
    return ms.units.Coef(0, sign) if bits[1] else ms.units.Coef(sign, 0)


def check(ctx, records, data) -> list:
    ms = ctx["ms"]
    pres = ctx["pres"]
    alg = ms.algebra
    refs = {}
    for op, answer, error, _ in records:
        if op[0] == "word" and op[2] == "reference" and error is None:
            refs[op[1], op[3]] = answer

    def reference(word, mode):
        if (word, mode) not in refs:
            refs[word, mode] = alg.eval_expr(word_text(ctx, word), ctx["convs"]["reference", mode], pres)
        return refs[word, mode]

    def twisted(word, preset, mode, coef=(1, 0)):
        degrees = [ctx["degrees"][i] for i in word]
        u = _unit_coef(ms, word_unit(preset_matrix(preset), degrees))
        scalar = ms.units.Coef(*coef) * u
        return alg.scalar_mul(scalar, reference(word, mode), ctx["convs"][preset, mode], pres)

    out = []
    for op, answer, error, _ in records:
        if error is not None:
            out.append(error)
            continue
        kind, _, conv, mode = op
        if kind == "word":
            want = twisted(op[1], conv, mode)
            out.append(None if answer == want else "word differs from twisted reference")
        elif kind == "sum":
            want = alg.ZERO
            c = ctx["convs"][conv, mode]
            for coef, word, _ in op[1]:
                want = alg.add_elements(want, twisted(word, conv, mode, coef), c, pres)
            out.append(None if answer == want else "sum differs from its twisted summands")
        else:
            a, b = conv
            want_from = twisted(op[1], a, mode)
            want_to = twisted(op[1], b, mode)
            if answer.result_from != want_from or answer.result_to != want_to:
                out.append("transport results differ from twisted reference")
            elif answer.agree != (want_from == want_to):
                out.append("transport agreement flag wrong")
            elif not answer.agree:
                degrees = [ctx["degrees"][i] for i in op[1]]
                u = mul(word_unit(preset_matrix(a), degrees), word_unit(preset_matrix(b), degrees))
                conv_b = ctx["convs"][b, mode]
                d = answer.discrepancy
                if d is None:
                    out.append("DISAGREE without a discrepancy unit")
                else:
                    by_d = alg.scalar_mul(_unit_coef(ms, UNIT_BITS[str(d)]), want_from, conv_b, pres)
                    by_u = alg.scalar_mul(_unit_coef(ms, u), want_from, conv_b, pres)
                    out.append(None if by_d == by_u == want_to else "discrepancy is not u_to/u_from")
            else:
                out.append(None)
    return out


def corrupt(ctx, op, answer):
    ms = ctx["ms"]
    alg = ms.algebra
    if op[0] == "transport":
        return alg.TransportReport(
            answer.expression,
            answer.convention_from,
            answer.convention_to,
            answer.result_from,
            answer.result_to,
            not answer.agree,
            answer.discrepancy,
        )
    if answer.is_zero:
        return alg.eval_expr(ctx["names"][0], ctx["convs"]["reference", 0], ctx["pres"])
    (monomial, coef), *rest = answer.terms
    return alg.Element(((monomial, coef + ms.units.Coef(1, 0)), *rest), answer.degree)


def trace_metrics(ctx) -> dict:
    return {"presentations": [ctx["pres"]]}

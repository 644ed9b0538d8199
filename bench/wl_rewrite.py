"""rewrite: words and powers over seeded presentations whose relations
have unit leading coefficients, so the rewrite loop does the work.

Each seed builds four presentations during set-up, one per class of the
self-commutation unit of the normal-form generators' degree D (1, -1,
eps, -eps), with chain depths 2, 3, 2, 3.  A presentation has lead
generators x_k, y_k of even-even degree (so they are central and never
self-annihilate) and normal-form generators e, f, g of degree D:

    x_k*y_k - x_{k+1}*y_{k+1}*t1 - eps*x_{k+1}*y_{k+1}*t2    (k < depth-1)
    x_k*y_k - t1 - eps*t2                                    (k = depth-1)

with t1 != t2 degree-2 monomials in e, f, g, plus one annihilator on
e*f*g.  Each tail triggers the next rule, and the tails have the lead's
bidegree and a lower exponent vector.  Leading monomials use pairwise
disjoint generators, so rewriting is confluent.  The seed picks the
degrees within each class, the word orders, bracketings and conventions;
the tails, annihilators and the multiset of each word are fixed per slot
and round, so every seed does the same amount of rewriting.

Each word is evaluated left-bracketed and as A*(B*C); the two answers
must be equal, no term may be divisible by a leading monomial, and every
term has the word's bidegree.
"""

from __future__ import annotations

import random

from wl_decide import PRESETS

NAME = "rewrite"
# Peak memory is read after this many rounds, a fixed amount of work.
RSS_ROUNDS = 10

PRESET_NAMES = tuple(PRESETS)
SLOTS = (((0, 0), 2), ((1, 0), 3), ((0, 1), 2), ((1, 1), 3))  # (class of D, depth)
NORMALS = ("e", "f", "g")
TAIL_PAIRS = [(a, b) for i, a in enumerate(NORMALS) for b in NORMALS[i:]]
POWERS = {2: (4, 6, 8, 10), 3: (3, 4, 5, 6)}


def _even(rng):
    return (2 * rng.randint(-2, 3), 2 * rng.randint(-2, 2))


ANNIHILATORS = ("(1-eps)*e*f*g", "2*e*f*g", "(1+eps)*e*f*g", "(1-eps)*e*f*g")


def _spec(rng, slot):
    cls, depth = SLOTS[slot]
    while True:
        d = (rng.randint(-3, 5), rng.randint(-3, 3))
        if d != (0, 0) and ((d[0] - d[1]) % 2, d[1] % 2) == cls:
            break
    degrees = {n: d for n in NORMALS}
    relations = []
    need = (2 * d[0], 2 * d[1])
    for k in reversed(range(depth)):
        x, y = f"x{k}", f"y{k}"
        dx = _even(rng)
        degrees[x], degrees[y] = dx, (need[0] - dx[0], need[1] - dx[1])
        t1 = "*".join(TAIL_PAIRS[(slot + k) % len(TAIL_PAIRS)])
        t2 = "*".join(TAIL_PAIRS[(slot + k + 2) % len(TAIL_PAIRS)])
        if k < depth - 1:
            t1, t2 = f"x{k + 1}*y{k + 1}*{t1}", f"x{k + 1}*y{k + 1}*{t2}"
        relations.append(f"{x}*{y} - {t1} - eps*{t2}")
        need = (need[0] + 2 * d[0], need[1] + 2 * d[1])
    relations.append(ANNIHILATORS[slot])
    names = [n for k in range(depth) for n in (f"x{k}", f"y{k}")] + list(NORMALS)
    return {"names": names, "degrees": [degrees[n] for n in names], "relations": relations, "depth": depth}


def inputs(seed: int):
    rng = random.Random(seed)
    return {"seed": seed, "specs": [_spec(rng, slot) for slot in range(len(SLOTS))]}


def rounds(data, ctx):
    rng = random.Random(data["seed"] + 1)
    specs = data["specs"]
    index = 0
    while True:
        ops = []
        for p, spec in enumerate(specs):
            ks = POWERS[spec["depth"]]
            k = ks[(index + p) % len(ks)]
            power = ["x0"] * k + ["y0"] * k + [NORMALS[(index + p) % len(NORMALS)]]
            mixed = ["x0", "y0"] * 2 + [f"{v}{j}" for j in range(1, spec["depth"]) for v in "xy"]
            mixed += ["e", "f", "g", NORMALS[index % len(NORMALS)], "x0"]
            rng.shuffle(mixed)
            preset = PRESET_NAMES[(index + p) % len(PRESET_NAMES)]
            for word in (power, mixed):
                i = rng.randint(1, len(word) - 2)
                j = rng.randint(i + 1, len(word) - 1)
                for bracket in ("left", "right"):
                    ops.append(("word", p, tuple(word), (i, j), bracket, preset))
        index += 1
        yield ops


def build(ms, data):
    alg = ms.algebra
    press = []
    for spec in data["specs"]:
        gens = [alg.Generator(n, ms.units.Bidegree(*d)) for n, d in zip(spec["names"], spec["degrees"])]
        press.append(alg.Presentation(gens, spec["relations"]))
    convs = {name: ms.conventions.convention(name) for name in PRESET_NAMES}
    return {"ms": ms, "press": press, "convs": convs}


def expr_text(op) -> str:
    _, _, word, (i, j), bracket, _ = op
    a, b, c = "*".join(word[:i]), "*".join(word[i:j]), "*".join(word[j:])
    return f"{a}*{b}*{c}" if bracket == "left" else f"{a}*({b}*{c})"


def run(ctx, op, tracer=None):
    return ctx["ms"].algebra.eval_expr(expr_text(op), ctx["convs"][op[5]], ctx["press"][op[1]])


def _check_terms(data, op, answer) -> str | None:
    spec = data["specs"][op[1]]
    index = {n: i for i, n in enumerate(spec["names"])}
    degree = [0, 0]
    for name in op[2]:
        d = spec["degrees"][index[name]]
        degree[0] += d[0]
        degree[1] += d[1]
    leads = [(index[f"x{k}"], index[f"y{k}"]) for k in range(spec["depth"])]
    for monomial, _ in answer.terms:
        for x, y in leads:
            if x in monomial and y in monomial:
                return "a term is divisible by a leading monomial"
        got = [0, 0]
        for i in monomial:
            got[0] += spec["degrees"][i][0]
            got[1] += spec["degrees"][i][1]
        if got != degree:
            return f"term of bidegree {got}, expected {degree}"
    return None


def check(ctx, records, data) -> list:
    out = []
    first = {}
    for n, (op, answer, error, _) in enumerate(records):
        if error is None:
            error = _check_terms(data, op, answer)
        key = op[:4] + op[5:]
        if key not in first:
            first[key] = n
        elif records[first.pop(key)][1] != answer and error is None:
            error = "left- and right-bracketed products differ"
        out.append(error)
    return out


def corrupt(ctx, op, answer):
    alg = ctx["ms"].algebra
    units = ctx["ms"].units
    if answer.is_zero:
        raise ValueError("cannot corrupt a zero answer")
    (monomial, coef), *rest = answer.terms
    return alg.Element(((monomial, coef + units.Coef(1, 0)), *rest), answer.degree)


def trace_metrics(ctx) -> dict:
    return {"presentations": ctx["press"]}

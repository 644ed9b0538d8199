"""decide: a stream of exact decision queries.

Realization decisions (is_ring_hom, target_sign_compat) over the three
builtin models, with conventions drawn from the four presets and the 256
bilinear twists, at grid radius 2-6 weighted toward the CLI default of 4;
cocycle-identity checks on bilinear cocycles and on plain callables;
coboundary-class counts and twist ratios.

Passing decisions scan the whole grid while failing ones exit early.
Each round holds one passing decision per (predicate, model), with radii
rotated so that every six rounds give each pair every radius once, three
failing ones, and one more passing target_sign_compat decision at radius
6, the costliest op.  That last one keeps at least 1.5 such ops per round,
so the tail (the 11th largest latency) falls inside their group for any
run of eight rounds or more, rather than at its edge, where it would jump
with the round count.  Nine callable coboundary checks, whose cost does not
depend on the seed, sit in the middle of the latency distribution, so the
median op is one of them.  The mix, and so the cost of a round, is the
same for every seed; the seed picks the twists, cochains and order.

Answers are checked by an oracle of the benchmark's own on the 16
parity-class pairs: units are bit pairs (s, t) for (-1)^s eps^t, and a
bilinear form is its 2x2 matrix of such pairs.
"""

from __future__ import annotations

import random
from itertools import product

NAME = "decide"
# Peak memory is read after this many rounds, a fixed amount of work.
RSS_ROUNDS = 10

UNIT_NAMES = {(0, 0): "1", (1, 0): "-1", (0, 1): "eps", (1, 1): "-eps"}
UNIT_BITS = {name: bits for bits, name in UNIT_NAMES.items()}
PRESETS = {"reference": (0, 0), "minus-one": (1, 0), "epsilon": (0, 1), "minus-epsilon": (1, 1)}
MODELS = ("betti", "c2-underlying", "geometric-fixed")
PREDICATES = ("is_ring_hom", "target_sign_compat")
RADII = (2, 3, 4, 4, 5, 6)
SUBGROUPS = {"trivial": 1, "minus-one": 2, "eps": 2, "minus-eps": 2, "full": 4}
# Twist keys 0..255 are bilinear twists by their unit bits; 256.. are presets.
TWISTS = [tuple(m) for m in product(sorted(UNIT_NAMES), repeat=4)]
PRESET_KEYS = {256 + i: name for i, name in enumerate(PRESETS)}


# ---------- the oracle ----------


def mul(x, y):
    return (x[0] ^ y[0], x[1] ^ y[1])


def form(matrix, a, b):
    """Value of the bilinear form with unit matrix (m11, m12, m21, m22) at
    a pair of bidegrees (only parities matter)."""
    s = t = 0
    for (ms, mt), (i, j) in zip(matrix, ((0, 0), (0, 1), (1, 0), (1, 1))):
        e = (a[i] * b[j]) & 1
        s ^= ms & e
        t ^= mt & e
    return (s, t)


def twist_matrix(key: int):
    if key in PRESET_KEYS:
        u = PRESETS[PRESET_KEYS[key]]
        return ((0, 0), (0, 0), u, u)
    return TWISTS[key]


def realized(bits, sigma_eps: int) -> int:
    """0 when the unit realizes to +1, 1 when to -1."""
    return bits[0] ^ (bits[1] if sigma_eps == -1 else 0)


def holds(pred: str, model: dict, matrix, a, b) -> bool:
    if pred == "is_ring_hom":
        return realized(mul(form(model["defect"], a, b), form(matrix, a, b)), model["sigma_eps"]) == 0
    base = (((a[0] - a[1]) * (b[0] - b[1])) & 1, (a[1] * b[1]) & 1)
    w = mul(mul(base, form(matrix, a, b)), form(matrix, b, a))

    def collapse(d):
        return d[0] - d[1] if model["collapse"] == "fixed" else d[0]

    return realized(w, model["sigma_eps"]) == (collapse(a) * collapse(b)) & 1


CLASSES = [(a, b) for a in product((0, 1), repeat=2) for b in product((0, 1), repeat=2)]


def expected_decision(pred: str, model: dict, matrix) -> bool:
    return all(holds(pred, model, matrix, a, b) for a, b in CLASSES)


# Models as documented, used only to generate passing and failing inputs;
# the check reads the model objects motsign builds.
DOC_MODELS = {
    "betti": {"collapse": "total", "sigma_eps": -1, "defect": ((0, 0), (0, 0), (1, 0), (1, 0))},
    "c2-underlying": {"collapse": "total", "sigma_eps": -1, "defect": ((0, 0), (0, 0), (1, 0), (1, 0))},
    "geometric-fixed": {"collapse": "fixed", "sigma_eps": 1, "defect": ((0, 0),) * 4},
}


# ---------- inputs ----------


def inputs(seed: int):
    return {"seed": seed}


def _pick_twist(rng, pred, model, want: bool) -> int:
    while True:
        key = rng.randrange(256 + len(PRESETS))
        if expected_decision(pred, DOC_MODELS[model], twist_matrix(key)) == want:
            return key


def rounds(data, ctx):
    rng = random.Random(data["seed"])
    index = 0
    pairs = list(product(PREDICATES, MODELS))
    while True:
        ops = []
        for j, (pred, model) in enumerate(pairs):
            ops.append((pred, model, _pick_twist(rng, pred, model, True), RADII[(j + index) % 6]))
        for k in range(3):
            pred, model = pairs[(2 * k + index) % 6]
            ops.append((pred, model, _pick_twist(rng, pred, model, False), RADII[(k + 2 * index) % 6]))
        model = MODELS[index % len(MODELS)]
        ops.append(("target_sign_compat", model, _pick_twist(rng, "target_sign_compat", model, True), RADII[-1]))
        for _ in range(9):
            ops.append(("cocycle_callable", tuple(rng.randrange(4) for _ in range(5)), 1))
        if index % 2:
            ops.append(("cocycle_bilinear", rng.randrange(256), RADII[index % 6]))
            ops.append(("twist_ratio", rng.randrange(260), rng.randrange(260)))
        else:
            u0 = (rng.randint(-1, 1), rng.randint(-1, 1))
            v0 = rng.choice([(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1) if (p, q) != (0, 0)])
            ops.append(("cocycle_spike", (u0, v0), 1))
            ops.append(("count_classes", list(SUBGROUPS)[(index // 2) % len(SUBGROUPS)]))
        rng.shuffle(ops)
        index += 1
        yield ops


# ---------- set-up and ops ----------


def build(ms, data):
    units = {name: ms.units.parse_unit(name) for name in UNIT_BITS}
    cocycle = ms.cocycles.BilinearCocycle
    convs = {}
    for key, matrix in enumerate(TWISTS):
        twist = cocycle(*(units[UNIT_NAMES[m]] for m in matrix))
        convs[key] = ms.conventions.Convention(f"twist{key}", twist)
    for key, name in PRESET_KEYS.items():
        convs[key] = ms.conventions.convention(name)
    models = {name: ms.realize.builtin_model(name) for name in MODELS}
    cochain = ms.cocycles.QuadraticCochain
    unit_list = [units[UNIT_NAMES[b]] for b in sorted(UNIT_NAMES)]
    return {
        "ms": ms,
        "convs": convs,
        "models": models,
        "units": unit_list,
        "cochain": cochain,
        "subgroups": {name: ms.cocycles.UnitSubgroup.from_string(name) for name in SUBGROUPS},
    }


def _coboundary_callable(ctx, fields):
    beta = ctx["cochain"](*(ctx["units"][i] for i in fields))
    return lambda a, b: beta(a) * beta(b) * beta(a + b)


def _spike_callable(ctx, spike):
    one, minus_one = ctx["units"][0], ctx["units"][2]  # sorted bits: (0,0), (0,1), (1,0), (1,1)
    (u0, v0) = spike

    def f(a, b):
        return minus_one if (a.p, a.q) == u0 and (b.p, b.q) == v0 else one

    return f


def run(ctx, op, tracer=None):
    ms = ctx["ms"]
    kind = op[0]
    if kind in PREDICATES:
        _, model, key, radius = op
        fn = getattr(ms.realize, kind)
        return fn(ctx["convs"][key], ctx["models"][model], range(-radius, radius + 1))
    if kind == "cocycle_callable":
        return ms.cocycles.check_cocycle_identity(_coboundary_callable(ctx, op[1]), range(-op[2], op[2] + 1))
    if kind == "cocycle_spike":
        return ms.cocycles.check_cocycle_identity(_spike_callable(ctx, op[1]), range(-op[2], op[2] + 1))
    if kind == "cocycle_bilinear":
        return ms.cocycles.check_cocycle_identity(ctx["convs"][op[1]].twist, range(-op[2], op[2] + 1))
    if kind == "count_classes":
        return ms.cocycles.count_classes(ctx["subgroups"][op[1]])
    if kind == "twist_ratio":
        return ms.conventions.twist_ratio(ctx["convs"][op[1]], ctx["convs"][op[2]])
    raise ValueError(f"unknown op {kind!r}")


# ---------- checks ----------


def _bits(unit) -> tuple[int, int]:
    return UNIT_BITS[str(unit)]


def _model_doc(model) -> dict:
    d = model.defect
    return {
        "collapse": model.collapse,
        "sigma_eps": model.sigma_eps,
        "defect": tuple(_bits(u) for u in (d.m11, d.m12, d.m21, d.m22)),
    }


def _spike_bits(spike, a, b):
    return (1, 0) if (a, b) == spike else (0, 0)


def check_one(ctx, op, answer) -> str | None:
    kind = op[0]
    if kind in PREDICATES:
        _, model_name, key, radius = op
        model = _model_doc(ctx["models"][model_name])
        matrix = twist_matrix(key)
        want = expected_decision(kind, model, matrix)
        if bool(answer) != want:
            return f"decision {bool(answer)}, oracle {want}"
        if want:
            return None if answer.witness is None else "passing decision carries a witness"
        a, b = answer.witness
        coords = [a.p, a.q, b.p, b.q]
        if any(abs(x) > radius for x in coords):
            return "witness outside the grid"
        if holds(kind, model, matrix, (a.p, a.q), (b.p, b.q)):
            return "witness satisfies the predicate"
        return None
    if kind in ("cocycle_callable", "cocycle_bilinear"):
        return None if answer.holds and answer.witness is None else "cocycle identity reported failing"
    if kind == "cocycle_spike":
        if answer.holds or answer.witness is None:
            return "spiked pair function reported a cocycle"
        spike = op[1]
        u, v, w = ((x.p, x.q) for x in answer.witness)

        def add(x, y):
            return (x[0] + y[0], x[1] + y[1])

        lhs = mul(_spike_bits(spike, add(u, v), w), _spike_bits(spike, u, v))
        rhs = mul(_spike_bits(spike, v, w), _spike_bits(spike, u, add(v, w)))
        return "witness satisfies the cocycle identity" if lhs == rhs else None
    if kind == "count_classes":
        want = SUBGROUPS[op[1]]
        return None if answer == want else f"count {answer}, expected {want}"
    if kind == "twist_ratio":
        ratio = tuple(mul(x, y) for x, y in zip(twist_matrix(op[1]), twist_matrix(op[2])))
        c = answer.cocycle
        got = tuple(_bits(u) for u in (c.m11, c.m12, c.m21, c.m22))
        if got != ratio:
            return f"ratio {got}, expected {ratio}"
        want = ratio[1] == ratio[2]
        if answer.is_coboundary != want:
            return f"is_coboundary {answer.is_coboundary}, expected {want}"
        if want:
            w = answer.witness
            if w is None or (_bits(w.c11), _bits(w.c12), _bits(w.c12), _bits(w.c22)) != ratio:
                return "coboundary witness does not give the ratio"
        return None
    return f"unknown op {kind!r}"


def check(ctx, records, data) -> list:
    return [error or check_one(ctx, op, answer) for op, answer, error, _ in records]


def corrupt(ctx, op, answer):
    """A wrong answer of the right shape, for the self-test."""
    ms = ctx["ms"]
    kind = op[0]
    if kind == "is_ring_hom":
        return ms.realize.RingHomDecision(not answer.is_hom, answer.witness)
    if kind == "target_sign_compat":
        return ms.realize.SignCompatDecision(not answer.compatible, answer.witness)
    if kind in ("cocycle_callable", "cocycle_bilinear", "cocycle_spike"):
        return ms.cocycles.CocycleCheck(not answer.holds, answer.witness)
    if kind == "count_classes":
        return answer + 1
    if kind == "twist_ratio":
        return ms.conventions.TwistRatio(answer.cocycle, not answer.is_coboundary, answer.witness)
    raise ValueError(kind)


def trace_metrics(ctx) -> dict:
    return {}

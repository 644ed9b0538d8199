"""In-memory span tracer for the traced benchmark run.

Wrappers are installed around motsign's public functions only when a run
asks for tracing, so the untraced run calls motsign unmodified.  A span
records (name, start, end, parent span id, span id, op id); a span's self
time is its duration minus the time covered by its child spans.  The
units layer and the cheapest hot calls get call counters instead of spans,
because a span per operator would swamp the run.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from time import perf_counter

# (metric prefix, module, attribute) for every wrapped function that gets
# a span.  "Class.method" attributes wrap the method on the class.
SPANS = (
    ("cocycles.check_cocycle_identity", "cocycles", "check_cocycle_identity"),
    ("cocycles.count_classes", "cocycles", "count_classes"),
    ("cocycles.is_coboundary", "cocycles", "is_coboundary"),
    ("conventions.commutation_unit", "conventions", "commutation_unit"),
    ("conventions.twist_ratio", "conventions", "twist_ratio"),
    ("algebra.parse_expression", "algebra", "parse_expression"),
    ("algebra.eval_expr", "algebra", "eval_expr"),
    ("algebra.multiply", "algebra", "multiply"),
    ("algebra.normalize", "algebra", "normalize"),
    ("algebra.add_elements", "algebra", "add_elements"),
    ("algebra.scalar_mul", "algebra", "scalar_mul"),
    ("algebra.transport_check", "algebra", "transport_check"),
    ("algebra.presentation_init", "algebra", "Presentation.__init__"),
    ("algebra.reduce_coef", "algebra", "Presentation.reduce_coef"),
    ("realize.is_ring_hom", "realize", "is_ring_hom"),
    ("realize.target_sign_compat", "realize", "target_sign_compat"),
    ("realize.builtin_model", "realize", "builtin_model"),
    ("catalog.universal_presentation", "catalog", "universal_presentation"),
    ("catalog.sensitivity_table", "catalog", "sensitivity_table"),
    ("scan.parse_table", "scan", "parse_table"),
    ("scan.check_conjecture", "scan", "check_conjecture"),
    ("scan.load_sample_table", "scan", "load_sample_table"),
    ("cli.main", "cli", "main"),
)

# (counter name, module, attributes) for calls that are only counted.
COUNTERS = (
    ("units.unit_ops", "units", ("Unit.__mul__", "Unit.specialize", "Unit.to_coef")),
    (
        "units.coef_ops",
        "units",
        ("Coef.__add__", "Coef.__radd__", "Coef.__sub__", "Coef.__mul__", "Coef.__rmul__", "Coef.__neg__"),
    ),
    ("cocycles.twist_eval", "cocycles", ("BilinearCocycle.__call__",)),
    ("conventions.base_commutation", "conventions", ("base_commutation",)),
)

# Spans that are realization decisions; twist evaluations and
# commutation_unit calls made inside them are the decision's pair count.
DECISIONS = frozenset({"realize.is_ring_hom", "realize.target_sign_compat"})
PAIR_PROBES = frozenset({"cocycles.twist_eval", "conventions.commutation_unit"})

# Spans whose result length is summed (rows parsed by parse_table).
SIZED = frozenset({"scan.parse_table"})

SETUP_OP = -1


class Tracer:
    """Holds spans and per-name statistics for one process.

    stats[phase][name] = [self_s, calls, total_s, result_items] and
    counts[phase][name] = calls, where phase is "setup" while
    op_id == SETUP_OP and "ops" otherwise.
    """

    def __init__(self, max_spans: int = 300_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[tuple[int, list[float]]] = []
        self.next_id = 0
        self.op_id = SETUP_OP
        self.stats: dict[str, dict[str, list]] = {"setup": {}, "ops": {}}
        self.counts: dict[str, dict[str, int]] = {"setup": {}, "ops": {}}
        self.decision_depth = 0
        self.decision_pairs = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---------- installation ----------

    def install(self) -> None:
        """Wrap every listed motsign name that exists; record the rest as
        missing.  Every motsign module that holds the original object by
        another import gets the wrapper too."""
        for name, module, attr in SPANS:
            self._wrap(module, attr, lambda fn, name=name: self._span(name, fn), name)
        for name, module, attrs in COUNTERS:
            for attr in attrs:
                self._wrap(module, attr, lambda fn, name=name: self._counter(name, fn), name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, module: str, attr: str, make, name: str) -> None:
        mod = sys.modules.get(f"motsign.{module}")
        if mod is None and importlib.util.find_spec(f"motsign.{module}") is not None:
            return  # the module exists but this run never imports it
        owner: object = mod
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        leaf = parts[-1]
        original = None
        if owner is not None:
            original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if original is None:
            if f"{name} ({module}.{attr})" not in self.missing:
                self.missing.append(f"{name} ({module}.{attr})")
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for mod_name, loaded in list(sys.modules.items()):
            if mod_name != "motsign" and not mod_name.startswith("motsign."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    # ---------- wrappers ----------

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        is_decision = name in DECISIONS
        is_probe = name in PAIR_PROBES
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_probe and self.decision_depth:
                self.decision_pairs += 1
            if is_decision:
                self.decision_depth += 1
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            child = [0.0]
            stack.append((span_id, child))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_decision:
                    self.decision_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                phase = "setup" if self.op_id == SETUP_OP else "ops"
                entry = self.stats[phase].get(name)
                if entry is None:
                    entry = self.stats[phase][name] = [0.0, 0, 0.0, 0]
                entry[0] += duration - child[0]
                entry[1] += 1
                entry[2] += duration
                if sized and result is not None:
                    entry[3] += len(result)
                if len(spans) < self.max_spans:
                    spans.append((name, start, end, parent, span_id, self.op_id))
                else:
                    self.dropped += 1

        return wrapper

    def _counter(self, name: str, fn):
        is_probe = name in PAIR_PROBES
        setup, ops = self.counts["setup"], self.counts["ops"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = setup if self.op_id == SETUP_OP else ops
            table[name] = table.get(name, 0) + 1
            if is_probe and self.decision_depth:
                self.decision_pairs += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------- results ----------

    def snapshot(self) -> dict:
        """Statistics (not spans) as a JSON-ready document."""
        return {
            "stats": self.stats,
            "counts": self.counts,
            "decision_pairs": self.decision_pairs,
            "missing": self.missing,
        }

    def merge(self, doc: dict, op_id: int, spans: list) -> None:
        """Fold a child process's snapshot and spans into this tracer,
        re-labelling the child's spans with this process's op id."""
        for table in doc["stats"].values():
            for name, values in table.items():
                entry = self.stats["ops"].setdefault(name, [0.0, 0, 0.0, 0])
                for i, value in enumerate(values):
                    entry[i] += value
        for table in doc["counts"].values():
            for name, count in table.items():
                self.counts["ops"][name] = self.counts["ops"].get(name, 0) + count
        self.decision_pairs += doc["decision_pairs"]
        for item in doc["missing"]:
            if item not in self.missing:
                self.missing.append(item)
        base = self.next_id
        for name, start, end, parent, span_id, _ in spans:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                continue
            self.spans.append((name, start, end, -1 if parent < 0 else parent + base, span_id + base, op_id))
        self.next_id = base + 1 + max((s[4] for s in spans), default=0)

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "id", "op"],
            "names": names,
            "dropped": self.dropped,
            "missing": self.missing,
            "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4], s[5]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")

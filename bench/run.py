"""The motsign benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {decide,eval,rewrite,cli} --seed N \\
        --seconds S --trace {0,1}

One caller sends each op only after the previous answer, in one process,
with at most one child process at a time, all on one CPU.  The seed alone
determines the inputs.  Every answer is checked independently, untimed, as
its round ends.  Times are scaled to a reference speed by calibration
slices run between ops (harness.Calibration); the run record keeps the
measured times too.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 the run measures half of S untraced, then
installs the tracer and measures the other half, and reports the
per-layer metrics.  The line before it is the run record, also written to
bench/out/, and the traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

import harness
import tracer as tracing
import wl_cli
import wl_decide
import wl_eval
import wl_rewrite

WORKLOADS = {wl.NAME: wl for wl in (wl_decide, wl_eval, wl_rewrite, wl_cli)}
SETUP_REPS = 11
PROBE_REPS = 5
# Layers with spans; units has counters only, so its time is inside its
# callers' self time.
SPAN_LAYERS = ("cocycles", "conventions", "algebra", "realize", "catalog", "scan", "cli")
SUBCOMMANDS = (
    "commute", "cocycle-check", "cocycle-class", "cocycle-ratio", "classes",
    "eval", "transport", "realize", "sensitivity", "scan",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one motsign benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(wl, data):
    """One timed set-up: (seconds, workload state)."""
    if hasattr(wl, "setup"):
        return wl.setup(data)
    return harness.library_setup(lambda ms: wl.build(ms, data))


def scaled_setup(wl, data, cal):
    """One set-up bracketed by calibration: (measured s, scaled s, state)."""
    before = cal.burst()
    raw, ctx = setup(wl, data)
    return raw, cal.scale(raw, before, cal.burst()), ctx


def end_to_end(wl, phase, setup_s):
    stats = harness.latency_stats(phase.scaled)
    attempted = len(phase.latencies) + phase.warmup_ops
    if wl is wl_cli:
        rss = harness.peak_rss_mb(children=True)
    else:
        rss = phase.rss_mb if phase.rss_mb is not None else harness.peak_rss_mb(children=False)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(phase.scaled) / sum(phase.scaled), "1/s"),
        "op_p50_ms": (stats["p50_s"] * 1000.0, "ms"),
        "op_tail_ms": (stats["tail_s"] * 1000.0, "ms"),
        "ok_ratio": (1.0 - len(phase.failures) / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, stats


def probe_ms(code: str, cal) -> float:
    """Median scaled wall time of a child `python -c code`, in ms."""
    times = []
    for _ in range(PROBE_REPS):
        before = cal.burst()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=harness.child_env(), cwd=harness.ROOT, check=True)
        times.append(cal.scale(perf_counter() - start, before, cal.burst()))
    return statistics.median(times) * 1000.0


# Span names whose self time is also reported for the traced set-up.
SETUP_SPANS = ("algebra.presentation_init", "catalog.universal_presentation")
CALLS = (
    "cocycles.check_cocycle_identity", "cocycles.is_coboundary", "conventions.commutation_unit",
    "algebra.eval_expr", "algebra.multiply", "algebra.reduce_coef",
    "realize.is_ring_hom", "realize.target_sign_compat",
)
SELF_MS = (
    "cocycles.check_cocycle_identity", "cocycles.count_classes", "conventions.commutation_unit",
    "conventions.twist_ratio", "algebra.parse_expression", "algebra.eval_expr", "algebra.multiply",
    "algebra.normalize", "algebra.reduce_coef", "algebra.transport_check",
    "algebra.presentation_init", "realize.is_ring_hom", "realize.target_sign_compat",
    "catalog.universal_presentation", "catalog.sensitivity_table", "scan.parse_table",
    "scan.check_conjecture",
)
COUNTED = ("units.unit_ops", "units.coef_ops", "cocycles.twist_eval", "conventions.base_commutation")


def per_layer(wl, ctx, tr, plain, traced, missing, cal):
    """Per-layer metrics of the traced phase.  Calls and self times are per
    traced op; the set-up spans add the self time of one traced set-up.
    Span times are scaled by the traced phase's mean calibration factor."""
    n = len(traced.latencies)
    factor = sum(traced.scaled) / sum(traced.latencies)
    ops = tr.stats["ops"]
    zero = [0.0, 0, 0.0, 0]
    m = {"trace.ops": (n, "count")}
    for name in COUNTED:
        m[f"{name}.calls"] = (tr.counts["ops"].get(name, 0) / n, "count")
    for name in CALLS:
        m[f"{name}.calls"] = (ops.get(name, zero)[1] / n, "count")
    for name in SELF_MS:
        value = ops.get(name, zero)[0] / n
        if name in SETUP_SPANS:
            value += tr.stats["setup"].get(name, zero)[0]
        m[f"{name}.self_ms"] = (value * factor * 1000.0, "ms")

    terms = traced.result_terms
    m["algebra.result_terms.max"] = (max(terms, default=0), "count")
    m["algebra.result_terms.mean"] = (statistics.fmean(terms) if terms else 0.0, "count")
    extra = wl.trace_metrics(ctx)
    entries = 0
    for pres in extra.get("presentations", []):
        cache = getattr(pres, "_basis_cache", None)
        if cache is None:
            missing.append("algebra.basis_cache.entries (Presentation._basis_cache)")
            break
        entries += len(cache)
    m["algebra.basis_cache.entries"] = (entries, "count")

    decisions = ops.get("realize.is_ring_hom", zero)[1] + ops.get("realize.target_sign_compat", zero)[1]
    m["realize.decisions"] = (decisions, "count")
    m["realize.pairs_per_decision"] = (tr.decision_pairs / decisions if decisions else 0.0, "count")

    parse = ops.get("scan.parse_table", zero)
    m["scan.parse_table.rows"] = (parse[3], "count")
    m["scan.parse_table.rows_per_s"] = (parse[3] / (parse[2] * factor) if parse[2] else 0.0, "1/s")

    interpreter = probe_ms("pass", cal)
    m["cli.interpreter_ms"] = (interpreter, "ms")
    m["cli.import_ms"] = (probe_ms("import motsign.cli", cal) - interpreter, "ms")
    main_self = extra.get("main_self", {})
    for sub in SUBCOMMANDS:
        runs = traced.kinds.get(sub, 0) if wl is wl_cli else 0
        m[f"cli.main.{sub}.self_ms"] = (main_self.get(sub, 0.0) * factor * 1000.0 / runs if runs else 0.0, "ms")

    op_time = sum(traced.latencies)
    for layer in SPAN_LAYERS:
        layer_self = sum(v[0] for name, v in ops.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = (layer_self / op_time, "ratio")
    m["trace.overhead_ratio"] = ((n / sum(traced.scaled)) / (len(plain.scaled) / sum(plain.scaled)), "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        harness.require_sources()
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cpu = harness.pin_one_cpu()
    cal = harness.Calibration()
    harness.OUT.mkdir(exist_ok=True)
    data = wl.inputs(args.seed)
    try:
        first_raw, first_setup, ctx = scaled_setup(wl, data, cal)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rounds = wl.rounds(data, ctx)
    record = {"cpu_pinned": cpu}
    missing: list[str] = []

    if not args.trace:
        # Further set-ups are spread over the timed phase, untimed, so that
        # a burst of other load on the machine cannot slow all of them.
        setups = [(first_raw, first_setup)]
        marks = [args.seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
        phase = harness.run_timed(wl, ctx, data, rounds, args.seconds, cal, rss_rounds=wl.RSS_ROUNDS,
                                  marks=marks, on_mark=lambda: setups.append(scaled_setup(wl, data, cal)[:2]))
        metrics, stats = end_to_end(wl, phase, statistics.median(s for _, s in setups))
        measured = harness.latency_stats(phase.latencies)
        record.update(setup_s_each=[s for _, s in setups], setup_s_measured=[r for r, _ in setups],
                      warmup_s=phase.warmup_s, op_time_s=phase.wall, rounds=len(phase.round_times),
                      capped=phase.wall >= harness.MEASURED_CAP * args.seconds,
                      ops=len(phase.latencies), tail_percentile=stats["tail_percentile"],
                      tail_samples_beyond=stats["tail_samples_beyond"], rss_after_rounds=wl.RSS_ROUNDS,
                      measured={"ops_per_s": len(phase.latencies) / phase.wall,
                                "op_p50_ms": measured["p50_s"] * 1000.0,
                                "op_tail_ms": measured["tail_s"] * 1000.0,
                                "setup_s": statistics.median(r for r, _ in setups)},
                      cal_slice_ms=cal.mean_slice_s * 1000.0, cal_ref_ms=harness.CAL_REF_S * 1000.0,
                      cal_s=cal.spent, round_times_s=phase.round_times)
        phases = [phase]
    else:
        half = args.seconds / 2.0
        plain = harness.run_timed(wl, ctx, data, rounds, half, cal)
        tr = tracing.Tracer()
        if wl is not wl_cli:
            tr.install()
            wl.build(ctx["ms"], data)  # one traced set-up, for the set-up layers
            tr.uninstall()
        # cli ops trace themselves in their child processes
        traced = harness.run_timed(wl, ctx, data, rounds, half, cal, tracer=tr, install=wl is not wl_cli)
        missing.extend(tr.missing)
        metrics = per_layer(wl, ctx, tr, plain, traced, missing, cal)
        spans_path = harness.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tr.write(spans_path)
        record.update(ops_untraced=len(plain.latencies), ops_traced=len(traced.latencies),
                      untraced_op_time_s=plain.wall, traced_op_time_s=traced.wall, spans=len(tr.spans),
                      spans_dropped=tr.dropped, spans_file=str(spans_path.relative_to(harness.ROOT)))
        phases = [plain, traced]

    attempted = sum(len(p.latencies) + p.warmup_ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update(
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
        failures=[f"op {i}: {reason}" for i, reason in failures[:20]],
        missing=missing,
    )
    run_doc = harness.run_record(args, record)
    record_path = harness.OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(run_doc, indent=1) + "\n")
    print(json.dumps(run_doc))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

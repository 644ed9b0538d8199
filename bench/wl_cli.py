"""cli: one `python -m motsign ...` process per op.

A seeded mix of the README invocations of all ten subcommands, about half
with --json: commute, cocycle check/class/ratio, classes, eval,
transport, realize at the default grid, sensitivity, and scan on the
bundled sample and on a 10^5-row CSV written during set-up.  The bare
interpreter and `import motsign.cli` dominate most ops, and this is the
only workload that drives scan at size.  Each round runs every
subcommand once and the large scan four times (text and JSON, twice
each), so every seed gets the same mix.

Check: the exit code and stdout must equal those of motsign.cli.main
called in the benchmark's own process, and a scan's violation count must
equal the benchmark's own count of rows with odd weight and eps_nonzero
set.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from time import perf_counter

import harness

NAME = "cli"
# cli reports the peak memory of its largest child, not of this process.
RSS_ROUNDS = 0

CONVENTIONS = (
    "reference", "deligne", "u=1", "minus-one", "u=-1",
    "epsilon", "bernstein", "u=eps", "minus-epsilon", "u=-eps",
)
PRESETS = ("reference", "minus-one", "epsilon", "minus-epsilon")
MODES = ("generic", "generic", "+1", "-1")
UNITS = ("1", "-1", "eps", "-eps")
SUBGROUPS = ("trivial", "minus-one", "eps", "minus-eps", "full")
MODELS = ("betti", "c2-underlying", "geometric-fixed")
CATALOG_TAU = ("rho", "eta", "nu", "sigma", "eta_top", "nu_top", "sigma_top", "tau", "tau0")
LARGE_ROWS = 100_000
SAMPLE = harness.SRC / "motsign" / "data" / "sample_r_motivic.csv"
WARM_ARGV = ("commute", "--convention", "u=eps", "--deg-a", "0,-1", "--deg-b", "3,2")
CHILD_TIMEOUT_S = 120


def count_violations(path) -> tuple[int, int]:
    """(rows, rows with eps_nonzero set in odd weight), counted here."""
    rows = violations = 0
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.reader(handle):
            if not record:
                continue
            rows += 1
            if record[3].strip() == "1" and int(record[2]) % 2:
                violations += 1
    return rows, violations


def inputs(seed: int, rows: int = LARGE_ROWS):
    rng = random.Random(seed)
    harness.OUT.mkdir(exist_ok=True)
    large = harness.OUT / f"scan-{seed}-{rows}.csv"
    with open(large, "w", encoding="utf-8") as handle:
        for i in range(rows):
            flag = 1 if rng.random() < 0.01 else 0
            handle.write(f"r{i},{rng.randint(-20, 80)},{rng.randint(-20, 40)},{flag},src{i % 7}\n")
    counts = {str(large): count_violations(large), "sample": count_violations(SAMPLE)}
    return {"seed": seed, "large": str(large), "counts": counts}


def _degree(rng):
    return f"{rng.randint(-9, 9)},{rng.randint(-9, 9)}"


def _word(rng):
    return "*".join(rng.choice(CATALOG_TAU) for _ in range(rng.randint(4, 12)))


def _ops(rng, data):
    ops = [
        ("commute", ["commute", "--convention", rng.choice(CONVENTIONS), f"--mode={rng.choice(MODES)}",
                     f"--deg-a={_degree(rng)}", f"--deg-b={_degree(rng)}"]),
        ("cocycle-check", ["cocycle", "check", f"--u={rng.choice(UNITS)}", "--grid", str(rng.randint(1, 6))]),
        ("cocycle-class", ["cocycle", "class", f"--u={rng.choice(UNITS)}"]),
        ("cocycle-ratio", ["cocycle", "ratio", "--from", rng.choice(CONVENTIONS), "--to", rng.choice(CONVENTIONS),
                           f"--mode={rng.choice(MODES)}"]),
        ("classes", ["classes", "--units", rng.choice(SUBGROUPS)]),
        ("eval", ["eval", "--pres", "catalog-tau", "--convention", rng.choice(CONVENTIONS),
                  f"--mode={rng.choice(MODES)}", _word(rng)]),
        ("transport", ["transport", "--pres", "catalog-tau", "--from", rng.choice(PRESETS),
                       "--to", rng.choice(PRESETS), _word(rng)]),
        ("realize", ["realize", "--model", rng.choice(MODELS)]
         + (["--convention", rng.choice(CONVENTIONS)] if rng.random() < 0.5 else [])),
        ("sensitivity", ["sensitivity"] + (["--with-tau"] if rng.random() < 0.5 else [])),
        ("scan", ["scan", "--table", "sample"]),
    ]
    for op in ops:
        if rng.random() < 0.5:
            op[1].append("--json")
    # Four large scans per round put the 11th largest latency, the tail,
    # in the middle of the large scans rather than at their low end.
    for _ in range(2):
        ops.append(("scan", ["scan", "--table", data["large"]]))
        ops.append(("scan", ["scan", "--table", data["large"], "--json"]))
    return [(sub, tuple(argv)) for sub, argv in ops]


def rounds(data, ctx):
    rng = random.Random(data["seed"])
    while True:
        ops = _ops(rng, data)
        rng.shuffle(ops)
        yield ops


def _spawn(argv, traced_out=None):
    if traced_out is None:
        cmd = [sys.executable, "-m", "motsign", *argv]
    else:
        cmd = [sys.executable, str(harness.BENCH / "cli_child.py"), str(traced_out), *argv]
    return subprocess.run(
        cmd, cwd=harness.ROOT, env=harness.child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def setup(data):
    """One warm invocation, which also fills the bytecode cache; returns
    its wall time and the workload's state."""
    start = perf_counter()
    done = _spawn(WARM_ARGV)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise harness.BenchError(f"warm invocation failed: {done.stderr.strip()}")
    return elapsed, {"main_self": {}, "own": {}}


def run(ctx, op, tracer=None):
    sub, argv = op
    if tracer is None:
        done = _spawn(argv)
        return done.returncode, done.stdout
    out = harness.OUT / f"child-{os.getpid()}.json"
    done = _spawn(argv, out)
    doc = json.loads(out.read_text())
    out.unlink()
    tracer.merge(doc, tracer.op_id, doc.pop("spans"))
    main = doc["stats"]["ops"].get("cli.main")
    if main is not None:
        ctx["main_self"][sub] = ctx["main_self"].get(sub, 0.0) + main[0]
    return done.returncode, done.stdout


def check(ctx, records, data) -> list:
    """The in-process answer of each distinct argv is computed once."""
    cli = harness.import_motsign(with_cli=True).cli
    own = ctx["own"]
    counts = data["counts"]
    out = []
    for (sub, argv), answer, error, _ in records:
        if error is not None:
            out.append(error)
            continue
        if argv not in own:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            own[argv] = (code, buffer.getvalue())
        if answer != own[argv]:
            out.append(f"{sub}: exit code or stdout differs from the in-process answer")
            continue
        code, stdout = answer
        want_code = 0
        if sub == "scan":
            rows, violations = counts[argv[2]]
            if "--json" in argv:
                doc = json.loads(stdout)
                got = (doc["rows"], len(doc["violations"]))
            elif violations:
                last = stdout.split()
                got = (int(last[-1]), int(last[-3]))
            else:
                got = (int(stdout.split()[2]), 0)
            if got != (rows, violations):
                out.append(f"scan reports (rows, violations) {got}, expected {(rows, violations)}")
                continue
            want_code = 3 if violations else 0
        out.append(None if code == want_code else f"{sub}: exit code {code}, expected {want_code}")
    return out


def corrupt(ctx, op, answer):
    code, stdout = answer
    return code, stdout.replace("1", "2", 1) if "1" in stdout else stdout + "x"


def trace_metrics(ctx) -> dict:
    return {"main_self": ctx["main_self"]}

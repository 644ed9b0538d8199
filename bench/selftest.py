"""Self-test of the benchmark's answer checks.

    python3 bench/selftest.py

Runs one round of every workload at tiny size, requires every honest
answer to pass its check, then replaces each answer in turn by a
deliberately corrupted one (and each op by one that raised) and requires
the check to count a failure.  Exits 1 if any check misses.  This is a
tool for changing the benchmark, not part of the test suite.
"""

from __future__ import annotations

import sys

import harness
from run import WORKLOADS, setup

SEED = 7
TINY_ROWS = 2_000


def failures(wl, ctx, records, data) -> int:
    return sum(reason is not None for reason in wl.check(ctx, records, data))


def selftest(name: str) -> bool:
    wl = WORKLOADS[name]
    data = wl.inputs(SEED, TINY_ROWS) if name == "cli" else wl.inputs(SEED)
    ctx = setup(wl, data)[1]
    ops = next(wl.rounds(data, ctx))
    records = [[op, wl.run(ctx, op), None, 0.0] for op in ops]
    clean = failures(wl, ctx, records, data)
    ok = clean == 0
    print(f"{name}: {len(records)} honest answers, {clean} counted as failed")
    caught = tried = 0
    for i, (op, answer, _, _) in enumerate(records):
        for bad in ("corrupt", "raise"):
            if bad == "corrupt":
                if getattr(answer, "is_zero", False):
                    continue  # a zero element has no coefficient to corrupt
                replaced = [op, wl.corrupt(ctx, op, answer), None, 0.0]
            else:
                replaced = [op, None, "RuntimeError: injected", 0.0]
            tried += 1
            if failures(wl, ctx, records[:i] + [replaced] + records[i + 1:], data) > 0:
                caught += 1
            else:
                print(f"  missed a {bad}ed answer to {op!r}")
    print(f"{name}: {caught} of {tried} corrupted answers counted as failed")
    return ok and caught == tried


def main() -> int:
    try:
        harness.require_sources()
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = [selftest(name) for name in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

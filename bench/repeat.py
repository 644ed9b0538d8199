"""Repeat mode: run workloads over several seeds and summarise every
end-to-end metric by its median and quartiles.

    python3 bench/repeat.py [--workloads decide,eval] [--seeds 1-10]
        [--seconds S] [--out FILE] [--compare EARLIER.json]

Runs are sequential, one child process at a time.  For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With --compare, it also checks the agreement criterion:
no median may be worse than the earlier set's median by more than the
bound.  Exits 1 when a run fails or a criterion is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(harness.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def worse_by(name: str, earlier: float, later: float) -> float:
    """Share by which `later` is worse than `earlier` (negative if better)."""
    if earlier == 0:
        return 0.0
    change = (later - earlier) / earlier
    return change if BOUNDS[name]["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    earlier = json.loads(open(args.compare, encoding="utf-8").read()) if args.compare else None
    report = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, correct={result['correct']}",
                  file=sys.stderr)
            ok &= result["correct"]
            runs.append(result)
        table = {}
        for name in BOUNDS:
            table[name] = summarise([r["metrics"][name]["value"] for r in runs])
        report["workloads"][workload] = table
        print(f"\n{workload}  ({len(runs)} seeds, {args.seconds} s each)")
        for name, s in table.items():
            bound = BOUNDS[name]["bound"]
            flag = ""
            if name != "setup_s" and s["spread"] > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            elif name != "setup_s" and s["spread"] > bound / 3:
                flag = "  spread above bound/3"
            line = (f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                    f"spread {s['spread']:.4f} bound {bound}{flag}")
            if earlier and workload in earlier["workloads"]:
                change = worse_by(name, earlier["workloads"][workload][name]["median"], s["median"])
                line += f"  vs earlier {change:+.4f}"
                if change > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line)
    out = args.out or str(harness.OUT / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    harness.OUT.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

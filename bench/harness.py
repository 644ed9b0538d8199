"""Shared machinery: locating and importing motsign from the checkout,
timed set-up, the speed calibration, the closed-loop timed phase, latency
statistics and the run record."""

from __future__ import annotations

import gc
import importlib
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MODULES = ("units", "cocycles", "conventions", "algebra", "realize", "catalog", "scan")

# A tail value needs at least this many samples beyond it.
TAIL_BEYOND = 10

# Speed calibration (see Calibration): the share of op time spent on
# calibration slices, the slice time that defines the reference speed, and
# the length of the calibration bursts around a set-up.
CAL_SHARE = 0.15
CAL_REF_S = 1e-4
CAL_BURST_S = 0.02
# A timed phase also ends once its measured op time reaches this multiple
# of its length, so that a very slow host cannot stretch a run unbounded.
MEASURED_CAP = 1.5


class BenchError(Exception):
    """The benchmark cannot run here (for example, no motsign sources)."""


def require_sources() -> None:
    if not (SRC / "motsign" / "__init__.py").is_file():
        raise BenchError(f"motsign sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def purge_motsign() -> None:
    for name in [n for n in sys.modules if n == "motsign" or n.startswith("motsign.")]:
        del sys.modules[name]


def import_motsign(with_cli: bool = False) -> types.SimpleNamespace:
    """Import motsign from the checkout and return its modules by short name."""
    require_sources()
    pkg = importlib.import_module("motsign")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported motsign from {pkg.__file__}, not from {SRC}")
    ms = types.SimpleNamespace(pkg=pkg)
    for name in MODULES + (("cli",) if with_cli else ()):
        setattr(ms, name, importlib.import_module(f"motsign.{name}"))
    return ms


def library_setup(build):
    """One set-up of a library workload: drop motsign from sys.modules,
    import it again and build the workload's objects.  Returns the time it
    took and the objects."""
    purge_motsign()
    start = perf_counter()
    ctx = build(import_motsign())
    return perf_counter() - start, ctx


def pin_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on one CPU, so that
    calibration slices and ops run on the same core.  Returns that CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cal_slice(n: int = 300) -> int:
    """A fixed piece of pure-Python work of the kind motsign does: small
    tuples, dict updates and integer bit operations."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) + ((i ^ acc) & 3)
        acc = (acc + len(table)) & 1023
    return acc


class Calibration:
    """Scales measured times to a reference speed.

    On a shared host a core's speed can drift by a factor of two over
    seconds to minutes, and the drift would swamp the program's own
    changes.  So after each op the benchmark runs fixed calibration slices
    for CAL_SHARE of the op's time (tiny ops accumulate the debt until a
    slice is due), with the garbage collector off so that the program's
    heap cannot slow them.  An op's scaled time is its measured time times
    CAL_REF_S over the mean slice time measured just before and just after
    it: the time the op would have taken on a core that runs one slice in
    CAL_REF_S.  A set-up is bracketed by bursts of CAL_BURST_S in the same
    way.  Calibration time is outside every measured time."""

    def __init__(self):
        self.owed = 0.0
        self.last: float | None = None
        self.spent = 0.0
        self.slices = 0

    def burst(self, seconds: float = CAL_BURST_S) -> float:
        """Run slices for at least `seconds` (at least one slice) and
        return their mean time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent, count = 0.0, 0
            while spent < seconds or not count:
                t0 = perf_counter()
                _cal_slice()
                spent += perf_counter() - t0
                count += 1
        finally:
            if enabled:
                gc.enable()
        self.spent += spent
        self.slices += count
        self.last = spent / count
        return self.last

    def after_op(self, seconds: float) -> float:
        """Owe CAL_SHARE of an op's time; pay the debt once it is due.
        Returns the latest mean slice time."""
        self.owed += CAL_SHARE * seconds
        if self.owed > 0 or self.last is None:
            spent = self.spent
            self.burst(self.owed)
            self.owed -= self.spent - spent
        return self.last

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * CAL_REF_S / ((before + after) / 2.0)

    @property
    def mean_slice_s(self) -> float:
        return self.spent / self.slices if self.slices else 0.0


class Phase:
    """What one timed phase measured: per-op latencies, measured and
    scaled to the reference speed, per-round op time, failures as (op
    index, reason), op counts by kind, term counts of returned elements,
    and the warm-up round's size and time."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.round_times: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.kinds: dict[str, int] = {}
        self.result_terms: list[int] = []
        self.rss_mb: float | None = None
        self.warmup_ops = 0
        self.warmup_s = 0.0

    @property
    def wall(self) -> float:
        return sum(self.round_times)


def element_terms(answer) -> list[int]:
    """Term counts of the elements an answer carries, if any."""
    if hasattr(answer, "result_from"):
        return [len(answer.result_from.terms), len(answer.result_to.terms)]
    if hasattr(answer, "terms"):
        return [len(answer.terms)]
    return []


def _answer(workload, ctx, op, tracer=None):
    """(answer, None), or (None, error text) for an op that raised; an op
    that raises counts as failed."""
    try:
        return workload.run(ctx, op, tracer), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_timed(workload, ctx, data, rounds, seconds: float, cal: Calibration, tracer=None,
              install: bool = True, rss_rounds: int = 0, marks=(), on_mark=None):
    """Closed loop: one caller sends the next op only after the previous
    answer.  One untimed warm-up round fills caches; then whole rounds run
    until their scaled op time adds up to `seconds`, or their measured op
    time to MEASURED_CAP times that.  Each op is followed by its share of
    calibration slices (see Calibration).  Counting scaled time keeps the
    number of rounds, and so the ops that make up the tail, the same
    however fast the host runs.

    Every round is checked as soon as it ends; generating and checking
    rounds, and calibrating, is excluded from the op time and from
    tracing.  With a tracer, its wrappers are installed (if `install`)
    around the timed ops only.  After `rss_rounds` rounds, a fixed amount
    of work, the process's peak resident memory is read.  Between later
    rounds, once the scaled op time passes each of `marks` (seconds),
    on_mark() runs untimed; marks not reached run after the last round."""
    marks = list(marks)
    phase = Phase()
    start = perf_counter()
    warm = [[op, *_answer(workload, ctx, op), 0.0] for op in next(rounds)]
    phase.warmup_s = perf_counter() - start
    for i, reason in enumerate(workload.check(ctx, warm, data)):
        if reason is not None:
            phase.failures.append((i - len(warm), f"warm-up: {reason}"))
    phase.warmup_ops = len(warm)
    traced = tracer is not None and install
    op_id = 0
    elapsed = 0.0
    cal.burst()
    while elapsed < seconds and phase.wall < MEASURED_CAP * seconds:
        batch = next(rounds)
        records = []
        if traced:
            tracer.install()
        for op in batch:
            if tracer is not None:
                tracer.op_id = op_id + len(records)
            before = cal.last
            t0 = perf_counter()
            answer, error = _answer(workload, ctx, op, tracer)
            latency = perf_counter() - t0
            phase.scaled.append(cal.scale(latency, before, cal.after_op(latency)))
            records.append([op, answer, error, latency])
        round_time = sum(record[3] for record in records)
        if tracer is not None:
            tracer.op_id = -1
        if traced:
            tracer.uninstall()
        elapsed += sum(phase.scaled[-len(records):])
        phase.round_times.append(round_time)
        for i, reason in enumerate(workload.check(ctx, records, data)):
            if reason is not None:
                phase.failures.append((op_id + i, reason))
        for op, answer, _, latency in records:
            phase.latencies.append(latency)
            phase.kinds[op[0]] = phase.kinds.get(op[0], 0) + 1
            phase.result_terms.extend(element_terms(answer))
        op_id += len(records)
        if len(phase.round_times) == rss_rounds:
            phase.rss_mb = peak_rss_mb(children=False)
        while marks and elapsed >= marks[0] and len(phase.round_times) >= rss_rounds:
            marks.pop(0)
            on_mark()
    for _ in marks:
        on_mark()
    return phase


def latency_stats(latencies: list[float]) -> dict:
    """Median and the highest percentile that still has TAIL_BEYOND
    samples beyond it (the (TAIL_BEYOND+1)-th largest latency)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[n - 1 - beyond],
        "tail_percentile": round(100.0 * (n - beyond) / n, 3),
        "tail_samples_beyond": beyond,
        "n": n,
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, extra: dict) -> dict:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }
    record.update(extra)
    return record

"""Wall-clock benchmark for fxlang, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single client: it
imports fxlang from `src/` and builds the inputs (set-up, repeated and
timed), then runs passes over the workload's items until `--seconds`
have gone by, checking every result against a pinned or independent
reference.  Once per run it also checks that `bench.run_grid` on
`programs/grid.spec` reproduces `perfbench/grid.csv` byte for byte.

Times are host-adjusted (see `HostSpeed`).  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes and reports per-layer metrics from spans recorded
around each layer call (see tracing.py), plus the tracing overhead.
Spans are written to `.perfbench/` under the repository root.  A table
with quartiles and sample counts goes to standard output, and the last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import array
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9  # at least; more until SETUP_SECONDS of set-up are timed
SETUP_SECONDS = 2.0

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(HERE))
from tracing import Tracer, summarise  # noqa: E402
from workloads import ROW_KEYS, WORKLOADS, Outcome  # noqa: E402

FXLANG_LAYERS = ("countlib", "parser", "typecheck", "syntax", "machine", "trees", "smallstep")


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# The host-speed probe: a fixed pure-Python loop that runs no fxlang code.
# It mixes interpreter work with random reads over a 4 MB array, because
# fxlang's machines are allocation-heavy and slow down with memory
# contention as well as with CPU contention.  It allocates no container
# objects, so sampling never changes when the cyclic garbage collector
# runs in the workload.
REFERENCE_ITERATIONS = 20_000
REFERENCE_READS = 4_000
REFERENCE_S = 0.0022  # the loop's time on a quiet 2-core Xeon host, CPython 3.11
SAMPLE_EVERY_S = 0.2


class _Probe:
    __slots__ = ("base", "table", "memory", "reads")


_PROBE = _Probe()
_PROBE.base = 3
_PROBE.table = {k: k * k for k in range(8)}
_PROBE.memory = array.array("i", range(1 << 20))
_PROBE.reads = array.array("i", (Random(0).randrange(1 << 20) for _ in range(REFERENCE_READS)))


def _probe_step(probe, i):
    return probe.table[i & 7] + probe.base


def _reference_loop():
    probe = _PROBE
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += _probe_step(probe, i) if i & 1 else probe.table[(i >> 1) & 7]
    memory = probe.memory
    for j in probe.reads:
        acc += memory[j]
    return acc


class HostSpeed:
    """How fast the host runs right now, sampled every SAMPLE_EVERY_S.

    On a shared host the CPU this process gets swings by up to 2x within
    a second, which no number of repeats averages out.  A SIGALRM timer
    runs the reference loop in this process at a fixed rate, also in the
    middle of a long item.  `clock` is perf_counter minus the time spent
    sampling, and `adjust` converts a duration on that clock to the time
    the same work takes on the quiet host: it scales by REFERENCE_S times
    the mean of 1/(sample time) over the samples inside the interval (or
    the two around it).  The loop shares no code with fxlang, so a change
    to fxlang moves adjusted times in proportion to raw ones; probecheck.py
    checks that with planted slowdowns, memory-heavy ones included.
    """

    def __init__(self):
        self.at: list[float] = []  # sample times on `clock`
        self.took: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _sample(self, signum=None, frame=None):
        t = perf_counter()
        _reference_loop()
        took = perf_counter() - t
        self.at.append(t - self.paused)
        self.took.append(took)
        self.paused += took

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def adjust(self, start: float, seconds: float) -> float:
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, start + seconds)
        if j - i < 2:
            i, j = max(0, i - 1), j + 1
        near = self.took[i:j]
        return seconds * REFERENCE_S * sum(1 / d for d in near) / len(near)


def import_fxlang():
    """A fresh import of fxlang from this checkout's `src/`."""

    for name in [m for m in sys.modules if m == "fxlang" or m.startswith("fxlang.")]:
        del sys.modules[name]
    mod = {k: importlib.import_module(f"fxlang.{k}") for k in (
        "countlib", "machine", "syntax", "parser", "typecheck", "smallstep", "trees",
        "gen", "pprint", "decompile", "bench", "errors")}
    if Path(mod["syntax"].__file__).resolve().parent != SRC / "fxlang":
        raise ImportError(f"fxlang was imported from {mod['syntax'].__file__}, not {SRC}")
    return SimpleNamespace(
        cl=mod["countlib"], mc=mod["machine"], sx=mod["syntax"], parser=mod["parser"],
        tc=mod["typecheck"], ss=mod["smallstep"], tr=mod["trees"], gen=mod["gen"],
        pp=mod["pprint"], dc=mod["decompile"], bench=mod["bench"],
        FuelExhausted=mod["errors"].FuelExhausted,
    )


class Pass:
    """One run over every item: per item its start, seconds and outcome,
    on the host-speed clock."""

    def __init__(self, items, clock, tracer=None):
        self.traced = tracer is not None
        self.starts, self.raw, self.outcomes = [], [], []
        for name, fn in items:
            if tracer:
                tracer.item = name
                fn = tracer.wrap("bench.item", fn)
            t = clock()
            try:
                out = fn()
            except Exception as exc:  # a crash in the program is a failed op
                out = Outcome()
                out.op([f"{name}: {type(exc).__name__}: {exc}"])
            self.raw.append(clock() - t)
            self.starts.append(t)
            self.outcomes.append(out)

    def adjusted(self, speed):
        return [speed.adjust(t, s) for t, s in zip(self.starts, self.raw)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(values):
    """(median, first quartile, third quartile, samples)"""

    return (statistics.median(values), *quartiles(values), len(values))


def exact(value):
    return (value, value, value, 1)


def grid_check(fx):
    spec = fx.bench.parse_spec_file((ROOT / "programs" / "grid.spec").read_text())
    csv = fx.bench.grid_csv(fx.bench.run_grid(spec))
    return csv == (HERE / "grid.csv").read_text()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fxlang" / "__init__.py").is_file():
        print(f"perfbench: no fxlang sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Load the standard-library modules fxlang uses once, untimed.  Then
    # every timed set-up compiles fxlang from source, whether or not the
    # checkout has a __pycache__: bytecode is looked up under a directory
    # that is never created.
    import_fxlang()
    sys.pycache_prefix = str(ROOT / ".perfbench" / "no-bytecode")
    pins = json.loads((HERE / "pins.json").read_text())
    setup = WORKLOADS[args.workload]
    speed = HostSpeed()
    tracer = Tracer(speed.clock) if args.trace else None
    speed.start()

    # Set-up: import, compose, generate, print.  Timed several times, and
    # more often where it is short, so the median is steady; the last
    # set-up's modules and inputs are the ones measured.  Each earlier
    # set-up is freed before the next, so only one adds to peak memory.
    # A set-up is shorter than the host-speed sampling interval, so the
    # median raw set-up is adjusted by the host speed over all of them.
    setup_raw = []
    setup_started = speed.clock()
    while not setup_raw or not tracer and (
            len(setup_raw) < SETUP_REPEATS or sum(setup_raw) < SETUP_SECONDS):
        fx = items = None
        gc.collect()
        t0 = speed.clock()
        fx = import_fxlang()
        if tracer:
            tracer.install(fx)
        items = setup(fx, args.seed, pins)
        setup_raw.append(speed.clock() - t0)
    setup_span = speed.clock() - setup_started
    setup_scale = speed.adjust(setup_started, setup_span) / setup_span
    setup_times = [t * setup_scale for t in setup_raw]
    if tracer:
        tracer.restore()
    # The inputs live for the whole run; a user's process would not hold
    # them, so full collections in the passes should not traverse them.
    gc.collect()
    gc.freeze()

    # Closed loop: passes until less than half a pass of the time is left.
    # Traced runs alternate untraced and traced passes so the overhead is
    # measured in-process.
    passes: list[Pass] = []
    started = perf_counter()
    while True:
        gc.collect()  # every pass starts from the same collector state
        pass_started = perf_counter()
        if tracer and len(passes) % 2 == 1:
            tracer.scope = f"pass{len(passes)}"
            tracer.install(fx)
            passes.append(Pass(items, speed.clock, tracer))
            tracer.restore()
        else:
            passes.append(Pass(items, speed.clock))
        now = perf_counter()
        if now - started + (now - pass_started) / 2 >= args.seconds and len(passes) >= (2 if tracer else 1):
            break
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness: every op against its reference, and the grid CSV.  An
    # op counts once per run, as its first pass found it; every later pass
    # must reproduce that outcome and its exact counts, or all the item's
    # ops fail, none of them excused.  So `attempted` and `failed` depend
    # on the seed and the program only, not on how many passes fitted.
    first = passes[0].outcomes
    attempted = failed = known = 0
    notes = []
    for i, ((name, _), ref) in enumerate(zip(items, first)):
        item_failed, item_known = ref.failed, ref.known
        for k, p in enumerate(passes[1:], 1):
            out = p.outcomes[i]
            if (out.exact, out.failed, out.known) != (ref.exact, ref.failed, ref.known):
                item_failed, item_known = ref.ops, 0
                notes.append(f"{name}: pass {k} gives exact counts {out.exact} and "
                             f"{out.failed} failed ops, pass 0 {ref.exact} and {ref.failed}")
                break
        attempted += ref.ops
        failed += item_failed
        known += item_known
        notes.extend(f"{name}: {n}" for n in ref.notes)
    attempted += 1
    try:
        grid_ok = grid_check(fx)
    except Exception as exc:  # a crash in the program is a failed op
        grid_ok = False
        notes.append(f"grid: {type(exc).__name__}: {exc}")
    if not grid_ok:
        failed += 1
        notes.append("grid CSV differs from perfbench/grid.csv")
    correct = failed == known

    per_pass = {k: sum(getattr(o, k) for o in first) for k in ("ops", "ticks", "envops", "steps", "nodes")}
    plain = [p.adjusted(speed) for p in passes if not p.traced]  # item seconds per pass
    wall = [sum(p) for p in plain]
    if tracer is None:
        # Each item's latency is its median over the passes.
        latencies = [statistics.median(x) * 1000 for x in zip(*plain)]
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
        stats = {
            "wall_s": summary(wall),
            "ticks_per_s": summary([per_pass["ticks"] / w for w in wall]),
            "item_p50_ms": summary(latencies),
            "item_p90_ms": (p90, p90, p90, len(latencies)),
            "setup_s": summary(setup_times),
            "peak_rss_mb": exact(peak_rss_mb),
            "ops": exact(per_pass["ops"]),
            "pass_share": exact((attempted - failed) / attempted),
        }
    else:
        traced_wall = [sum(p.adjusted(speed)) for p in passes if p.traced]
        stats = layer_metrics(summarise(tracer.spans, speed.adjust), passes, per_pass)
        overhead = statistics.median(traced_wall) - statistics.median(wall)
        stats.update({
            "trace.untraced_wall_s": summary(wall),
            "trace.traced_wall_s": summary(traced_wall),
            "trace.overhead_s": exact(overhead),
            "trace.overhead_share": exact(overhead / statistics.median(wall)),
            "fail_share": exact(failed / attempted),
        })
        for key in ROW_KEYS:
            at = next((i for i, (name, _) in enumerate(items) if name == f"row.{key}"), None)
            stats[f"row.{key}.s"] = summary([p[at] for p in plain]) if at is not None else exact(0.0)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    units = metric_units(bool(tracer))
    print("passes (raw s):", " ".join(f"{'T' if p.traced else 'U'}{sum(p.raw):.3f}" for p in passes))
    print(f"peak RSS {peak_rss_mb:.1f} MB, of which {harness_rss_mb:.1f} MB before fxlang "
          "was imported (interpreter, harness, host-speed probe)")
    print(f"host speed: reference loop median {statistics.median(speed.took) * 1000:.2f} ms "
          f"(quiet host {REFERENCE_S * 1000:.2f} ms), n={len(speed.took)}")
    for name in units:
        value, q1, q3, n = stats[name]
        print(f"{name:34s} {value:16.6f} {units[name]:14s} q1={q1:.6g} q3={q3:.6g} n={n}")
    if notes:
        print(f"{failed} of {attempted} ops failed ({known} are the documented "
              "print/re-typecheck defect); first problems:", file=sys.stderr)
        for note in notes[:10]:
            print("  " + note, file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": stats[name][0], "unit": units[name]} for name in units},
    }))
    return 0


def layer_metrics(scopes, passes, per_pass):
    """Per-layer metrics from the span summary: medians over traced passes
    of per-pass totals."""

    traced = [scopes[f"pass{i}"] for i, p in enumerate(passes) if p.traced]

    def per_scope(fn):
        return summary([fn(s) for s in traced])

    def seconds(span):
        return per_scope(lambda s: s["time"][span])

    def rate(span):
        return per_scope(lambda s: s["count"][span] / s["time"][span] if s["time"][span] else 0.0)

    stats = {
        "machine.base.run_s": seconds("machine.base"),
        "machine.base.ticks_per_s": rate("machine.base"),
        "machine.handler.run_s": seconds("machine.handler"),
        "machine.handler.ticks_per_s": rate("machine.handler"),
        "machine.ticks": exact(per_pass["ticks"]),
        "machine.envops": exact(per_pass["envops"]),
        "trees.compile_s": seconds("trees.tree_to_predicate"),
        "trees.extract_s": seconds("trees.extract_tree"),
        "trees.nodes": exact(per_pass["nodes"]),
        "trees.nodes_per_s": rate("trees.extract_tree"),
        "trees.count_s": seconds("trees.count"),
        "parser.parse_s": seconds("parser.parse_program"),
        "parser.chars_per_s": rate("parser.parse_program"),
        "typecheck.check_s": seconds("typecheck.typecheck_program"),
        "smallstep.eval_s": seconds("smallstep.evaluate"),
        "smallstep.steps": exact(per_pass["steps"]),
        "smallstep.steps_per_s": rate("smallstep.evaluate"),
        # No workload composes inside a pass: this is set-up time.
        "countlib.compose_s": exact(scopes["setup"]["time"]["countlib.compose"]),
        "syntax.complete_handlers_s": seconds("syntax.complete_handlers"),
        "trace.layer_share": per_scope(
            lambda s: sum(s["self"][layer] for layer in FXLANG_LAYERS) / s["time"]["bench.item"]),
    }
    for layer in ("bench",) + FXLANG_LAYERS:
        stats[f"{layer}.self_s"] = per_scope(lambda s, layer=layer: s["self"][layer])
    return stats


if __name__ == "__main__":
    sys.exit(main())

"""Check that the host-speed probe does not absorb a change to fxlang.

    python3 perfbench/probecheck.py --workload trees --kind mem --seconds 40

Runs a workload's passes as run.py does, with a planted slowdown switched
on and off at every host-speed sample.  The planted change wraps
`machine.interp` and `smallstep.step`, which run at every machine and
small-step transition: `--kind cpu` adds interpreter work to each call,
`--kind mem` allocates a 512-byte buffer per call and keeps the last 2^17
of them (a 64 MB working set that evicts the probe's array from cache).
Each sample follows 0.2 s of either the plain or the planted program, and
adjacent samples see the same host.  If the probe read the workload
instead of the host, samples after planted intervals would be slower, and
the adjustment would cancel that share of the slowdown.  The script
prints the median ratio (sample after planted) / (adjacent sample after
plain) with its quartiles; 1.0 means nothing is absorbed.  It also
prints the raw and adjusted planted/plain ratios of whole passes, which
switch the change per pass instead (noisier: passes are seconds apart).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import statistics
import sys
from time import perf_counter

sys.dont_write_bytecode = True
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RING = 1 << 17
BUFFER = 512


def planted(kind, orig):
    if kind == "cpu":
        def slow(*args):
            x = 0
            for _ in range(2):
                x += 1
            return orig(*args)
    else:
        ring = [None] * RING
        counter = itertools.count()

        def slow(*args):
            ring[next(counter) & (RING - 1)] = bytearray(BUFFER)
            return orig(*args)
    return slow


class Toggle:
    """Switches the planted change: per sample, or per pass."""

    def __init__(self, fx, kind):
        self.targets = [(fx.mc, "interp"), (fx.ss, "step")]
        self.plain = [getattr(o, a) for o, a in self.targets]
        self.slow = [planted(kind, f) for f in self.plain]
        self.on = False

    def set(self, on):
        self.on = on
        for (owner, attr), f in zip(self.targets, self.slow if on else self.plain):
            setattr(owner, attr, f)


def run_passes(items, speed, seconds, per_pass_toggle=None):
    passes = []
    started = perf_counter()
    while perf_counter() - started < seconds or len(passes) < 4:
        gc.collect()
        if per_pass_toggle:
            per_pass_toggle.set(len(passes) % 2 == 1)
        passes.append(run.Pass(items, speed.clock))
    if per_pass_toggle:
        per_pass_toggle.set(False)
    return passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--kind", required=True, choices=("cpu", "mem"))
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    fx = run.import_fxlang()
    items = WORKLOADS[args.workload](fx, 0, json.loads((run.HERE / "pins.json").read_text()))
    toggle = Toggle(fx, args.kind)
    gc.collect()
    gc.freeze()
    median = statistics.median

    # Per sample: the probe after planted vs after plain intervals.
    after = []

    class Switching(run.HostSpeed):
        def _sample(self, signum=None, frame=None):
            after.append(toggle.on)
            super()._sample(signum, frame)
            toggle.set(not toggle.on)

    speed = Switching()
    speed.start()
    run_passes(items, speed, args.seconds)
    speed.stop()
    toggle.set(False)
    took = speed.took
    ratios = [took[k] / took[j] for k in range(1, len(took) - 1) if after[k]
              for j in (k - 1, k + 1) if not after[j]]
    q1, q3 = run.quartiles(ratios)
    print(f"{args.workload} {args.kind}: probe after planted / after plain "
          f"{median(ratios):.3f} (q1 {q1:.3f} q3 {q3:.3f} n={len(ratios)})")

    # Per pass: raw and adjusted planted/plain ratios.
    speed = run.HostSpeed()
    speed.start()
    passes = run_passes(items, speed, args.seconds, toggle)
    speed.stop()
    for label, times in (("raw", [sum(p.raw) for p in passes]),
                         ("adjusted", [sum(p.adjusted(speed)) for p in passes])):
        plain, slow = median(times[0::2]), median(times[1::2])
        print(f"{args.workload} {args.kind}: {label} pass planted/plain "
              f"{slow / plain:.3f} ({len(passes)} passes)")
    failed = sum(o.failed - o.known for p in passes for o in p.outcomes)
    print(f"unexcused failed ops: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

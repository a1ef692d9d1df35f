"""Spans around the calls into each fxlang layer, kept in memory.

Tracing works from outside the package.  `Tracer.install` replaces the
public entry points listed in `entry_points` by wrappers that record one
span per call, and `Tracer.restore` puts the originals back, so an
untraced pass runs the unmodified functions.  Only non-recursive entry
points are wrapped (a wrapped recursive function would open a span per
node), and a function another layer calls through its own import, such
as `countlib.parse_program`, is wrapped at that binding as well, so the
parser shows up as a child of `countlib.compose`.

A span is `[name, parent, scope, item, start, end, count]`: `parent` is
the index of the enclosing span or -1, `scope` is "setup" or "pass<k>",
`item` names the unit of work all spans of one item share, and `count`
is the work the call did (characters parsed, ticks, steps, nodes).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

NAME, PARENT, SCOPE, ITEM, START, END, COUNT = range(7)


def _ticks(args, out):
    return out.ticks


def entry_points(fx):
    """(owner, attribute, span name, count) for every wrapped call site."""

    return [
        (fx.cl, "compose", "countlib.compose", None),
        (fx.cl, "build_predicate", "countlib.build_predicate", None),
        (fx.cl, "run_on_predicate", "countlib.run_on_predicate", None),
        (fx.cl, "parse_program", "parser.parse_program", lambda a, out: len(a[0])),
        (fx.parser, "parse_program", "parser.parse_program", lambda a, out: len(a[0])),
        (fx.tc, "typecheck_program", "typecheck.typecheck_program", None),
        (fx.mc, "complete_handlers", "syntax.complete_handlers", None),
        (fx.sx, "alpha_eq", "syntax.alpha_eq", None),
        (fx.tr, "tree_to_predicate", "trees.tree_to_predicate", None),
        (fx.tr, "extract_tree", "trees.extract_tree", lambda a, out: len(out.nodes)),
        (fx.tr.DecisionTree, "count_true", "trees.count", None),
        (fx.tr.DecisionTree, "brute_force_count", "trees.count", None),
        (fx.ss, "evaluate", "smallstep.evaluate", lambda a, out: out[1]),
    ]


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.scope = "setup"
        self.item = ""
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, self.scope, self.item, 0.0, 0.0, 0]
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return traced

    def install(self, fx):
        for owner, attr, name, count in entry_points(fx):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, count))
        # One entry point, two layers: the base and the handler machine.
        run = fx.mc.run_machine
        base = self.wrap("machine.base", run, _ticks)
        handler = self.wrap("machine.handler", run, _ticks)
        uses_effects = fx.sx.uses_effects

        def run_machine(term, *args, **kwargs):
            return (handler if uses_effects(term) else base)(term, *args, **kwargs)

        self._saved.append((fx.mc, "run_machine", run))
        fx.mc.run_machine = run_machine

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "scope": s[SCOPE],
                    "item": s[ITEM], "start": s[START], "end": s[END], "count": s[COUNT],
                }) + "\n")


def summarise(spans, adjust):
    """Per scope: seconds and counts per span name, and self seconds per
    layer (a span's duration minus its children's).  `adjust(start,
    seconds)` converts each measured duration to host-adjusted seconds."""

    dur = [adjust(s[START], s[END] - s[START]) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    out = defaultdict(lambda: {"time": defaultdict(float), "count": defaultdict(int),
                               "self": defaultdict(float)})
    for i, s in enumerate(spans):
        scope = out[s[SCOPE]]
        scope["time"][s[NAME]] += dur[i]
        scope["count"][s[NAME]] += s[COUNT]
        scope["self"][s[NAME].split(".")[0]] += dur[i] - child[i]
    return out

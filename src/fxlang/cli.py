"""The `fx` command line tool.

Subcommands: check, run, tree, count, bench, list, selftest.  Exit codes
for `run`: 0 on a value, 1 on parse/type errors, 2 on an unhandled
operation, 3 on fuel exhaustion.  `--fuel N` allows at most N
transitions (or reductions), and N must be at least 1.  `main` is the
one error boundary: bad input in any subcommand, a program or a result
nested too deeply for Python's stack included, becomes a one-line
message and exit 1, and a run out of fuel a one-line message and exit 3.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from fxlang import bench as bn
from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import smallstep as ss
from fxlang import trees as tr
from fxlang.errors import FuelExhausted
from fxlang.parser import ParseError, parse_program
from fxlang.pprint import render_mval, to_source
from fxlang.typecheck import TypeCheckError, typecheck_program


def _load(path: str):
    """Parse and typecheck a program file: (signature, term, type)."""

    with open(path, "r", encoding="utf-8") as fh:
        src = fh.read()
    sig, term = parse_program(src)
    return sig, term, typecheck_program(sig, term)


def cmd_check(args) -> int:
    _, _, ty = _load(args.file)
    print(f"{args.file}: ok, type {ty}")
    return 0


def cmd_run(args) -> int:
    sig, term, _ = _load(args.file)
    if args.semantics == "smallstep":
        run = ss.reductions(term, sig, args.fuel)
        try:
            while True:
                cfg = next(run)
                if args.trace:
                    print(to_source(cfg.term))
        except StopIteration as stop:
            out, steps, _ = stop.value
        if isinstance(out, ss.NormalOp):
            print(f"unhandled operation {out.op}", file=sys.stderr)
            print(f"reductions: {steps}")
            return 2
        print(to_source(out.value))
        print(f"reductions: {steps}")
        return 0
    try:
        if args.trace:
            run = mc.trace_run(term, sig, fuel=args.fuel)
            while True:
                tick, rule, head, depth = next(run)
                print(f"tick={tick} rule={rule} comp={head} depth(k)={depth}")
        res = mc.run_machine(term, sig, fuel=args.fuel)
        outcome = res.outcome
    except StopIteration as stop:  # the end of a trace
        outcome = stop.value
    unhandled = isinstance(outcome, mc.FinalUnhandledOp)
    if unhandled:
        print(f"unhandled operation {outcome.op}", file=sys.stderr)
    if not args.trace:  # a trace's stdout is its transition lines only
        if not unhandled:
            print(render_mval(outcome.value))
        print(f"ticks: {res.ticks}  envOps: {res.envops}")
    return 2 if unhandled else 0


def cmd_tree(args) -> int:
    if args.depth is not None and args.depth < 0:
        raise ValueError(f"--depth must be at least 0, not {args.depth}")
    pred, bits = cl.build_predicate(bn.resolve_pred(args.pred, args.variant), args.n)
    depth = args.depth if args.depth is not None else 2 * bits + 2
    tree = tr.extract_tree(pred, fuel=args.fuel, depth_bound=depth)
    if args.format == "dot":
        print(tree.to_dot(timed=args.timed))
    else:
        print(tree.to_text(timed=args.timed))
    if tree.is_partial():
        print("warning: tree is partial (see unexplored lines)", file=sys.stderr)
    kind, reason = tree.classify_detail(bits)
    if kind is tr.Classification.N_STANDARD:
        print(f"classification: {bits}-standard")
    elif kind is tr.Classification.N_PREDICATE:
        print(f"classification: {bits}-predicate, not n-standard ({reason})")
    else:
        print(f"classification: neither ({reason})")
    return 0


def cmd_count(args) -> int:
    rep = cl.run_report(args.impl, bn.resolve_pred(args.pred, args.variant),
                        args.n, fuel=args.fuel)
    print(f"{rep.impl} x {rep.pred} @ n={rep.n}: {rep.result}")
    print(f"ticks: {rep.ticks}  envOps: {rep.envops}")
    return 0


def cmd_bench(args) -> int:
    given = {f.name: v for f in fields(bn.BenchSpec) if (v := getattr(args, f.name)) is not None}
    text = ""
    if args.spec:
        # The file's text, its own settings and the programs its lists name
        # are checked first, and only their error names the file.  A list
        # given as a flag stands in for the file's, which may leave it to
        # the flags.
        lists = {k: given[k] for k in ("impls", "preds") if k in given}
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
            own = bn.parse_spec_file(text, **lists)
            bn.resolve_programs([] if "impls" in lists else own.impls,
                                [] if "preds" in lists else own.preds)
        except ValueError as exc:
            raise ValueError(f"{args.spec}: {exc}") from None
    elif not args.impls or not args.preds:
        print("bench needs --spec FILE or both --impls and --preds", file=sys.stderr)
        return 1
    spec = bn.parse_spec_file(text, **given)
    if not spec.out:
        sys.stdout.write(bn.grid_csv(bn.run_grid(spec)))
        return 0
    # Opened after the grid's programs are found and before the grid runs,
    # so a bad name makes no file and a bad path fails at once; opened for
    # appending, so a grid that fails leaves an old file as it was.
    bn.resolve_programs(spec.impls, spec.preds)
    with open(spec.out, "a", encoding="utf-8") as fh:
        rows = bn.run_grid(spec)
        fh.truncate(0)
        fh.write(bn.grid_csv(rows))
    print(f"wrote {len(rows)} rows to {spec.out}")
    return 0


def cmd_list(args) -> int:
    rows = sorted(cl.catalog().items())
    print(f"{'name':16} {'kind':10} {'level':12} {'class':14} summary")
    for name, d in rows:
        klass = d.input_class or d.accepts or "-"
        print(f"{name:16} {d.kind:10} {d.level:12} {klass:14} {d.summary}")
    return 0


def cmd_selftest(args) -> int:
    from fxlang.acceptance import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed "
          f"in {total:.1f}s")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fx",
        description="interpreter workbench: run programs, extract decision "
                    "trees, and measure counting algorithms in machine steps",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="parse and typecheck a program file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate a program file")
    p.add_argument("file")
    p.add_argument("--semantics", choices=("machine", "smallstep"), default="machine")
    p.add_argument("--fuel", type=int, default=mc.DEFAULT_FUEL)
    p.add_argument("--trace", action="store_true", help="print one line per transition")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("tree", help="extract and print a predicate's decision tree")
    p.add_argument("--pred", required=True)
    p.add_argument("--variant", default="")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--timed", action="store_true", help="include per-edge step counts")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--fuel", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("count", help="run one counter on one predicate")
    p.add_argument("--impl", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--variant", default="")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--fuel", type=int, default=mc.DEFAULT_FUEL)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bench", help="run a counter x predicate grid, emit CSV")
    p.add_argument("--spec", help="flat key=value spec file; a flag replaces its key")
    p.add_argument("--impls", help="comma-separated counter names")
    p.add_argument("--preds", help="comma-separated predicates (name[:variant])")
    p.add_argument("--nmin", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--fuel", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("list", help="print the program catalog")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)

    args = ap.parse_args(argv)
    try:
        fuel = getattr(args, "fuel", None)  # `fx bench` without --fuel: None
        if fuel is not None and fuel < 1:
            raise ValueError(f"--fuel must be at least 1, not {fuel}")
        return args.fn(args)
    except FuelExhausted as exc:
        unit = "reductions" if getattr(args, "semantics", "") == "smallstep" else "transitions"
        print(f"fuel exhausted after {exc.steps} {unit}", file=sys.stderr)
        return 3
    except OSError as exc:
        msg = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    except (ParseError, TypeCheckError, cl.LintError, ValueError, RecursionError) as exc:
        # The parser, the type checker, the printers and `interp` recurse
        # once per nesting level of a program or of its result.
        what = "nesting too deep" if exc.__class__ is RecursionError else exc
        where = getattr(args, "file", None)
        msg = f"{where}: {what}" if where else str(what)
    print(msg, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

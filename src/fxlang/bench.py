"""Benchmark grids: counters crossed with predicates, metered in machine
transitions.

Ticks are semantic, so the emitted CSV is byte-identical across runs and
machines; wall-clock time never appears in it.  Rows whose counter does
not accept the predicate's class are marked SKIPPED rather than run.

A `BenchSpec` is the one description of a grid: its fields are the spec
file's keys and the `fx bench` flags, its defaults are the only grid
defaults, and it checks its settings when it is built.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Optional

from fxlang import countlib as cl
from fxlang.errors import FuelExhausted
from fxlang.machine import DEFAULT_FUEL

# Size caps keeping the default grid within desk-scale budgets.  A
# handler-level counter counts in O(2^n) transitions and every other one
# needs Omega(n 2^n), so a counter's cap follows from its catalog level
# (see `_cap_for`).  The fail-fast queens predicate prunes, so n = 5
# stays cheap; the eager variant always walks all 2^(n*n) board-reading
# paths and has to stop earlier.
PRED_CAPS = {"queens": 5, "queens_eager": 4}

CSV_HEADER = "impl,pred,variant,n,count,ticks,envOps,ticks_per_2n,ticks_per_n2n"


@dataclass(slots=True)
class BenchSpec:
    impls: list[str]
    preds: list[tuple[str, str]]  # (name, variant); variant '' for plain
    nmin: int = 2
    nmax: int = 8
    fuel: int = DEFAULT_FUEL
    reps: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        if self.fuel < 1:
            raise ValueError(f"fuel must be at least 1, not {self.fuel}")
        if self.nmin < 0:
            raise ValueError(f"nmin must be at least 0, not {self.nmin}")
        if self.nmax < self.nmin:
            raise ValueError(f"nmax must be at least nmin ({self.nmin}), not {self.nmax}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, not {self.reps}")


def resolve_pred(name: str, variant: str) -> str:
    """The catalog name of predicate ``name`` in ``variant``."""

    if variant in ("", "default"):
        return name
    if name == "queens" and variant == "failfast":
        return "queens"
    combined = f"{name}_{variant}"
    if combined not in cl.catalog():
        cl.get(name)  # an unknown predicate is reported as such
        raise ValueError(f"unknown variant {variant!r} of predicate {name!r}; "
                         "see `fx list` for the catalog")
    return combined


def resolve_programs(impls: list[str], preds: list[tuple[str, str]]) -> tuple[list, list]:
    """The catalog entries of a grid's counters and of its predicates,
    each checked for its kind, in the order given."""

    return ([cl.get(name, "counter", "searcher") for name in impls],
            [cl.get(resolve_pred(name, variant), "predicate") for name, variant in preds])


def parse_lists(impls: str, preds: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The comma lists of counters and of predicates (name[:variant]) in
    a spec or on the command line.  Empty entries are dropped."""

    def entries(text: str) -> list[str]:
        return [e.strip() for e in text.split(",") if e.strip()]

    impl_list, pred_list = entries(impls), []
    for entry in entries(preds):
        name, _, variant = entry.partition(":")
        pred_list.append((name, variant))
    if not impl_list or not pred_list:
        raise ValueError("`impls` and `preds` each need at least one name")
    return impl_list, pred_list


def parse_spec_file(text: str = "", **given) -> BenchSpec:
    """The `BenchSpec` that spec file ``text`` and the settings ``given``
    describe.  A setting given replaces the file's key of the same name.

    The file is flat key = value, and '#' starts a comment.  The keys are
    `BenchSpec`'s fields: impls, preds (comma lists; a pred may be
    name:variant), nmin, nmax, fuel, reps, out.  Any other key, a key
    given twice or an integer field whose value is not an integer is an
    error.
    """

    types = {f.name: f.type for f in fields(BenchSpec)}
    kv: dict[str, str | int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        k, v = map(str.strip, line.split("=", 1))
        if k not in types:
            raise ValueError(f"line {lineno}: unknown key {k!r}")
        if k in kv:
            raise ValueError(f"line {lineno}: duplicate key {k!r}")
        v = v.strip('"')
        if types[k] == "int":
            try:
                v = int(v)
            except ValueError:
                raise ValueError(f"line {lineno}: {k} must be an integer, not {v!r}") from None
        kv[k] = v
    kv.update(given)
    if "impls" not in kv or "preds" not in kv:
        raise ValueError("spec needs both `impls` and `preds`")
    kv["impls"], kv["preds"] = parse_lists(kv["impls"], kv["preds"])
    return BenchSpec(**kv)


@dataclass(slots=True)
class GridRow:
    impl: str
    pred: str
    variant: str
    n: int
    status: str  # 'ok' | 'skipped:<reason>' | 'fuel'
    count: Optional[int] = None
    ticks: Optional[int] = None
    envops: Optional[int] = None
    bits: int = 0

    def csv(self) -> str:
        if self.status != "ok":
            return (
                f"{self.impl},{self.pred},{self.variant or '-'},{self.n},"
                f"{self.status.upper()},,,,"
            )
        denom = 2 ** self.bits
        per_2n = self.ticks / denom
        per_n2n = self.ticks / (self.bits * denom) if self.bits else float("inf")
        return (
            f"{self.impl},{self.pred},{self.variant or '-'},{self.n},"
            f"{self.count},{self.ticks},{self.envops},{per_2n:.6f},{per_n2n:.6f}"
        )


def _cap_for(impl: cl.ProgramDescriptor, pred: str) -> int:
    cap = 14 if impl.level == "handler" else 12
    if pred in PRED_CAPS:
        cap = min(cap, PRED_CAPS[pred])
    return cap


def run_grid(spec: BenchSpec) -> list[GridRow]:
    impls, preds = resolve_programs(spec.impls, spec.preds)
    rows: list[GridRow] = []
    for impl in impls:
        impl_name = impl.name
        for (pred_name, variant), pred in zip(spec.preds, preds):
            cap = _cap_for(impl, pred.name)
            for n in range(spec.nmin, spec.nmax + 1):
                pred_class = pred.class_at(n)
                if n > cap:
                    skip = "over size cap"
                elif n < pred.min_n:
                    skip = f"below arity {pred.min_n}"
                elif pred_class and impl.accepts and not cl.class_within(
                    pred_class, impl.accepts
                ):
                    skip = f"{pred_class} outside {impl.accepts}"
                else:
                    skip = None
                if skip:
                    rows.append(GridRow(impl_name, pred_name, variant, n, f"skipped:{skip}"))
                    continue
                try:
                    rep = cl.run_report(impl_name, pred.name, n, spec.fuel)
                except FuelExhausted:
                    rows.append(GridRow(impl_name, pred_name, variant, n, "fuel"))
                    continue
                for _ in range(spec.reps - 1):
                    again = cl.run_report(impl_name, pred.name, n, spec.fuel)
                    if again.ticks != rep.ticks:
                        raise RuntimeError(
                            f"nondeterministic tick count for {impl_name} x "
                            f"{pred.name} @ n={n}: {rep.ticks} then {again.ticks}"
                        )
                rows.append(
                    GridRow(
                        impl_name, pred_name, variant, n, "ok",
                        rep.result, rep.ticks, rep.envops, pred.bits(n),
                    )
                )
    rows.sort(key=lambda r: (r.impl, r.pred, r.variant, r.n))
    return rows


def grid_csv(rows: list[GridRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.csv() + "\n")
    return buf.getvalue()

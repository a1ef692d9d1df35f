"""The acceptance suite: the checks that define done.

Each criterion is a function returning (passed, detail).  They share an
`AcceptanceContext` so expensive rows (the naive counter at n = 12, the
16-bit queens enumeration) are computed once.  `fx selftest` runs them
all and prints one line per criterion; the pytest acceptance module
asserts each one.

All thresholds are exact or fixed here; nothing is calibrated at run
time.  Randomised corpora use fixed seeds, so the suite is fully
deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Callable, Optional

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import trees as tr
from fxlang.decompile import decompile, reify
from fxlang.errors import FuelExhausted
from fxlang.gen import random_program
from fxlang.smallstep import NormalValue, StateConfig, evaluate
from fxlang.smallstep import step as small_step
from fxlang.syntax import (
    App,
    Const,
    Handle,
    Lam,
    Quote,
    Return,
    Term,
    Var,
    alpha_eq,
    language_level,
    rewrite,
)
from fxlang.typecheck import typecheck_program


def queens_solutions(n: int) -> int:
    """Host-level backtracking oracle for the number of complete n-queens
    placements."""

    count = 0

    def place(row: int, cols: set, diag1: set, diag2: set):
        nonlocal count
        if row == n:
            count += 1
            return
        for col in range(n):
            if col in cols or (row - col) in diag1 or (row + col) in diag2:
                continue
            place(row + 1, cols | {col}, diag1 | {row - col}, diag2 | {row + col})

    place(0, set(), set(), set())
    return count


def memoise_to_identity(term: Term) -> Term:
    """Replace every occurrence of the memoise primitive by the identity
    function; observational equivalence means all results survive."""

    k = 0

    def identity(c: Const) -> Term:
        nonlocal k
        if c.name != "memoise":
            return c
        k += 1
        x = f"idm{k}"
        return Lam(x, Return(Var(x)))

    return rewrite(term, Const, identity)


class AcceptanceContext:
    """Shared caches across criteria."""

    def __init__(self):
        self.reports: dict[tuple[str, str, Optional[int]], cl.StepReport] = {}
        self._standard_corpus = None

    def report(self, impl: str, pred: str, n: Optional[int]) -> cl.StepReport:
        key = (impl, pred, n)
        if key not in self.reports:
            self.reports[key] = cl.run_report(impl, pred, n)
        return self.reports[key]

    def standard_corpus(self):
        """200 random n-standard predicates, 25 per n in 1..8, each as
        (n, tree, predicate term, expected count)."""

        if self._standard_corpus is None:
            rng = Random(20240 + 8)
            corpus = []
            for n in range(1, 9):
                for _ in range(25):
                    tree = tr.random_standard_tree(rng, n)
                    pred = tr.tree_to_predicate(tree)
                    corpus.append((n, tree, pred, tree.brute_force_count(n)))
            self._standard_corpus = corpus
        return self._standard_corpus


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------


def crit_effcount_correct(ctx: AcceptanceContext):
    """effcount equals the brute-force point count on 200 random
    n-standard predicates (n in 1..8) and on the parity family up to
    n = 10, within a minute."""

    started = time.monotonic()
    checked = 0
    for n, tree, pred, expected in ctx.standard_corpus():
        rep = cl.run_on_predicate("effcount", pred, n)
        if rep.result != expected:
            return False, f"random {n}-standard predicate: {rep.result} != {expected}"
        checked += 1
    for n in range(1, 11):
        rep = ctx.report("effcount", "odd", n)
        if rep.result != 2 ** (n - 1):
            return False, f"odd n={n}: {rep.result} != {2 ** (n - 1)}"
        checked += 1
    took = time.monotonic() - started
    if took >= 60.0:
        return False, f"{checked} predicates but took {took:.1f}s (budget 60s)"
    return True, f"{checked} predicates exact ({took:.1f}s)"


def crit_step_formula(ctx: AcceptanceContext):
    """Machine transitions of an effcount run equal the per-edge tree
    steps plus 11*2^n - 6, exactly, for every corpus predicate with
    n <= 8."""

    checked = 0
    for n, tree, pred, _ in ctx.standard_corpus():
        rep = cl.run_on_predicate("effcount", pred, n)
        timed = tr.extract_tree(pred)
        want = timed.total_steps() + 11 * 2 ** n - 6
        if rep.ticks != want:
            return False, f"random {n}-standard: ticks {rep.ticks} != {want}"
        checked += 1
    for n in range(1, 9):
        rep = ctx.report("effcount", "odd", n)
        pred, _ = cl.build_predicate("odd", n)
        timed = tr.extract_tree(pred)
        want = timed.total_steps() + 11 * 2 ** n - 6
        if rep.ticks != want:
            return False, f"odd n={n}: ticks {rep.ticks} != {want}"
        checked += 1
    return True, f"{checked} runs match the closed form exactly"


def crit_lower_bound(ctx: AcceptanceContext):
    """The naive counter takes at least n * 2^n transitions on the parity
    predicate for every n in 2..12."""

    for n in range(2, 13):
        rep = ctx.report("naivecount", "odd", n)
        floor = n * 2 ** n
        if rep.ticks < floor:
            return False, f"n={n}: {rep.ticks} < {floor}"
    return True, "ticks >= n*2^n for n in 2..12"


def crit_gap(ctx: AcceptanceContext):
    """The naive/effectful tick ratio grows strictly on the parity family
    and stays above n/C for a fixed C <= 32."""

    ratios = []
    for n in range(4, 13):
        naive = ctx.report("naivecount", "odd", n).ticks
        eff = ctx.report("effcount", "odd", n).ticks
        ratios.append((n, naive / eff))
    for (n1, r1), (n2, r2) in zip(ratios, ratios[1:]):
        if not r2 > r1:
            return False, f"ratio not increasing at n={n2}: {r1:.2f} -> {r2:.2f}"
    C = 32
    for n, r in ratios:
        if not r > n / C:
            return False, f"n={n}: ratio {r:.2f} <= {n}/{C}"
    worst = max(n / r for n, r in ratios)
    return True, (
        f"ratio {ratios[0][1]:.1f} -> {ratios[-1][1]:.1f} over n=4..12, "
        f"strictly increasing; measured C = {worst:.2f} <= 32"
    )


_SIM_ADMIN = ("M-Let", "M-Handle", "M-Memo-Record")


def lemma_shape(term, sig, cap=400) -> Optional[str]:
    """Decompilation is invariant under administrative transitions and
    tracks one reduction per beta transition.  M-Memo-Hit returns a
    recorded value that small-step computes again, so it tracks the
    reductions that reach its decompiled state.

    Returns None when the shape holds for the first ``cap`` transitions
    and reductions, else a description of the first violation.
    """

    st = mc.inject(term, sig)
    cur = decompile(st)
    want = Handle(st.comp, mc.ID_HANDLER) if st.kont is mc.ID_CONT else st.comp
    if not alpha_eq(cur, want):
        return "initial configuration does not decompile to the term"
    scfg = StateConfig(cur)
    left = cap
    while left > 0:
        left -= 1
        rule, nxt = mc.step(st)
        if rule == "final":
            return None
        dec = decompile(nxt)
        if rule in _SIM_ADMIN:
            if not alpha_eq(dec, cur):
                return f"administrative {rule} changed the term"
        else:
            out = small_step(scfg)
            if rule == "M-Memo-Hit":
                while left > 0 and isinstance(out, StateConfig) and not alpha_eq(out.term, dec):
                    left -= 1
                    out = small_step(out)
            if not isinstance(out, StateConfig):
                return f"{rule} fired on a normal form"
            if not alpha_eq(out.term, dec):
                if rule == "M-Memo-Hit":
                    return "M-Memo-Hit is not matched within the cap"
                return f"{rule} is not one reduction"
            scfg = StateConfig(dec, out.store, out.resume_counter)
        cur, st = dec, nxt
    return None


def agreement(term, sig, fuel: tuple[int, int]) -> tuple[str, Optional[str]]:
    """Run a program on both semantics: its outcome kind ('value', 'op'
    or 'fuel') and the first disagreement, or None.

    ``fuel`` is (reductions, transitions).  The runs must end alike:
    alpha-equal values, the same unhandled operation, or both out of
    fuel.  A memo-free run never takes fewer ticks than reductions, so
    there the machine must take at least as many, and a program that
    small-step cannot finish must exhaust the machine at the same fuel.
    Memoise lets the machine skip work that small-step does again.
    """

    ss_fuel, machine_fuel = fuel
    memo_free = "memo" not in language_level(term)
    try:
        normal, steps, _ = evaluate(term, sig, fuel=ss_fuel)
        s_kind = "value" if isinstance(normal, NormalValue) else "op"
    except FuelExhausted:
        if not memo_free:
            return "fuel", None
        s_kind, machine_fuel = "fuel", ss_fuel
    try:
        res = mc.run_machine(term, sig, fuel=machine_fuel)
        m_kind = "value" if isinstance(res.outcome, mc.FinalValue) else "op"
    except FuelExhausted:
        m_kind = "fuel"
    if m_kind != s_kind:
        return s_kind, f"machine {m_kind} vs small-step {s_kind}"
    if s_kind == "fuel":
        return s_kind, None
    if s_kind == "value" and not alpha_eq(reify(res.outcome.value), normal.value):
        return s_kind, "values differ"
    if s_kind == "op" and res.outcome.op != normal.op:
        return s_kind, "unhandled op differs"
    if memo_free and res.ticks < steps:
        return s_kind, f"ticks {res.ticks} < reductions {steps}"
    return s_kind, None


def crit_simulation(ctx: AcceptanceContext):
    """Machine results equal small-step normal forms on a 500-program
    random corpus and the library programs at small sizes; decompilation
    has the administrative/beta shape."""

    kinds = {"value": 0, "op": 0, "fuel": 0}
    for seed in range(500):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)
        typecheck_program(sig, term)
        kind, problem = agreement(term, sig, (30_000, 600_000))
        if problem:
            return False, f"seed {seed}: {problem}"
        kinds[kind] += 1

    # Library programs through both semantics at small sizes; each must
    # end in a value.
    pairs = [
        ("effcount", "odd", 2), ("effcount", "T0", 0), ("effcount", "T1", 2),
        ("effcount_rep", "I2", 1), ("effcount_rep", "T2", 2),
        ("effcount_miss", "I0", 2), ("effcount_miss", "queens", 2),
        ("naivecount", "odd", 2), ("naivecount", "I1", 1),
        ("lazycount", "constfalse", 3), ("lazycount", "odd", 2),
        ("bergercount", "odd", 2), ("bergercount", "I0", 2),
        ("effsearch", "odd", 2), ("effsearch_cons", "odd", 2),
    ]
    library = [(f"{impl}x{pred}@{n}", cl.compose(impl, pred, n)[:2]) for impl, pred, n in pairs]
    library.append(("toss", cl.get("toss").build(None)))
    for label, (term, sig) in library:
        kind, problem = agreement(term, sig, (3_000_000, mc.DEFAULT_FUEL))
        if problem or kind != "value":
            return False, f"{label}: {problem or f'ends in {kind}, not a value'}"

    # Decompilation shape on a slice of the corpus plus a real handler run.
    for seed in range(60):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=False)
        problem = lemma_shape(term, sig)
        if problem:
            return False, f"seed {seed}: {problem}"
    term, sig, _ = cl.compose("effcount", "odd", 2)
    problem = lemma_shape(term, sig, cap=800)
    if problem:
        return False, f"effcountxodd@2: {problem}"
    return True, (
        f"corpus: {kinds['value']} values + {kinds['op']} unhandled ops + "
        f"{kinds['fuel']} fuel-bounded; "
        "library programs agree; decompilation shape holds"
    )


def crit_tree_fidelity(ctx: AcceptanceContext):
    """Walking the extracted tree agrees with direct machine evaluation
    on every point, for every library predicate with at most 8 bits."""

    cases = [("T0", 2), ("T1", 2), ("T2", 2), ("I0", 1), ("I1", 1), ("I2", 1),
             ("constfalse", 3), ("queens", 2), ("queens_eager", 2)]
    cases += [("odd", n) for n in range(1, 9)]
    checked = 0
    for name, n in cases:
        pred, bits = cl.build_predicate(name, n)
        if bits > 8:
            continue
        tree = tr.extract_tree(pred, fuel=10_000_000)
        for pt in product((False, True), repeat=bits):
            want = tree.eval_point(pt)
            point = cl.point_term(list(pt))
            res = mc.run_machine(App(pred, cl.as_value(point)), {})
            got = mc.mval_to_bool(res.value)
            if got != want:
                return False, f"{name}@{n} point {pt}: tree {want} vs direct {got}"
            checked += 1
    return True, f"{checked} point evaluations agree"


def crit_leaf_flip(ctx: AcceptanceContext):
    """Negating one answer leaf changes every counter's and searcher's
    result by exactly one, for 100 random tree/leaf pairs."""

    impls = [name for name, desc in cl.catalog().items()
             if desc.kind in ("counter", "searcher")]
    rng = Random(6001)
    for trial in range(100):
        n = rng.choice((2, 2, 3, 3, 4, 4, 5))
        tree = tr.random_standard_tree(rng, n)
        leaves = tree.leaves()
        leaf = leaves[rng.randrange(len(leaves))]
        flipped = tree.flip_leaf(leaf)
        if tree.flip_leaf(leaf).flip_leaf(leaf).labels() != tree.labels():
            return False, "flip is not an involution"
        p1 = tr.tree_to_predicate(tree)
        p2 = tr.tree_to_predicate(flipped)
        for impl in impls:
            r1 = cl.run_on_predicate(impl, p1, n).result
            r2 = cl.run_on_predicate(impl, p2, n).result
            if abs(r1 - r2) != 1:
                return False, f"trial {trial} {impl} n={n}: |{r1} - {r2}| != 1"
    return True, f"100 flips, {len(impls)} counters each, all differ by exactly 1"


def crit_variant_counters(ctx: AcceptanceContext):
    """The map-threading counter handles repeated queries and the
    depth-scaling counter handles missing ones, exactly."""

    # Repeated queries, embedded at n = 2 (brute force over 4 points).
    for pred, n, want in (("I2", 2, 2), ("T1", 2, 4), ("T2", 2, 4), ("I2", 1, 1)):
        got = ctx.report("effcount_rep", pred, n).result
        if got != want:
            return False, f"effcount_rep {pred}@{n}: {got} != {want}"
    # Missing queries.
    for n in range(1, 5):
        got = ctx.report("effcount_miss", "T0", n).result
        if got != 2 ** n:
            return False, f"effcount_miss T0@{n}: {got} != {2 ** n}"
        got = ctx.report("effcount_miss", "I0", n).result
        if got != 2 ** (n - 1):
            return False, f"effcount_miss I0@{n}: {got} != {2 ** (n - 1)}"
    for n in range(1, 5):
        want = queens_solutions(n)
        got = ctx.report("effcount_miss", "queens", n).result
        if got != want:
            return False, f"effcount_miss queens@{n}: {got} != {want}"
    return True, "repeated-query and missing-query counters exact"


def crit_search(ctx: AcceptanceContext):
    """Search results cohere with counts: same cardinality, every
    returned point satisfies the predicate, difference lists no slower
    than cons appends, and queens solution counts match the host oracle."""

    rng = Random(7002)
    for trial in range(20):
        n = rng.randrange(2, 7)
        tree = tr.random_standard_tree(rng, n)
        pred = tr.tree_to_predicate(tree)
        count = cl.run_on_predicate("effcount", pred, n).result
        length = cl.run_on_predicate("effsearch", pred, n).result
        if count != length or count != tree.brute_force_count(n):
            return False, f"trial {trial}: search length {length} vs count {count}"

    def points_satisfy(pred_name: str, n: int) -> Optional[str]:
        term, sig, _ = cl.compose("effsearch", pred_name, n)
        res = mc.run_machine(term, sig)
        pred_term, _ = cl.build_predicate(pred_name, n)
        for pv in mc.mval_list(res.value):
            check = App(cl.as_value(pred_term), Quote(pv))
            out = mc.run_machine(check, {})
            if not mc.mval_to_bool(out.value):
                return f"{pred_name}@{n}: returned point rejected"
        return None

    for pred_name, n in (("odd", 4), ("odd", 5), ("queens", 4)):
        err = points_satisfy(pred_name, n)
        if err:
            return False, err

    for n in range(4, 9):
        hughes = ctx.report("effsearch", "odd", n).ticks
        cons = ctx.report("effsearch_cons", "odd", n).ticks
        if hughes > cons:
            return False, f"odd n={n}: difference-list {hughes} > cons {cons}"

    for n, want in ((4, 2), (5, 10)):
        if queens_solutions(n) != want:
            return False, f"host oracle broken at n={n}"
        got = ctx.report("effcount_miss", "queens", n).result
        if got != want:
            return False, f"queens count n={n}: {got} != {want}"
    got = ctx.report("effsearch", "queens", 4).result
    if got != 2:
        return False, f"effsearch queens@4 length {got} != 2"
    return True, "search/count coherent; queens n=4 -> 2, n=5 -> 10"


def crit_lazy_berger(ctx: AcceptanceContext):
    """The deferred-choice counter is O(1) on the empty predicate; the
    memoising counter is exact everywhere it claims, beats naive
    enumeration on fail-fast queens, and survives replacing memoise by
    the identity."""

    ticks = [ctx.report("lazycount", "constfalse", n).ticks for n in range(2, 13)]
    if len(set(ticks)) != 1:
        return False, f"lazycount ticks vary with n: {ticks}"

    rng = Random(9003)
    corpus: list[tuple[str, Optional[int], int]] = [
        ("odd", n, 2 ** (n - 1)) for n in range(1, 9)
    ]
    corpus += [("I0", 3, 4), ("T0", 3, 8), ("T2", 2, 4), ("I2", 2, 2),
               ("constfalse", 4, 0)]
    corpus += [("queens", n, queens_solutions(n)) for n in range(1, 5)]
    for pred, n, want in corpus:
        got = ctx.report("bergercount", pred, n).result
        if got != want:
            return False, f"bergercount {pred}@{n}: {got} != {want}"
    for trial in range(10):
        n = rng.randrange(2, 6)
        tree = tr.random_standard_tree(rng, n)
        pred = tr.tree_to_predicate(tree)
        got = cl.run_on_predicate("bergercount", pred, n).result
        if got != tree.brute_force_count(n):
            return False, f"bergercount random {n}-standard wrong"

    naive_q4 = ctx.report("naivecount", "queens", 4).ticks
    berger_q4 = ctx.report("bergercount", "queens", 4).ticks
    if not berger_q4 < naive_q4:
        return False, f"berger {berger_q4} not below naive {naive_q4} on queens@4"

    # memoise -> identity preserves every result (and never speeds it up).
    ident_cases = [("odd", n) for n in range(1, 6)]
    ident_cases += [("I0", 3), ("T0", 3), ("queens", 2), ("queens", 3)]
    for pred_name, n in ident_cases:
        term, sig, bits = cl.compose("bergercount", pred_name, n)
        base = ctx.report("bergercount", pred_name, n)
        ident = mc.run_machine(memoise_to_identity(term), sig, fuel=10 ** 9)
        if ident.value != base.result:
            return False, f"identity variant differs on {pred_name}@{n}"
        if ident.ticks < base.ticks:
            return False, f"identity variant faster on {pred_name}@{n}?"
    return True, (
        f"lazycount constant at {ticks[0]} ticks; berger exact, "
        f"{naive_q4 // berger_q4}x below naive on queens@4; identity variant agrees"
    )


@dataclass(slots=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA: list[tuple[str, Callable]] = [
    ("effcount counts exactly", crit_effcount_correct),
    ("exact step formula", crit_step_formula),
    ("naive lower bound n*2^n", crit_lower_bound),
    ("asymptotic gap grows", crit_gap),
    ("machine simulates small-step", crit_simulation),
    ("decision-tree fidelity", crit_tree_fidelity),
    ("leaf-flip sensitivity", crit_leaf_flip),
    ("variant counters exact", crit_variant_counters),
    ("search/count coherence", crit_search),
    ("lazy and memoised counters", crit_lazy_berger),
]


def run_all() -> list[CheckResult]:
    ctx = AcceptanceContext()
    results = []
    for i, (name, fn) in enumerate(CRITERIA, 1):
        started = time.monotonic()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        took = time.monotonic() - started
        results.append(CheckResult(i, name, passed, detail, took))
        mark = "PASS" if passed else "FAIL"
        print(f"[{mark}] criterion {i:2}: {name} ({took:.1f}s) - {detail}")
    return results

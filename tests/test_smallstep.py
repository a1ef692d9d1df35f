from itertools import islice

import pytest

from fxlang import countlib as cl
from fxlang.errors import FuelExhausted
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
from fxlang.pprint import to_source
from fxlang.smallstep import (
    NormalOp,
    NormalValue,
    StateConfig,
    evaluate,
    reductions,
    step,
    subst,
)
from fxlang.syntax import (
    BOOL,
    Cons,
    Lam,
    Let,
    Nil,
    Num,
    Pair,
    Return,
    UNIT,
    UNIT_V,
    Var,
    alpha_eq,
    children,
    complete_handlers,
    free_vars,
    map_children,
    subterms,
)
from fxlang.typecheck import typecheck_program
from termeq import same

BRANCH_SIG = {"Branch": (UNIT, BOOL)}


def test_beta():
    t = parse_term("(fun (x : Unit) -> return x) ()")
    out = step(StateConfig(t))
    assert isinstance(out, StateConfig)
    assert to_source(out.term) == "return ()"


def test_handler_val_clause():
    sig, t = parse_program("""
operation Branch : Unit -> Bool
handle return true with {
  val x -> if x then return 1 else return 0;
  Branch () r -> let a <- r true in let b <- r false in a + b
}
""")
    out = step(StateConfig(t), sig)
    # one S-RET step lands in the val clause body with x := true
    assert alpha_eq(out.term, parse_term("if true then return 1 else return 0"))


def test_letref_update_and_final_store():
    t = parse_term("letref x = 0 in (x := 1); !x")
    out, steps, cfg = evaluate(t)
    assert isinstance(out, NormalValue)
    assert out.value.value == 1
    assert set(cfg.store) == {0}
    assert isinstance(cfg.store[0], Num) and cfg.store[0].value == 1
    assert len(cfg.store) == 1


def test_toss_enumerates_both_outcomes():
    term, sig = cl.get("toss").build(None)
    out, steps, _ = evaluate(term, sig)
    assert isinstance(out, NormalValue)
    # [Heads, Tails] under the boolean encoding
    assert to_source(out.value) == "true :: false :: []"
    assert steps > 0


def test_divergence_exhausts_fuel():
    t = parse_term("(rec (f : Unit -> Bool) i -> f i) ()")
    with pytest.raises(FuelExhausted):
        evaluate(t, fuel=10_000)


def test_unhandled_operation_is_normal():
    t = parse_term("let x <- do Branch () in return x", BRANCH_SIG)
    out, steps, _ = evaluate(t, BRANCH_SIG)
    assert isinstance(out, NormalOp)
    assert out.op == "Branch"
    assert steps == 0  # already normal: E[do Branch ()]


def test_innermost_handler_wins():
    src = """
operation Branch : Unit -> Bool
handle (handle do Branch () with {val x -> return x; Branch () r -> r true})
with {val x -> return x; Branch () r -> r false}
"""
    sig, t = parse_program(src)
    out, _, _ = evaluate(t, sig)
    assert to_source(out.value) == "true"


def test_forwarding_reaches_outer_handler():
    src = """
operation Branch : Unit -> Bool
operation Ask : Unit -> Nat
handle (handle do Ask () with {val x -> return x; Branch () r -> r true})
with {val x -> return x; Ask () r -> r 42}
"""
    sig, t = parse_program(src)
    out, _, _ = evaluate(t, sig)
    assert out.value.value == 42


def test_determinism():
    sig, t = parse_program("""
operation Branch : Unit -> Bool
handle (let a <- do Branch () in return a) with {
  val x -> return [x];
  Branch () r -> let u <- r true in let v <- r false in return u
}
""")
    t = complete_handlers(t, sig)
    a = step(StateConfig(t), sig)
    b = step(StateConfig(t), sig)
    assert alpha_eq(a.term, b.term)


def test_step_is_a_function_of_its_input():
    # resumption binders are numbered from the configuration, so handler
    # runs elsewhere in the process do not rename them
    sig, t = parse_program("""
operation Branch : Unit -> Bool
handle (let a <- do Branch () in return a) with {
  val x -> return [x];
  Branch () r -> let u <- r true in let v <- r false in return u
}
""")
    cfg = StateConfig(complete_handlers(t, sig))
    before = step(cfg, sig)
    term, sig2, _ = cl.compose("effcount", "odd", 3)
    evaluate(term, sig2)
    after = step(cfg, sig)
    assert "resume.y1" in to_source(before.term)
    assert to_source(after.term) == to_source(before.term)
    assert before.resume_counter == after.resume_counter == 1


def test_step_counts_reductions_not_navigation():
    # navigating into nested lets costs nothing: one step per redex
    t = parse_term("let a <- (let b <- return 1 in b + 1) in a + 1")
    out, steps, _ = evaluate(t)
    assert steps == 4  # S-Let, S-Const, S-Let, S-Const
    assert out.value.value == 3


def test_subject_reduction_on_random_corpus():
    checked = 0
    for seed in range(300):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=False)
        ty = typecheck_program(sig, term)
        for cfg in islice(reductions(term, sig), 60):
            typecheck_program(sig, cfg.term)
            checked += 1
    assert checked > 300


def test_store_discipline_on_random_corpus():
    for seed in range(60):
        term, sig = random_program(seed, effects=False, refs=True)
        cfg = StateConfig(term)
        last_counter = 0
        for _ in range(300):
            out = step(cfg, sig)
            if not isinstance(out, StateConfig):
                break
            assert len(out.store) >= last_counter
            assert set(out.store) == set(range(len(out.store)))
            last_counter = len(out.store)
            cfg = out


def _reference_subst(t, m):
    """Substitution written plainly on `map_children`: every node rebuilt,
    no free-variable sets consulted."""

    if t.__class__ is Var:
        return m.get(t.name, t)
    return map_children(
        t, lambda c, names: _reference_subst(c, {k: v for k, v in m.items() if k not in names})
    )


def _copy(t, _names=()):
    """A copy of t made of new nodes, so no free-variable set is cached on it."""

    return map_children(t, _copy)


def _subst_corpus():
    for name, desc in sorted(cl.catalog().items()):
        yield _copy(desc.build(3)[0])
    for seed in range(500):
        yield random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)[0]


def _maps(s):
    """Maps over a subterm's names: its variables (free ones and bound
    ones), its binders, a name that does not occur, and open values."""

    occurring = sorted({u.name for u in subterms(s) if u.__class__ is Var})
    binders = sorted({x for u in subterms(s) for _, names in children(u) for x in names})
    values = [Num(7), UNIT_V, Var("probe"), Lam("z", Return(Var("z")))]
    yield {x: values[i % len(values)] for i, x in enumerate(occurring)}
    yield {x: Num(1) for x in binders}
    yield {"nowhere": Num(0)}
    if occurring:
        yield {occurring[-1]: Var("probe"), "nowhere": UNIT_V}


def test_subst_matches_reference_substitution():
    checked = 0
    for term in _subst_corpus():
        for s in subterms(term):
            if not children(s):
                continue
            for m in _maps(s):
                want = _reference_subst(s, m)
                # the first call may find the sets uncached, the second finds them cached
                assert same(subst(s, m), want), m
                assert same(subst(s, m), want), m
                checked += 1
    assert checked > 20_000


def test_subst_returns_a_subterm_without_substituted_variables_unwalked():
    t = Cons(Lam("x", Return(Var("x"))), Cons(Var("y"), Nil()))
    out = subst(t, {"x": Num(1), "y": Num(2)})
    assert out.head is t.head and out.tail.tail is t.tail.tail
    assert out.tail.head.value == 2
    assert free_vars(t) == {"y"} and free_vars(t.head) == set()


def test_subst_on_a_deep_term_that_does_not_mention_the_variable():
    lst = Nil()
    for i in range(5_000):
        lst = Cons(Num(i), lst)
    t = Lam("y", Return(lst))
    assert free_vars(t) == frozenset()
    assert subst(t, {"x": Num(1)}) is t


def test_subst_on_a_deep_term_that_mentions_the_variable_at_its_end():
    lst = Cons(Var("x"), Nil())
    for i in range(5_000):
        lst = Cons(Num(i), lst)
    out = subst(Lam("y", Return(lst)), {"x": Num(7)})
    cell, old = out.body.value, lst
    for _ in range(5_000):
        assert cell.head is old.head
        cell, old = cell.tail, old.tail
    assert cell.head.value == 7 and cell.tail is old.tail
    chain = Return(Var("x"))
    for i in range(5_000):
        chain = Let(f"z{i}", Return(Num(i)), chain)
    out = subst(chain, {"x": Num(7)})
    for _ in range(5_000):
        out = out.body
    assert out.value.value == 7


def _evaluate_corpus():
    for impl in ("naivecount", "lazycount", "effcount", "effsearch"):
        yield cl.compose(impl, "odd", 2)[:2]
    for seed in range(100):
        yield random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)


def test_evaluate_is_the_same_with_the_cache_cold_and_warm():
    for term, sig in _evaluate_corpus():
        term = _copy(term)
        cold = evaluate(term, sig)
        warm = evaluate(term, sig)
        assert cold[1] == warm[1]
        assert same(cold[0], warm[0])
        assert same(cold[2].store, warm[2].store)


def _fv_from_scratch(t):
    """Every node of t by id, with its free variables computed without
    reading or writing any cached set."""

    nodes, fv = {}, {}
    stack = [t]
    while stack:  # post-order, each shared node once
        s = stack[-1]
        if id(s) in fv:
            stack.pop()
            continue
        todo = [c for c, _ in children(s) if id(c) not in fv]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        out = {s.name} if s.__class__ is Var else set()
        for c, names in children(s):
            out |= fv[id(c)] - set(names)
        nodes[id(s)], fv[id(s)] = s, out
    return nodes, fv


def _check_cached_sets(t):
    """Every node of t that carries a set carries the exact one; returns
    how many nodes carried a set."""

    nodes, fv = _fv_from_scratch(t)
    checked = 0
    for key, s in nodes.items():
        cached = getattr(s, "_fv", None)
        if cached is not None:
            assert cached == fv[key], to_source(s)
            checked += 1
    return checked


def test_rebuilt_nodes_carry_exact_free_variables():
    rows = ("effcount", "naivecount", "effsearch", "lazycount")  # the oracle's agreement rows
    programs = [cl.compose(impl, "odd", 2)[:2] for impl in rows]
    programs += [
        random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3) for seed in range(200)
    ]
    checked = 0
    for term, sig in programs:
        for i, cfg in enumerate(islice(reductions(term, sig), 2_000)):
            if i % 7 == 0:
                checked += _check_cached_sets(cfg.term)
    assert checked > 20_000


def test_rebuilt_sets_under_a_shadowing_binder_and_an_open_value():
    # a binder that shadows a substituted name keeps it free below it
    inner = Pair(Var("x"), Var("y"))
    t = Pair(Var("x"), Lam("x", Return(inner)))
    out = subst(t, {"x": Num(1), "y": Num(2)})
    assert _check_cached_sets(out) == 4 and free_vars(out.snd.body.value) == {"x"}
    # open values: `y` is captured by the binder of the same name, so the
    # body's set is not its old one minus `x`; `probe` is not captured
    body = Return(Pair(Var("x"), Var("x")))
    t = Pair(Lam("y", body), Pair(Var("x"), Num(1)))
    assert free_vars(t) == {"x"} and free_vars(body) == {"x"}
    out = subst(t, {"x": Var("y")})
    assert free_vars(out.fst) == frozenset() and free_vars(out.fst.body) == {"y"}
    assert free_vars(out) == {"y"}
    assert _check_cached_sets(out) == 5
    out = subst(t, {"x": Var("probe")})
    assert free_vars(out) == {"probe"} and _check_cached_sets(out) == 5
    # an open value that is not a variable, with its set not yet cached and cached
    for cached in (False, True):
        fn = Lam("z", Return(Var("y")))
        if cached:
            free_vars(fn)
        out = subst(t, {"x": fn})
        assert free_vars(out) == {"y"} and _check_cached_sets(out) == 7
    closed = subst(t, {"x": Num(2)})
    assert _check_cached_sets(closed) == 5 and free_vars(closed) == frozenset()

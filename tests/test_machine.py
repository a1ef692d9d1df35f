import ast
import re
from pathlib import Path

import pytest

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang.decompile import decompile, reify
from fxlang.errors import FuelExhausted, StuckError
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
from fxlang.pprint import render_mval
from fxlang.smallstep import evaluate
from fxlang.syntax import (
    BOOL,
    UNIT,
    UNIT_V,
    App,
    Assign,
    Case,
    Cons,
    Const,
    Deref,
    Inl,
    Inr,
    Lam,
    Let,
    LetRef,
    Loc,
    Nil,
    Num,
    Pair,
    Quote,
    Rec,
    Return,
    Split,
    UnitVal,
    Var,
    alpha_eq,
    bool_,
    free_vars,
    is_value,
    subterms,
)
from termeq import same


def run(src, sig=None, **kw):
    term = parse_term(src, sig)
    return mc.run_machine(term, sig, **kw)


# Every rule name `drive` gives (see test_rules_name_every_rule_drive_sets_and_no_other).
RULES = {name for name, _ in mc.RULES}


def fired(term, sig=None):
    """The rule of each transition of a run, one forked `step` at a time."""

    st = mc.inject(term, sig)
    out = []
    while True:
        rule, st = mc.step(st)
        if rule == "final":
            return out
        out.append(rule)


def test_inject_initial_state():
    st = mc.inject(parse_term("return 5"))
    assert st.ticks == 0 and st.env == {}
    # one resumption with an empty pure continuation
    assert st.kont[1] is None and st.kont[0][0] is None


def test_inject_picks_bottom_by_effects():
    sig = {"Branch": (UNIT, BOOL)}
    effectful = mc.inject(parse_term("do Branch ()", sig))
    pure = mc.inject(parse_term("return 5"))
    assert effectful.kont[0][1][1] is mc.ID_HANDLER
    assert pure.kont is mc.PURE_CONT and pure.kont[0][1] is None  # no handler


def test_pure_run_stops_before_bottom_handler():
    # the answer stop saves exactly the bottom M-RetHandler: one tick and
    # two envOps (the handler's binding and the lookup in its body)
    term, _, _ = cl.compose("naivecount", "odd", 3)
    res = mc.run_machine(term)
    st = mc.MachineState(term, {}, mc.ID_CONT)
    assert mc.drive(st, fuel=10**7) == "value" and st.out == res.value
    assert st.ticks == res.ticks + 1 and st.envops == res.envops + 2


def test_effectful_runs_share_an_unwritten_bottom_continuation():
    # every effectful run starts on ID_CONT; no rule writes the identity
    # handler closure's environment, which forward.fx resumes through
    forward = Path(__file__).resolve().parent.parent / "programs" / "forward.fx"
    fwd_sig, fwd = parse_program(forward.read_text())
    for term, sig in [cl.compose("effcount", "odd", 3)[:2], (fwd, fwd_sig)]:
        assert mc.inject(term, sig).kont is mc.ID_CONT
        mc.run_machine(term, sig)
    assert mc.ID_CONT == ((None, ({}, mc.ID_HANDLER)), None)


def test_let_and_retcont_transitions():
    st = mc.inject(parse_term("let x <- return 1 in x + x"))
    rule, st = mc.step(st)
    assert rule == "M-Let"
    sigma = st.kont[0][0]  # the bottom resumption's pure continuation
    assert sigma is not None and sigma[3] is None and st.kont[1] is None
    rule, st = mc.step(st)
    assert rule == "M-RetCont"
    assert list(st.env.values()) == [1] and st.kont[0][0] is None
    rule, st = mc.step(st)
    assert rule == "M-Const"
    rule, final = mc.step(st)
    assert rule == "final" and final.value == 2


def test_decompile_is_a_function_of_its_state():
    # the first M-Handle-Op binds a resumption, which decompiles to a
    # function with a generated binder; both calls must name it alike
    term, sig, _ = cl.compose("effcount", "odd", 1)
    st = mc.inject(term, sig)
    rule = None
    while rule != "M-Handle-Op":
        rule, st = mc.step(st)
    a, b = decompile(st), decompile(st)
    assert same(a, b) and alpha_eq(a, b)


def test_constant_application_single_tick():
    res = run("2 + 3")
    assert res.value == 5 and res.ticks == 1


def test_fast_loop_matches_single_steps():
    # the resumable loop and the stepper must meter identically
    progs = []
    for seed in range(60):
        progs.append(random_program(seed, effects=seed % 2 == 1, refs=seed % 7 == 3))
    term, sig, _ = cl.compose("effcount", "odd", 3)
    progs.append((term, sig))
    for term, sig in progs:
        try:
            res = mc.run_machine(term, sig, fuel=20_000)
        except FuelExhausted:
            continue
        assert len(fired(term, sig)) == res.ticks


def test_deterministic_reports():
    a = cl.run_report("effcount", "odd", 5)
    b = cl.run_report("effcount", "odd", 5)
    assert (a.result, a.ticks, a.envops) == (b.result, b.ticks, b.envops)


def test_multi_shot_resumption_independence():
    src = """
operation Branch : Unit -> Bool
handle (let y <- do Branch () in if y then return 7 else return 9) with {
  val x -> return x;
  Branch () r -> let a <- r true in let b <- r false in return (a, b)
}
"""
    sig, term = parse_program(src)
    res = mc.run_machine(term, sig)
    assert render_mval(res.value) == "(7, 9)"


def test_resumption_capture_shares_structure():
    # the captured resumption must reference the existing pure
    # continuation, not a copy, regardless of its depth
    def check(depth):
        lets = "".join(f"let v{i} <- return {i} in " for i in range(depth))
        src = f"""
operation Branch : Unit -> Bool
handle ({lets} do Branch ()) with {{
  val x -> return 0;
  Branch () r -> return 1
}}
"""
        sig, term = parse_program(src)
        st = mc.inject(term, sig)
        while True:
            rule, nxt = mc.step(st)
            assert rule != "final"
            if rule == "M-Handle-Op":
                r_val = [v for v in nxt.env.values() if isinstance(v, tuple)]
                assert r_val and r_val[0][0] is st.kont[0][0]
                return
            st = nxt

    check(2)
    check(40)


def test_envops_of_capture_independent_of_depth():
    def handle_op_envops(depth):
        lets = "".join(f"let v{i} <- return {i} in " for i in range(depth))
        src = f"""
operation Branch : Unit -> Bool
handle ({lets} do Branch ()) with {{
  val x -> return 0;
  Branch () r -> return 1
}}
"""
        sig, term = parse_program(src)
        st = mc.inject(term, sig)
        from fxlang.syntax import Do

        while st.comp.__class__ is not Do:
            before = st.envops
            mc.drive(st, fuel=st.ticks + 1)
        before = st.envops
        mc.drive(st, fuel=st.ticks + 1)
        return st.envops - before

    assert handle_op_envops(2) == handle_op_envops(40)


def test_memoise_evaluates_body_once():
    # the thunk body bumps a reference cell; two forces, one bump
    src = """
letref hits = 0 in
let thunk = (fun (_ : Unit) -> let h <- !hits in let _ <- (hits := h + 1) in return [true]) in
let f = memoise thunk in
let a <- f () in
let b <- f () in
!hits
"""
    res = run(src)
    assert res.value == 1


def test_memoised_second_force_is_one_transition():
    src = """
let f = memoise (fun (_ : Unit) -> return [true]) in
let a <- f () in
f ()
"""
    rules = fired(parse_term(src))
    assert rules.count("M-Memo-Force") == 1
    assert rules.count("M-Memo-Hit") == 1


def test_memoise_behaves_as_identity_wrap():
    plain = run("let f = (fun (_ : Unit) -> return []) in f ()")
    wrapped = run("let f = memoise (fun (_ : Unit) -> return ([] : List Bool)) in f ()")
    assert render_mval(plain.value) == render_mval(wrapped.value) == "[]"


# A memoised `rec` thunk that calls itself through its own name until a
# counter reaches 3; the second force is a memo hit despite the reset.
MEMO_REC_SRC = """
letref c = 0 in
let f = memoise (rec (g : Unit -> Nat) u ->
  let n <- !c in
  if n = 3 then return n else let _ <- (c := n + 1) in g ()) in
let a <- f () in
let _ <- (c := 0) in
let b <- f () in
return (a, b)
"""


def test_memoised_rec_thunk_binds_its_name_when_forced():
    # M-Memo-Force enters a rec closure as M-Rec does, binding its name
    term = parse_term(MEMO_REC_SRC)
    res = mc.run_machine(term)
    assert render_mval(res.value) == "(3, 3)"
    assert alpha_eq(evaluate(term)[0].value, reify(res.value))
    bare = parse_term("let f = memoise (rec (g : Unit -> Nat) u -> return 7) in f ()")
    res = mc.run_machine(bare)
    assert (res.value, res.ticks, res.envops) == (7, 7, 6)
    assert alpha_eq(evaluate(bare)[0].value, Num(7))


@pytest.mark.parametrize(
    "src, ticks",
    [
        # memoise of a memoised thunk is that thunk
        ("let f = memoise (memoise (fun (u : Unit) -> return 7)) in f ()", 10),
        # forcing a memoised resumption resumes it and records its answer
        ("operation Go : Unit -> Unit\n"
         "handle (let x <- do Go () in return 5) with "
         "{val v -> return v; Go p r -> let m = memoise r in m ()}", 13),
    ],
    ids=["memoised-memo", "memoised-resumption"],
)
def test_memoise_of_a_non_closure_runs(src, ticks):
    sig, term = parse_program(src)
    res = mc.run_machine(term, sig)
    out, _, _ = evaluate(term, sig)
    assert alpha_eq(reify(res.value), out.value)
    assert res.ticks == ticks


def _shadow_after_leaf_call(rebind_x):
    """let id <- return (fun f -> return f) in let p <- return (2, 3) in
    let x <- 1 + 0 in let g <- id (fun u -> return x) in <rebind x> (g 0).

    Built from the constructors: the parser renames every binder apart,
    and only a shadowing ``x`` shows whether the closure's environment
    was extended in place."""

    return Let("id", Return(Lam("f", Return(Var("f")))),
               Let("p", Return(Pair(Num(2), Num(3))),
                   Let("x", App(Const("+"), Pair(Num(1), Num(0))),
                       Let("g", App(Var("id"), Lam("u", Return(Var("x")))),
                           rebind_x(App(Var("g"), Num(0)))))))


@pytest.mark.parametrize("rebind_x", [
    lambda body: Let("x", App(Const("+"), Pair(Num(1), Num(1))), body),
    lambda body: Split(Var("p"), "x", "y", body),
], ids=["const-let", "split"])
def test_leaf_call_argument_closure_keeps_its_environment(rebind_x):
    # ``let g <- id V in N`` is a fused leaf call; V closes over the
    # caller's environment, so the next binding must copy it
    term = _shadow_after_leaf_call(rebind_x)
    assert fired(term)[7:10] == ["M-Let", "M-App", "M-RetCont"]
    res = mc.run_machine(term)
    assert res.value == 1
    assert alpha_eq(evaluate(term)[0].value, reify(res.value))


def test_repr_of_every_machine_value_is_render_mval():
    closure = mc.VClosure({}, Lam("x", Return(Var("x"))))
    values = [
        mc.VUNIT, mc.VPair(1, mc.VTRUE), mc.VInl(2), mc.VInr(mc.VUNIT), mc.VNIL,
        mc.VCons(1, mc.VCons(2, mc.VNIL)), closure, mc.VLoc(3), mc.VMemo(0, closure),
        mc.VSentinel(),
    ]
    assert {v.__class__ for v in values} == set(mc._Value.__subclasses__())
    for v in values:
        assert repr(v) == render_mval(v)
    assert repr(values[5]) == "[1, 2]" and repr(values[1]) == "(1, true)"


def test_machine_value_equality():
    assert mc.VPair(1, mc.VNIL) == mc.VPair(1, mc.VNIL)
    assert mc.VInl(mc.VUNIT) != mc.VInr(mc.VUNIT)
    assert mc.VLoc(0) == mc.VLoc(0) != mc.VLoc(1)
    a = b = mc.VNIL
    for i in range(5000):  # compared along the spine, not by recursion
        a, b = mc.VCons(i, a), mc.VCons(i, b)
    assert a == b and a != mc.VCons(-1, b)
    lam = Lam("x", Return(Var("x")))
    env = {}
    assert mc.VClosure(env, lam) != mc.VClosure(env, lam)  # closures compare by identity
    closure = mc.VClosure(env, lam)
    assert mc.VMemo(0, closure) != mc.VMemo(0, closure)


def test_unhandled_operation_final_state():
    sig = {"Branch": (UNIT, BOOL)}
    res = run("do Branch ()", sig)
    assert isinstance(res.outcome, mc.FinalUnhandledOp)
    assert res.outcome.op == "Branch"


def test_fuel_exhaustion():
    with pytest.raises(FuelExhausted):
        run("(rec (f : Unit -> Bool) u -> f u) ()", fuel=500)


def test_store_threaded_not_captured():
    # a resumption re-invoked later sees the current store contents
    src = """
operation Tick : Unit -> Unit
letref cell = 0 in
handle (let _ <- do Tick () in !cell) with {
  val x -> return x;
  Tick () r -> let _ <- (cell := 5) in let a <- r () in
               let _ <- (cell := 9) in let b <- r () in
               return (a, b)
}
"""
    sig, term = parse_program(src)
    res = mc.run_machine(term, sig)
    assert render_mval(res.value) == "(5, 9)"


def test_trace_run_yields_rule_lines():
    term = parse_term("let x <- return 1 in x + x")
    rules = [rule for _, rule, _, _ in mc.trace_run(term)]
    assert rules == ["M-Let", "M-RetCont", "M-Const"]


def test_trace_classifies_all_pure_rules():
    term = parse_term(
        "let (a, b) = (1, 2) in letref r = a in (r := b); "
        "case [a] {[] -> return 0; h :: t -> !r}"
    )
    rules = set(rule for _, rule, _, _ in mc.trace_run(term))
    assert rules <= RULES
    for wanted in ("M-Split", "M-Alloc", "M-Assign", "M-CaseCons", "M-Deref"):
        assert wanted in rules


MULTI_SHOT = """
operation Branch : Unit -> Bool
handle (let y <- do Branch () in if y then return 7 else return 9) with {
  val x -> return x;
  Branch () r -> let a <- r true in let b <- r false in return (a, b)
}
"""


# Programs and the rules they fire, in order; together they fire every rule.
RULE_CASES = [
    ("let (a, b) = (1, 2) in letref r = a in (r := b); case [a] {[] -> return 0; h :: t -> !r}",
     "Split Alloc Let Assign RetCont CaseCons Deref"),
    ("case ([] : List Nat) {[] -> return 0; h :: t -> return h}", "CaseNil"),
    ("case (inl 3 : Nat + Nat) {inl x -> x + 1; inr y -> return y}", "CaseL Const"),
    ("case (inr 3 : Nat + Nat) {inl x -> return x; inr y -> y + 1}", "CaseR Const"),
    ("(rec (f : Nat -> Nat) i -> if i = 0 then return 0 else f (i - 1)) 1",
     "Rec Let Const RetCont CaseR Let Const RetCont Rec Let Const RetCont CaseL"),
    ("(fun (x : Nat) -> x + 1) 1", "App Const"),
    ("let f = memoise (fun (_ : Unit) -> return [true]) in let a <- f () in f ()",
     "Let Memo RetCont Let RetCont Let Memo-Force Memo-Record RetCont Memo-Hit"),
    (MULTI_SHOT,
     "Handle Let Handle-Op Let Resume RetCont CaseL RetHandler "
     "RetCont Let Resume RetCont CaseR RetHandler RetCont RetHandler"),
]


@pytest.mark.parametrize("src, rules", RULE_CASES)
def test_rule_names(src, rules):
    sig, term = parse_program(src)
    want = ["M-" + r for r in rules.split()]
    assert fired(term, sig) == want
    assert [rule for _, rule, _, _ in mc.trace_run(term, sig)] == want


def test_rule_cases_fire_every_rule():
    # so every branch of `drive` is checked for its name
    names = {"M-" + r for _, rules in RULE_CASES for r in rules.split()}
    assert len(RULES) == 21 and names == RULES


def test_trace_run_agrees_with_forked_steps():
    for seed in range(200):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 7 == 3)
        try:
            res = mc.run_machine(term, sig, fuel=20_000)
        except FuelExhausted:
            continue
        traced = [rule for _, rule, _, _ in mc.trace_run(term, sig)]
        assert traced == fired(term, sig), seed
        assert len(traced) == res.ticks and set(traced) <= RULES, seed


def test_handler_rules_appear_in_traces():
    term, sig, _ = cl.compose("effcount", "odd", 1)
    rules = [rule for _, rule, _, _ in mc.trace_run(term, sig)]
    for wanted in ("M-Handle", "M-Handle-Op", "M-Resume", "M-RetHandler"):
        assert wanted in rules


def test_composed_pure_counter_runs_on_base_machine():
    term, sig, _ = cl.compose("naivecount", "odd", 2)
    st = mc.inject(term)  # a pure program: no handler from start to end
    assert mc.drive(st, fuel=10**6) == "value"
    assert st.out == 2 and st.kont == mc.PURE_CONT


def test_long_list_value_no_recursion_cliff():
    # effsearch x odd@14 returns 8,192 points; a 5,000-cell list must not
    # hit Python's recursion limit in equality, repr or reify
    a, b = mc.VNIL, mc.VNIL
    for i in range(5000):
        a, b = mc.VCons(i, a), mc.VCons(i, b)
    assert a == b and not a == mc.VCons(-1, b.tail)
    assert repr(a) == "[" + ", ".join(map(str, range(4999, -1, -1))) + "]"
    t, n = reify(a), 5000
    while t.__class__ is Cons:
        n -= 1
        assert t.head.__class__ is Num and t.head.value == n
        t = t.tail
    assert n == 0 and t.__class__ is Nil


def test_long_list_literal_runs_without_recursion():
    # `interp` loops along a literal list's spine
    term, want = Nil(), mc.VNIL
    for i in reversed(range(5000)):
        term, want = Cons(Num(i), term), mc.VCons(i, want)
    res = mc.run_machine(Return(term))
    assert res.value == want and (res.ticks, res.envops) == (0, 0)


# `interp` as it was before it read components inline: one call per node.
def ref_interp(v, env, st):
    cls = v.__class__
    if cls is Var:
        st.envops += 1
        return env[v.name]
    if cls is Num:
        return v.value
    if cls is Quote:
        return v.mval
    if cls is Lam or cls is Rec:
        return mc.VClosure(env, v)
    if cls is UnitVal:
        return mc.VUNIT
    if cls is Inl:
        return mc.VInl(ref_interp(v.value, env, st))
    if cls is Inr:
        return mc.VInr(ref_interp(v.value, env, st))
    if cls is Pair:
        return mc.VPair(ref_interp(v.fst, env, st), ref_interp(v.snd, env, st))
    if cls is Const:
        return v
    if cls is Nil:
        return mc.VNIL
    if cls is Cons:
        return mc.VCons(ref_interp(v.head, env, st), ref_interp(v.tail, env, st))
    if cls is Loc:
        return mc.VLoc(v.index)
    raise StuckError(f"not a value term: {v!r}")


def same_mval(a, b):
    """Equal machine values; closures are equal when they hold the same
    environment and term, since `==` compares them by identity."""

    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a.__class__ is not b.__class__:
            return False
        if a.__class__ is mc.VClosure:
            if a.env is not b.env or a.term is not b.term:
                return False
        elif a.__class__ in (mc.VPair, mc.VInl, mc.VInr, mc.VCons):
            stack.extend((getattr(a, f), getattr(b, f)) for f in a.__slots__)
        elif a != b:
            return False
    return True


def _value_subterm_corpus():
    for _, desc in sorted(cl.catalog().items()):
        yield desc.build(2)[0]
    for seed in range(200):
        yield random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)[0]


def test_interp_agrees_with_the_one_call_per_node_reference():
    checked = 0
    for term in _value_subterm_corpus():
        for v in subterms(term):
            if not is_value(v):
                continue
            env = {x: mc.VPair(i, mc.VNIL) for i, x in enumerate(sorted(free_vars(v)))}
            st, ref_st = mc.MachineState(v, env, mc.PURE_CONT), mc.MachineState(v, env, mc.PURE_CONT)
            got, want = mc.interp(v, env, st), ref_interp(v, env, ref_st)
            assert same_mval(got, want), v
            assert st.envops == ref_st.envops, v
            checked += 1
    assert checked > 3_000


def test_interp_shares_the_two_booleans():
    st = mc.MachineState(UNIT_V, {}, mc.PURE_CONT)
    assert mc.interp(bool_(True), {}, st) is mc.VTRUE
    assert mc.interp(bool_(False), {}, st) is mc.VFALSE
    assert mc.interp(Inl(Num(1)), {}, st) == mc.VInl(1)


# Stuck states: each error is raised where the operand is read, fast
# path or not, and is a StuckError, never a bare KeyError.
_RET_X = Return(Var("x"))
STUCK_CASES = [
    (_RET_X, "unbound variable 'x'"),
    (App(Var("x"), Num(1)), "unbound variable 'x'"),
    (App(Lam("y", Return(Var("y"))), Var("x")), "unbound variable 'x'"),
    (App(Rec("f", "y", Return(Var("y"))), Var("x")), "unbound variable 'x'"),
    (Case(Var("x"), "l", Return(Num(0)), "r", Return(Num(1))), "unbound variable 'x'"),
    (App(Const("+"), Pair(Var("x"), Num(1))), "unbound variable 'x'"),
    (App(Const("+"), Pair(Num(1), Var("x"))), "unbound variable 'x'"),
    (Let("p", Return(Pair(Num(1), Num(2))), App(Const("+"), Var("x"))),
     "unbound variable 'x'"),
    (App(Const("+"), Pair(Num(1), UNIT_V)), "non-numeric pair"),
    (App(Const("-"), Pair(Inl(UNIT_V), Num(1))), "non-numeric pair"),
    (Let("p", Return(Pair(Num(1), UNIT_V)), App(Const("+"), Var("p"))), "non-numeric pair"),
    (App(Const("="), Num(1)), "non-numeric pair"),
    (Deref(Loc(3)), "unbound location 3"),
    (App(Num(1), Num(2)), "application of a non-function"),
    (Let("f", Return(UNIT_V), App(Var("f"), Num(2))), "application of a non-function"),
    # `interp` reads pair and cons components inline, in order
    (Return(Pair(Pair(Var("x"), Num(1)), Pair(Num(2), Num(3)))), "unbound variable 'x'"),
    (Return(Pair(Pair(Num(0), Var("x")), Pair(Num(2), Num(3)))), "unbound variable 'x'"),
    (Return(Pair(Pair(Num(0), Num(1)), Pair(Var("x"), Num(3)))), "unbound variable 'x'"),
    (Return(Pair(Pair(Num(0), Num(1)), Pair(Num(2), Var("x")))), "unbound variable 'x'"),
    (Return(Cons(Var("x"), Nil())), "unbound variable 'x'"),
    (Return(Cons(Num(0), Var("x"))), "unbound variable 'x'"),
    (Return(Cons(Num(0), Cons(Var("x"), Nil()))), "unbound variable 'x'"),
    (Return(Cons(Num(0), Cons(Num(1), Var("x")))), "unbound variable 'x'"),
    (Return(Pair(Pair(Num(0), Var("y")), Var("x"))), "unbound variable 'y'"),
    (Return(Cons(Num(0), Cons(Var("y"), Var("x")))), "unbound variable 'y'"),
]


@pytest.mark.parametrize("term, message", STUCK_CASES)
def test_stuck_states_raise_stuck_error(term, message):
    with pytest.raises(StuckError, match=re.escape(message)):
        mc.run_machine(term)
    with pytest.raises(StuckError, match=re.escape(message)):
        fired(term)


def test_assign_to_an_unallocated_location_is_stuck_on_both_semantics():
    # the assignment must not create cell 5 for the later `!5` to read
    term = Let("u", Assign(Loc(5), Num(1)),
               LetRef("r", Num(7), Let("a", LetRef("s", Num(8), Return(Var("s"))),
                                       Deref(Loc(5)))))
    with pytest.raises(StuckError, match="^unbound location 5$"):
        mc.run_machine(term)
    with pytest.raises(StuckError, match="^unbound location 5$"):
        evaluate(term)


def test_probe_value_applied_outside_extraction_is_stuck():
    term = App(Quote(mc.VSentinel()), Num(0))
    message = "application of the probe value outside extraction"
    with pytest.raises(StuckError, match=message):
        mc.run_machine(term)
    with pytest.raises(StuckError, match=message):
        mc.step(mc.inject(term))
    with pytest.raises(StuckError, match=message):
        list(mc.trace_run(term))


def test_delta_m_defines_the_constants():
    assert mc.delta_m("+", 2, 3) == 5
    assert mc.delta_m("-", 2, 3) == 0 and mc.delta_m("-", 3, 2) == 1
    assert mc.delta_m("=", 4, 4) == mc.VTRUE and mc.delta_m("=", 4, 5) == mc.VFALSE
    for a, b in [(1, mc.VUNIT), (mc.VTRUE, 1), (1, None)]:
        with pytest.raises(StuckError, match="non-numeric pair"):
            mc.delta_m("+", a, b)
    with pytest.raises(StuckError, match="unknown constant"):
        mc.delta_m("*", 2, 3)


# Rules whose result is a computed value, and programs that fire them.
VALUE_RULE_CASES = [
    ("2 + 3", "M-Const", [5]),
    ("letref r = 4 in !r", "M-Deref", [4]),
    ("let f = memoise (fun (_ : Unit) -> return 7) in let a <- f () in f ()",
     "M-Memo-Record", [7]),
    ("let f = memoise (fun (_ : Unit) -> return 7) in let a <- f () in f ()",
     "M-Memo-Hit", [7]),
    ("let f = memoise (fun (_ : Unit) -> return 7) in f ()", "M-Memo", [mc.VMemo]),
]


@pytest.mark.parametrize("src, rule, values", VALUE_RULE_CASES)
def test_fuel_stop_after_value_rule_parks_a_quoted_return(src, rule, values):
    # a run stopped right after the rule shows its result as return <v>,
    # which decompiles and resumes like any other configuration
    st = mc.inject(parse_term(src))
    seen = []
    while True:
        name, nxt = mc.step(st)
        if name == "final":
            break
        if name == rule:
            comp = nxt.comp
            assert comp.__class__ is Return and comp.value.__class__ is Quote
            v = comp.value.mval
            seen.append(v.__class__ if isinstance(values[0], type) else v)
            decompile(nxt)
        st = nxt
    assert seen == values
    # and the in-place loop that `trace_run` uses parks the same way
    st = mc.inject(parse_term(src))
    while mc.drive(st, st.ticks + 1) == "fuel":
        assert st.comp is not None


# `machine.RULES` against the rule names `drive` gives, read from its
# source: a name `drive` sets that the tuple lacks, or an entry `drive`
# never sets, fails.


def rules_set_in(source, function="drive"):
    """The string literals assigned to ``rule`` in ``function``."""

    tree = ast.parse(source)
    (fn,) = [n for n in ast.walk(tree) if n.__class__ is ast.FunctionDef and n.name == function]
    return [
        n.value.value
        for n in ast.walk(fn)
        if n.__class__ is ast.Assign
        and [t.id for t in n.targets if t.__class__ is ast.Name] == ["rule"]
        and n.value.__class__ is ast.Constant
        and isinstance(n.value.value, str)
    ]


def test_rules_name_every_rule_drive_sets_and_no_other():
    names = [name for name, _ in mc.RULES]
    assert len(names) == len(set(names)) == 21
    assert set(rules_set_in(Path(mc.__file__).read_text(encoding="utf-8"))) == set(names)


def test_rules_kinds():
    kinds = dict(mc.RULES)
    assert {k for k, kind in kinds.items() if kind == "commutative"} == {"M-Let", "M-Handle"}
    assert sum(kind == "principal" for kind in kinds.values()) == 19


def test_rules_set_in_finds_each_literal_rule():
    src = (
        "def drive(st):\n"
        "    rule = 'A'\n"
        "    if st:\n"
        "        rule = \"B\"\n"
        "    st.rule = 'C'\n"
        "    other = 'D'\n"
        "    rule = f(st)\n"
        "def step():\n"
        "    rule = 'E'\n"
    )
    assert rules_set_in(src) == ["A", "B"]

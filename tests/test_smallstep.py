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
    eval_value,
    evaluate,
    step,
)
from fxlang.syntax import (
    BOOL,
    Num,
    UNIT,
    alpha_eq,
    complete_handlers,
)
from fxlang.typecheck import typecheck_program

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
    assert cfg.loc_counter == 1


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
    assert to_source(eval_value(t, sig)) == "true"


def test_forwarding_reaches_outer_handler():
    src = """
operation Branch : Unit -> Bool
operation Ask : Unit -> Nat
handle (handle do Ask () with {val x -> return x; Branch () r -> r true})
with {val x -> return x; Ask () r -> r 42}
"""
    sig, t = parse_program(src)
    out = eval_value(t, sig)
    assert out.value == 42


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
        cfg = StateConfig(complete_handlers(term, sig) if sig else term)
        for _ in range(60):
            out = step(cfg, sig)
            if not isinstance(out, StateConfig):
                break
            cfg = out
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
            assert out.loc_counter >= last_counter
            assert set(out.store) == set(range(out.loc_counter))
            last_counter = out.loc_counter
            cfg = out

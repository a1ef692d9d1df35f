"""Machine/small-step correspondence beyond the acceptance run: the
decompilation map is invariant under administrative transitions and
follows each beta-like transition by exactly one reduction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fxlang import acceptance as ac
from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang.decompile import decompile, reify
from fxlang.errors import FuelExhausted
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
from fxlang.smallstep import NormalOp, NormalValue
from fxlang.syntax import BOOL, UNIT, Handle, Lam, Var, alpha_eq, children, free_vars

SRC = Path(__file__).resolve().parent.parent / "src"


def test_decompile_initial_config_is_identity():
    # a pure run has no handler, so its initial configuration is the bare
    # term; an effectful one is the term under the bottom identity handler
    t = parse_term("let x <- return 1 in x + x")
    assert alpha_eq(decompile(mc.inject(t)), t)
    sig = {"Flip": (UNIT, BOOL)}
    t = parse_term("let x <- do Flip () in return x", sig)
    assert alpha_eq(decompile(mc.inject(t)), Handle(t, mc.ID_HANDLER))


def test_lemma_shape_random_corpus():
    for seed in range(100):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=False)
        assert ac.lemma_shape(term, sig) is None, seed


def test_lemma_shape_with_state():
    assert ac.lemma_shape(parse_term("letref x = 0 in (x := 1); !x"), {}, cap=100) is None


def test_lemma_shape_on_multi_shot_handler_run():
    term, sig, _ = cl.compose("effcount", "odd", 2)
    assert ac.lemma_shape(term, sig, cap=800) is None


def test_lemma_shape_on_memo_programs():
    # M-Memo-Record is administrative; each M-Memo-Hit tracks the
    # reductions with which small-step computes the recorded value again
    t = parse_term("let f = memoise (fun (u : Unit) -> return 7) in let a <- f () in f ()")
    assert ac.lemma_shape(t, {}) is None
    term, sig, _ = cl.compose("bergercount", "odd", 2)  # 5 hits in 1,626 transitions
    assert ac.lemma_shape(term, sig, cap=5_000) is None


PLANTED_VIOLATION = """
import sys
from fxlang import acceptance as ac
from fxlang.smallstep import StateConfig
from fxlang.syntax import Return, Var

if __debug__:  # not running under -O
    sys.exit(2)
real = ac.small_step

def one_wrong_reduction(cfg, *args, **kwargs):
    out = real(cfg, *args, **kwargs)
    if isinstance(out, StateConfig):
        return StateConfig(Return(Var("planted")), out.store)
    return out

ac.small_step = one_wrong_reduction
passed, detail = ac.crit_simulation(ac.AcceptanceContext())
print(detail)
sys.exit(1 if passed else 0)
"""


def test_simulation_criterion_fails_under_optimize():
    # invariants must not be asserts: -O would strip them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_VIOLATION],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "is not one reduction" in proc.stdout


def _wrong_value(out):
    return NormalValue(Var("planted")) if isinstance(out, NormalValue) else out


def _wrong_op(out):
    return NormalOp(out.op + "'", out.arg) if isinstance(out, NormalOp) else out


def _planted_evaluate(change, real=ac.evaluate):
    def evaluate(term, sig=None, fuel=100_000):
        out, steps, cfg = real(term, sig, fuel)
        return change(out), steps, cfg

    return evaluate


def _no_ticks(term, sig=None, fuel=mc.DEFAULT_FUEL, real=mc.run_machine):
    res = real(term, sig, fuel)
    return mc.RunResult(res.outcome, 0, res.envops)


def _out_of_fuel(term, sig=None, fuel=100_000):
    raise FuelExhausted(fuel)


def _unhandled_op(impl, pred, n):
    sig, term = parse_program("operation Boom : Unit -> Unit\ndo Boom ()")
    return term, sig, n


# (module, name, planted function, what criterion 5 must report)
PLANTED_FAULTS = {
    "small-step value": (ac, "evaluate", _planted_evaluate(_wrong_value), ": values differ"),
    "operation name": (ac, "evaluate", _planted_evaluate(_wrong_op), ": unhandled op differs"),
    "tick deficit": (mc, "run_machine", _no_ticks, ": ticks 0 < reductions"),
    # the machine must then run out within as many ticks
    "small-step out of fuel": (ac, "evaluate", _out_of_fuel, ": machine value vs small-step fuel"),
    "library run ends in an operation": (
        cl, "compose", _unhandled_op, "effcountxodd@2: ends in op, not a value",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_simulation_criterion_catches_planted_faults(fault, monkeypatch):
    owner, name, planted, message = PLANTED_FAULTS[fault]
    monkeypatch.setattr(owner, name, planted)
    passed, detail = ac.crit_simulation(ac.AcceptanceContext())
    assert not passed and message in detail, detail


def test_resumption_values_decompile_to_handler_wrapped_functions():
    # stop a run at the first operation clause and decompile the captured
    # resumption
    term, sig, _ = cl.compose("effcount", "odd", 1)
    st = mc.inject(term, sig)
    while True:
        rule, nxt = mc.step(st)
        if rule == "M-Handle-Op":
            rho = [v for v in nxt.env.values() if isinstance(v, tuple)][0]
            fn = reify(rho)
            assert isinstance(fn, Lam)
            assert isinstance(fn.body, Handle)
            return
        st = nxt


def test_reified_resumptions_share_one_closed_binder():
    # every resumption binds `resume.y`; that is sound only while each
    # reified resumption is closed, so no binder of the same name can
    # capture its hole
    for impl in ("effcount", "effsearch"):
        term, sig, _ = cl.compose(impl, "odd", 2)
        st = mc.inject(term, sig)
        resumptions = 0
        while True:
            todo = [decompile(st)]
            while todo:
                t = todo.pop()
                if t.__class__ is Lam and t.param == "resume.y":
                    assert not free_vars(t), (impl, st.ticks, free_vars(t))
                    resumptions += 1
                todo.extend(c for c, _ in children(t))
            rule, st = mc.step(st)
            if rule == "final":
                break
        assert resumptions > 0, impl

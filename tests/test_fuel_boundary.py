"""Every fuel stop of `drive` lands on a tick boundary.

`drive` takes two lets as superoperators worth three ticks each when the
fuel covers all three: ``let x <- c (v, w) in N`` (c an arithmetic
constant) and a leaf call ``let x <- f a in N`` whose callee's body is
``return V``.  A run cut at any k ticks must still be the run of k single
steps: the same ticks, the same last rule, the same envOps and the same
decompiled term.
"""

import inspect
import sys
from collections import Counter

import pytest

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang.decompile import decompile
from fxlang.gen import random_program
from fxlang.parser import parse_term
from fxlang.syntax import App, Const, Pair, Var
from termeq import same, same_state

MEMO_SRC = """
letref hits = 0 in
let thunk = (fun (_ : Unit) ->
  let h <- !hits in let h1 <- h + 1 in let _ <- (hits := h1) in
  let d <- h1 - 1 in return (d = 0)) in
let f <- memoise thunk in
let a <- f () in
let b <- f () in
let n <- !hits in
let m <- n + 2 in
if a then return m else return 0
"""


def _catalog(counter, pred, n):
    term, sig, _ = cl.compose(counter, pred, n)
    return mc.inject(term, sig).comp


def _random(seed):
    term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 7 == 3)
    return mc.inject(term, sig).comp


CATALOG = {
    "naivecount-odd-2": lambda: _catalog("naivecount", "odd", 2),
    "lazycount-odd-2": lambda: _catalog("lazycount", "odd", 2),
    "bergercount-queens-2": lambda: _catalog("bergercount", "queens", 2),
    "effcount-odd-2": lambda: _catalog("effcount", "odd", 2),
    "effsearch-odd-2": lambda: _catalog("effsearch", "odd", 2),
    "memoise": lambda: parse_term(MEMO_SRC),
}


def _constant_let(t):
    b = t.bound
    return (
        b.__class__ is App and b.fn.__class__ is Const
        and b.fn.name != "memoise" and b.arg.__class__ is Pair
    )


def single_steps(term):
    """Per tick k: (rule, envOps so far, state) after k forked `step`s,
    and a count of the lets that `drive` fuses.  A constant let is read
    off its syntax, under 'const'.  A leaf call is read off the callee's
    value: an M-Let on ``f a`` whose next two rules are M-App or M-Rec
    and then M-RetCont, under the callee's rule."""

    st = mc.inject(term)
    out, envops, lets = [], 0, []
    while True:
        rule, nxt = mc.step(st)
        if rule == "final":
            break
        if rule == "M-Let":
            lets.append((len(out), st.comp))
        envops += nxt.envops
        out.append((rule, envops, nxt))
        st = nxt
    rules = [rule for rule, _, _ in out]
    fused = Counter()
    for k, let in lets:
        call = rules[k + 1:k + 3]
        if _constant_let(let):
            fused["const"] += 1
        elif let.bound.__class__ is App and let.bound.fn.__class__ is Var and call in (
            ["M-App", "M-RetCont"], ["M-Rec", "M-RetCont"]
        ):
            fused[call[0]] += 1
    return out, fused


def check_every_fuel_stop(term, decompile_every=1):
    """Cut the run at every k.  The stopped states must match slot by
    slot; their decompilations are compared every ``decompile_every``
    ticks and at the last."""

    steps, fused = single_steps(term)
    for k, (rule, envops, st_k) in enumerate(steps, 1):
        st = mc.inject(term)
        assert mc.drive(st, k) == "fuel"
        assert (st.ticks, st.rule, st.envops) == (k, rule, envops), k
        assert same_state(st, st_k), k
        if k % decompile_every == 0 or k == len(steps):
            assert same(decompile(st), decompile(st_k)), k
    return len(steps), fused


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_fuel_stop_matches_single_steps(name):
    # bergercount's states decompile to terms of thousands of nodes
    every = 20 if name.startswith("bergercount") else 1
    ticks, fused = check_every_fuel_stop(CATALOG[name](), every)
    assert ticks > 0
    if not name.startswith("eff"):  # the handler counters add in tail position only
        assert fused["const"] > 0
    if name != "memoise":  # leaf calls fire through both kinds of callee
        assert fused["M-App"] > 0 and fused["M-Rec"] > 0


def test_every_fuel_stop_matches_single_steps_on_random_programs():
    for seed in range(200):
        check_every_fuel_stop(_random(seed))


def loop_iterations(st, fuel):
    """`drive(st, fuel)`, counting the turns of its dispatch loop."""

    lines, first = inspect.getsourcelines(mc.drive)
    head = first + next(i for i, s in enumerate(lines) if s.strip() == "cls = comp.__class__")
    code = mc.drive.__code__
    turns = 0

    def local(frame, event, arg):
        nonlocal turns
        if event == "line" and frame.f_lineno == head:
            turns += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        kind = mc.drive(st, fuel)
    finally:
        sys.settrace(old)
    return kind, turns


def test_fused_let_takes_one_loop_turn():
    # Each fused let saves two turns, and the final stop takes one.
    for name, bottom, forms in [
        ("naivecount-odd-2", mc.PURE_CONT, ("const", "M-App", "M-Rec")),
        ("effcount-odd-2", mc.ID_CONT, ("M-App", "M-Rec")),  # effcount adds in tail position only
    ]:
        term = CATALOG[name]()
        steps, fused = single_steps(term)
        st = mc.inject(term)
        assert st.kont == bottom, name
        kind, turns = loop_iterations(st, 10**6)
        assert kind == "value", name
        assert turns == len(steps) - 2 * sum(fused.values()) + 1, name
        # one transition at a time, nothing fuses
        st = mc.inject(term)
        assert loop_iterations(st, 3) == ("fuel", 3) and st.rule == steps[2][0], name
        assert sum(rule == "M-Let" for rule, _, _ in steps) > sum(fused.values()), name
        assert all(fused[form] > 0 for form in forms), name


def test_forks_leave_a_saved_states_memo_counter_alone():
    st = mc.inject(CATALOG["memoise"]())
    while True:
        rule, nxt = mc.step(st)
        if rule == "M-Memo":
            break
        st = nxt
    assert (len(st.memo), len(nxt.memo)) == (0, 1)
    assert mc.drive(st.fork(st.comp), 10**6) == "value"
    assert len(st.memo) == 0

"""Every fuel stop of `drive` lands on a tick boundary.

`drive` runs four lets as superoperators, each only when the fuel
covers all of its rules; docs/semantics.md §Cost model describes their
shapes, rules and envOps.  A run cut at any k ticks must still be the
run of k single steps: the same ticks, the same last rule, the same
envOps and the same decompiled term.  No generated program has the
curried or the chained shape, so hand-written corpora reach them.
"""

import inspect
import sys
from collections import Counter

import pytest

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang.decompile import decompile
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
from fxlang.syntax import App, Const, Lam, Let, Num, Pair, Return, Var
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


def _curried_body(let):
    """Is the let's body ``g b``, with ``g`` the let's own name and ``b``
    another variable?"""

    b = let.body
    return (
        b.__class__ is App and b.fn.__class__ is Var and b.fn.name == let.name
        and b.arg.__class__ is Var and b.arg.name != let.name
    )


def _chained_body(let):
    """Is the let's body ``let g2 <- g1 b in g2 c``, with ``g1`` the
    let's own name, ``b`` a variable other than ``g1`` and ``c`` one
    other than ``g1`` and ``g2``?"""

    inner = let.body
    if inner.__class__ is not Let or not _curried_body(inner):
        return False
    b = inner.bound
    return (
        b.__class__ is App and b.fn.__class__ is Var and b.fn.name == let.name
        and b.arg.__class__ is Var and b.arg.name != let.name
        and inner.body.arg.name != let.name
    )


def single_steps(term):
    """Per tick k: (rule, envOps so far, state) after k forked `step`s,
    and a count of the lets that `drive` fuses.  A constant let is read
    off its syntax, under 'const'.  A call is an M-Let on ``f a`` whose
    next two rules are M-App or M-Rec and then M-RetCont.  It is a
    chained call when the let's body is ``let g2 <- g1 b in g2 c``, the
    callee's body is ``return (fun x -> return (fun y -> N))`` and the
    next four rules are M-Let, M-App, M-RetCont and M-App, under
    'chained ' and the callee's rule; its inner let is not counted again.
    It is a curried call when the let's body is ``g b``, the callee's body
    is ``return (fun y -> N)`` and the next rule is M-App, under 'curried '
    and the callee's rule; otherwise a leaf call, under the callee's
    rule."""

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
    fused, inner_lets = Counter(), set()
    for k, let in lets:
        if k in inner_lets:
            continue
        call = rules[k + 1:k + 7]
        if _constant_let(let):
            fused["const"] += 1
        elif let.bound.__class__ is App and let.bound.fn.__class__ is Var and call[:2] in (
            ["M-App", "M-RetCont"], ["M-Rec", "M-RetCont"]
        ):
            lam = out[k + 1][2].comp.value  # V in the callee's body, return V
            if (
                call[2:] == ["M-Let", "M-App", "M-RetCont", "M-App"] and _chained_body(let)
                and lam.__class__ is Lam and lam.body.__class__ is Return
                and lam.body.value.__class__ is Lam
            ):
                fused["chained " + call[0]] += 1
                inner_lets.add(k + 3)
            else:
                is_curried = (
                    call[2:3] == ["M-App"] and _curried_body(let) and lam.__class__ is Lam
                )
                fused["curried " * is_curried + call[0]] += 1
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
    if name != "memoise":  # calls fire through both kinds of callee
        assert fused["M-Rec"] > 0 and fused["curried M-App"] > 0 and fused["curried M-Rec"] > 0
        assert chained(fused) > 0


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


def curried(fused):
    return fused["curried M-App"] + fused["curried M-Rec"]


def chained(fused):
    return fused["chained M-App"] + fused["chained M-Rec"]


def check_loop_turns(term):
    """An unstopped run takes one turn per rule, less two for each fused
    three-rule let, three for each curried call and six for each chained
    call, plus one for the final stop."""

    steps, fused = single_steps(term)
    kind, turns = loop_iterations(mc.inject(term), 10**6)
    assert kind == "value"
    saved = 2 * sum(fused.values()) + curried(fused) + 4 * chained(fused)
    assert turns == len(steps) - saved + 1
    return steps, fused


def test_fused_let_takes_one_loop_turn():
    for name, bottom, forms in [
        ("naivecount-odd-2", mc.PURE_CONT,
         ("const", "M-Rec", "curried M-App", "curried M-Rec", "chained M-Rec")),
        # effcount adds in tail position only
        ("effcount-odd-2", mc.ID_CONT,
         ("M-Rec", "curried M-App", "curried M-Rec", "chained M-Rec")),
    ]:
        term = CATALOG[name]()
        assert mc.inject(term).kont == bottom, name
        steps, fused = check_loop_turns(term)
        # one transition at a time, nothing fuses
        st = mc.inject(term)
        assert loop_iterations(st, 3) == ("fuel", 3) and st.rule == steps[2][0], name
        assert sum(rule == "M-Let" for rule, _, _ in steps) > sum(fused.values()), name
        assert all(fused[form] > 0 for form in forms), name


def _plus(x, y):
    return App(Const("+"), Pair(Var(x), Var(y)))


# Curried calls ``let g <- f a in g b``, each pinned as (value, ticks,
# envOps).  The parser renames every binder apart, so the inner parameter
# that shadows the outer one is built from nodes.
CURRIED = {
    "fun callee": (parse_term("""
let f = (fun (x : Nat) -> return (fun (y : Nat) -> let s <- x + y in s + x)) in
let a = 3 in let b = 4 in
let g <- f a in g b
"""), ("10", 14, 15)),
    "rec callee": (parse_term("""
let f = (rec (f : Nat -> Nat -> Nat) x -> return (fun (y : Nat) ->
  let z <- x = 0 in
  if z then return y else
  let x1 <- x - 1 in let y1 <- y + 2 in let g <- f x1 in g y1)) in
let a = 3 in let b = 1 in
let g <- f a in g b
"""), ("7", 56, 64)),
    "shadowing parameter": (
        Let("f", Return(Lam("x", Return(Lam("x", _plus("x", "x"))))),
            Let("a", Return(Num(3)), Let("b", Return(Num(4)),
                Let("g", App(Var("f"), Var("a")), App(Var("g"), Var("b")))))),
        ("8", 11, 12),
    ),
    "pair argument": (parse_term("""
let f = (fun (p : Nat * Nat) -> return (fun (y : Nat) ->
  let (u, v) = p in let w <- u + v in w + y)) in
let b = 3 in
let g <- f (1, 2) in g b
"""), ("6", 13, 16)),
    "closure argument": (parse_term("""
let c = 5 in
let f = (fun (h : Nat -> Nat) -> return (fun (y : Nat) -> let z <- h y in z + c)) in
let b = 2 in
let r <- (let g <- f (fun (z : Nat) -> z + c) in g b) in
r + c
"""), ("17", 18, 20)),
    # the resumption captures the fused call's environment, twice resumed
    "under a handler": (parse_program("""
operation Ask : Unit -> Nat
handle
  let f = (fun (x : Nat) -> return (fun (y : Nat) ->
    let k <- do Ask () in let s <- x + y in s + k)) in
  let a = 1 in let b = 2 in
  let g <- f a in g b
with { val v -> return v; Ask () r -> let u <- r 10 in let w <- r 20 in u + w }
""")[1], ("36", 33, 36)),
}

_UNCURRIED = """
let f = (fun (x : Nat) -> return (fun (y : Nat) -> return x)) in
let a = 3 in
let g <- f a in {}
"""
NOT_CURRIED = {body: parse_term(_UNCURRIED.format(body)) for body in ("g g", "g 1", "return g")}


def check_value(term, steps, pinned):
    """A run and the single steps both end at the pinned (value, ticks,
    envOps)."""

    res = mc.run_machine(term)
    assert (repr(res.value), res.ticks, res.envops) == pinned
    # the value stop after the last single step fires no rule
    last = steps[-1][2]
    stop = last.fork(last.comp)
    assert mc.drive(stop, len(steps) + 1) == "value"
    assert (repr(stop.out), len(steps), steps[-1][1] + stop.envops) == pinned


@pytest.mark.parametrize("name", sorted(CURRIED))
def test_curried_calls_fuse_and_stop_on_every_tick(name):
    term, pinned = CURRIED[name]
    check_every_fuel_stop(term)
    steps, fused = check_loop_turns(term)
    assert curried(fused) > 0
    check_value(term, steps, pinned)


@pytest.mark.parametrize("body", sorted(NOT_CURRIED))
def test_other_let_bodies_do_not_fuse_the_fourth_rule(body):
    # the leaf call still fuses; the turn count shows the M-App did not
    term = NOT_CURRIED[body]
    check_every_fuel_stop(term)
    _, fused = check_loop_turns(term)
    assert curried(fused) == 0 and fused["M-App"] == 1


def test_a_curried_call_short_of_fuel_fuses_only_the_leaf_call():
    term, _ = CURRIED["fun callee"]
    steps, fused = single_steps(term)
    assert curried(fused) == 1
    # k: the ticks before the curried let's M-Let
    k = next(
        k for k, (_, _, st) in enumerate(steps, 1)
        if st.comp.__class__ is Let and _curried_body(st.comp)
    )
    for fuel, turns in [(k + 3, 2), (k + 4, 1)]:
        st = mc.inject(term)
        assert mc.drive(st, k) == "fuel"
        assert loop_iterations(st, fuel) == ("fuel", 1)
        if turns == 2:  # M-Let, M-App and M-RetCont, then the M-App alone
            assert st.rule == "M-RetCont" and same_state(st, steps[k + 2][2])
            assert loop_iterations(st, k + 4) == ("fuel", 1)
        assert st.rule == "M-App" and st.ticks == k + 4
        assert st.envops == steps[k + 3][1] and same_state(st, steps[k + 3][2])


def _minus(x, y):
    return App(Const("-"), Pair(Var(x), Var(y)))


# Chained calls ``let g1 <- f a in let g2 <- g1 b in g2 c``, each pinned
# as (value, ticks, envOps).  The shadowing one is built from nodes, as
# the parser renames binders apart: each let is ``g``, and the two inner
# parameters are both ``x``, so the last binding wins.
CHAINED = {
    "fun callee": (parse_term("""
let f = (fun (p : Nat) -> return (fun (x : Nat) -> return (fun (y : Nat) ->
  let s <- p + x in let t <- s + y in t + p))) in
let a = 3 in let b = 4 in let c = 5 in
let g1 <- f a in let g2 <- g1 b in g2 c
"""), ("15", 22, 23)),
    "rec callee": (parse_term("""
let f = (rec (f : Nat -> Nat -> Nat -> Nat) n -> return (fun (x : Nat) -> return (fun (y : Nat) ->
  let z <- n = 0 in
  if z then x + y else
  let n1 <- n - 1 in let x1 <- x + 2 in
  let g1 <- f n1 in let g2 <- g1 x1 in g2 y))) in
let a = 3 in let b = 1 in let c = 4 in
let g1 <- f a in let g2 <- g1 b in g2 c
"""), ("11", 71, 82)),
    "shadowing": (
        Let("f", Return(Lam("p", Return(Lam("x", Return(Lam("x", _minus("x", "p"))))))),
            Let("a", Return(Num(2)), Let("b", Return(Num(4)), Let("c", Return(Num(9)),
                Let("g", App(Var("f"), Var("a")),
                    Let("g", App(Var("g"), Var("b")), App(Var("g"), Var("c")))))))),
        ("7", 16, 17),
    ),
    "literal argument": (parse_term("""
let f = (fun (p : Nat) -> return (fun (x : Nat) -> return (fun (y : Nat) ->
  let s <- p + x in s + y))) in
let b = 4 in let c = 5 in
let g1 <- f 3 in let g2 <- g1 b in g2 c
"""), ("12", 17, 18)),
    # the resumption captures the fused call's environment, twice resumed
    "under a handler": (parse_program("""
operation Ask : Unit -> Nat
handle
  let f = (fun (p : Nat) -> return (fun (x : Nat) -> return (fun (y : Nat) ->
    let k <- do Ask () in let s <- p + x in let t <- s + y in t + k))) in
  let a = 1 in let b = 2 in let c = 3 in
  let g1 <- f a in let g2 <- g1 b in g2 c
with { val v -> return v; Ask () r -> let u <- r 10 in let w <- r 20 in u + w }
""")[1], ("42", 44, 47)),
}

_UNCHAINED = """
let f = (fun (p : Nat) -> return (fun (x : Nat) -> {})) in
let a = 3 in let b = 4 in let c = 5 in
let g1 <- f a in {}
"""
_INNER = "return (fun (y : Nat) -> return p)"
# what fuses instead of the chain, for each inner let
NOT_CHAINED = {
    "b is g1": (_INNER, "let g2 <- g1 g1 in g2 c", {"M-App": 1, "curried M-App": 1}),
    "c is g1": (_INNER, "let g2 <- g1 b in g2 g1", {"M-App": 1, "curried M-App": 1}),
    "g2 g2": (_INNER, "let g2 <- g1 b in g2 g2", {"M-App": 2}),
    "literal b": (_INNER, "let g2 <- g1 1 in g2 c", {"M-App": 1, "curried M-App": 1}),
    "inner body not a return": (
        "let u <- return x in return (fun (y : Nat) -> return p)",
        "let g2 <- g1 b in g2 c",
        {"M-App": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(CHAINED))
def test_chained_calls_fuse_and_stop_on_every_tick(name):
    term, pinned = CHAINED[name]
    check_every_fuel_stop(term)
    steps, fused = check_loop_turns(term)
    assert chained(fused) > 0
    check_value(term, steps, pinned)


@pytest.mark.parametrize("name", sorted(NOT_CHAINED))
def test_other_chains_do_not_fuse_seven_rules(name):
    inner, body, forms = NOT_CHAINED[name]
    term = parse_term(_UNCHAINED.format(inner, body))
    check_every_fuel_stop(term)
    _, fused = check_loop_turns(term)
    assert fused == forms
    assert repr(mc.run_machine(term).value) == "3"


def test_a_chained_call_short_of_fuel_fuses_as_its_fuel_allows():
    term, _ = CHAINED["fun callee"]
    steps, fused = single_steps(term)
    assert chained(fused) == 1
    # k: the ticks before the chained let's M-Let
    k = next(
        k for k, (_, _, st) in enumerate(steps, 1)
        if st.comp.__class__ is Let and _chained_body(st.comp)
    )
    # Fuel for 3 to 6 of the 7 rules: the leaf call fuses, then the inner
    # let takes what is left, as its M-Let alone, with its M-App, or as a
    # fused leaf call; fuel for all 7 fuses the chain.
    for extra, turns, rule in [
        (3, 1, "M-RetCont"), (4, 2, "M-Let"), (5, 3, "M-App"), (6, 2, "M-RetCont"), (7, 1, "M-App"),
    ]:
        st = mc.inject(term)
        assert mc.drive(st, k) == "fuel"
        assert loop_iterations(st, k + extra) == ("fuel", turns), extra
        assert st.ticks == k + extra and st.rule == rule == steps[k + extra - 1][0]
        assert st.envops == steps[k + extra - 1][1] and same_state(st, steps[k + extra - 1][2])


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

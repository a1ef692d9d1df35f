"""The instrumented CEK abstract machine.

One machine runs every term.  Its continuation is a stack of
resumptions, each pairing a pure continuation (a stack of let-frames)
with a handler closure.  A pure term never pushes a handler, so it runs
on a single resumption: the base machine of the cost model is this
machine's pure fragment, the one-resumption special case of the
generalised continuation (Hillerström, Lindley & Atkey, JFP 2020).

A pure run has no handler.  A term that uses effects runs over
`ID_CONT`, one resumption under the identity handler, and ends
after that handler's return clause fires (M-RetHandler).  A pure term,
like a probed predicate, runs over `PURE_CONT`, one resumption with no
handler, and ends when its value meets the empty continuation: it pays
no tick for a handler it never installed.

The machine is metered.  ``ticks`` counts fired transition rules,
exactly one per rule; interpreting a value term into a machine value
never ticks.  ``envops`` counts environment lookups and single-binding
extensions.  Every data structure a resumption captures is persistent
(a captured environment is never extended in place, continuations are
linked tuples), so capturing the topmost resumption is O(1) and captured
continuations can be re-invoked any number of times.

Rule names live in `drive`: each branch of its dispatch is one rule and
names itself, so `step` and `trace_run` read the name off the state that
a one-transition run stops in.  `RULES` lists every name `drive` gives.

How a transition is carried out in Python is not part of the cost model,
so `drive` takes shortcuts that leave ticks and envOps as they are: it
reads variable operands inline, extends an environment in place while
nothing has captured it, and runs four lets as superoperators.  `interp`
reads the variable components of a pair or a cons cell inline, loops
along a literal list's spine, and returns the shared `VTRUE`/`VFALSE`
for `inl ()`/`inr ()`.
docs/semantics.md §Cost model describes each of them, with its rules,
its envOps and what it does when the fuel runs short.

The store and the memo table are deliberately *not* persistent: they are
threaded through a run, so re-invoking a resumption sees the current
cell contents (ML-style references).

Three extensions beyond the pure rules, one tick each:
reference-cell allocate/read/write, and forcing a memoised thunk.
"""

from __future__ import annotations

from dataclasses import dataclass

from fxlang.errors import FuelExhausted, StuckError
from fxlang.pprint import render_mval
from fxlang.syntax import (
    App,
    Assign,
    Case,
    CaseList,
    Cons,
    Const,
    Deref,
    Do,
    Handle,
    Handler,
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
    Signature,
    Split,
    Term,
    UNIT_V,
    UnitVal,
    Var,
    complete_handlers,
    uses_effects,
)

DEFAULT_FUEL = 10**8

# Every rule `drive` fires, once, with its kind.  The two commutative
# rules push a frame that small-step keeps inside its term; each of the
# 19 principal ones matches one small-step reduction (Accattoli,
# Barenbaum & Mazza, "Distilling abstract machines", ICFP 2014), but for
# two memo rules: M-Memo-Hit stands for the several reductions with which
# small-step computes the recorded value again, and M-Memo-Record for
# none: it records a forced value and returns it unchanged.
RULES: tuple[tuple[str, str], ...] = (
    ("M-App", "principal"),
    ("M-Rec", "principal"),
    ("M-Const", "principal"),
    ("M-Split", "principal"),
    ("M-CaseL", "principal"),
    ("M-CaseR", "principal"),
    ("M-CaseNil", "principal"),
    ("M-CaseCons", "principal"),
    ("M-Let", "commutative"),
    ("M-RetCont", "principal"),
    ("M-Handle", "commutative"),
    ("M-RetHandler", "principal"),
    ("M-Handle-Op", "principal"),
    ("M-Resume", "principal"),
    ("M-Alloc", "principal"),
    ("M-Deref", "principal"),
    ("M-Assign", "principal"),
    ("M-Memo", "principal"),
    ("M-Memo-Hit", "principal"),
    ("M-Memo-Force", "principal"),
    ("M-Memo-Record", "principal"),
)


# ---------------------------------------------------------------------------
# Machine values
# ---------------------------------------------------------------------------
#
# Numerals are plain ints; constants are the Const term itself; a
# resumption is a tuple (pure_cont, handler_closure) so that the
# continuation entry and the first-class value are literally the same
# object.  A pure continuation is a flat linked tuple: None, or a
# let-frame (env, name, term, rest), or a memo-record frame (cell_id,
# None, None, rest); one tuple per push.  Handler closures are
# (env, Handler), or None in the one resumption of a pure run.
# Generalised continuations are linked tuples None | (resumption, rest).
#
# The value classes with fields are dataclasses that write out their own
# ``__slots__``: ``dataclass(slots=True)`` would build a second class and
# leave the first a subclass of ``_Value`` until the cycle collector runs.


class _Value:
    """The machine values' one printer: `repr` is the `fx run` format."""

    __slots__ = ()

    def __repr__(self):
        return render_mval(self)


class VUnit(_Value):
    __slots__ = ()


VUNIT = VUnit()


@dataclass(repr=False)
class VPair(_Value):
    __slots__ = ("fst", "snd")
    fst: object
    snd: object


@dataclass(repr=False)
class VInl(_Value):
    __slots__ = ("value",)
    value: object


@dataclass(repr=False)
class VInr(_Value):
    __slots__ = ("value",)
    value: object


class VNil(_Value):
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is VNil


VNIL = VNil()


@dataclass(repr=False)
class VCons(_Value):
    __slots__ = ("head", "tail")
    head: object
    tail: object

    # Loops along the spine: effsearch returns lists of thousands of points.
    def __eq__(self, other):
        a, b = self, other
        while a.__class__ is VCons:
            if b.__class__ is not VCons or a.head != b.head:
                return False
            a, b = a.tail, b.tail
        return a == b


@dataclass(repr=False, eq=False)
class VClosure(_Value):
    """A `Lam` or a `Rec` with its environment; applying a `Rec` binds
    its own name as well (M-Rec)."""

    __slots__ = ("env", "term")
    env: dict
    term: Term


@dataclass(repr=False)
class VLoc(_Value):
    __slots__ = ("index",)
    index: int


@dataclass(repr=False, eq=False)
class VMemo(_Value):
    """A memoised thunk: a closure plus a cell in the run's memo table."""

    __slots__ = ("cell", "thunk")
    cell: int
    thunk: object


class VSentinel(_Value):
    """The probe value: a stand-in for a free variable of function type.

    It is never applicable; the machine stopping on an application of it
    is how decision-tree extraction recognises a query.
    """

    __slots__ = ()
    name = "q"  # the variable it stands in for


VTRUE = VInl(VUNIT)
VFALSE = VInr(VUNIT)


def mval_to_bool(v) -> bool:
    if v.__class__ is VInl and v.value.__class__ is VUnit:
        return True
    if v.__class__ is VInr and v.value.__class__ is VUnit:
        return False
    raise StuckError(f"expected a boolean machine value, got {v!r}")


def mval_list(v) -> list:
    out = []
    while v.__class__ is VCons:
        out.append(v.head)
        v = v.tail
    if v.__class__ is not VNil:
        raise StuckError("expected a cons-list machine value")
    return out


# The bottoms of a generalised continuation: an effectful run starts under
# the identity handler, a pure run on one resumption with no handler.  No
# rule writes a handler closure's environment in place (M-RetHandler and
# M-Handle-Op copy it), so every effectful run shares the one ``{}``.
ID_HANDLER = Handler("x", Return(Var("x")), {})
ID_CONT = ((None, ({}, ID_HANDLER)), None)
PURE_CONT = ((None, None), None)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FinalValue:
    value: object  # machine value


@dataclass(slots=True)
class FinalUnhandledOp:
    op: str
    arg: object  # machine value


@dataclass(slots=True)
class RunResult:
    outcome: FinalValue | FinalUnhandledOp
    ticks: int
    envops: int

    @property
    def value(self):
        if isinstance(self.outcome, FinalUnhandledOp):
            raise StuckError(f"unhandled operation {self.outcome.op}")
        return self.outcome.value


# ---------------------------------------------------------------------------
# Value interpretation (tick-free)
# ---------------------------------------------------------------------------


def interp(v: Term, env: dict, st: MachineState):
    cls = v.__class__
    if cls is Var:
        st.envops += 1
        return env[v.name]
    if cls is Num:
        return v.value
    if cls is Quote:
        return v.mval
    if cls is Lam or cls is Rec:
        return VClosure(env, v)
    if cls is UnitVal:
        return VUNIT
    if cls is Inl:
        v = v.value
        return VTRUE if v.__class__ is UnitVal else VInl(interp(v, env, st))
    if cls is Inr:
        v = v.value
        return VFALSE if v.__class__ is UnitVal else VInr(interp(v, env, st))
    if cls is Pair:
        a = v.fst
        if a.__class__ is Var:
            st.envops += 1
            a = env[a.name]
        else:
            a = interp(a, env, st)
        b = v.snd
        if b.__class__ is Var:
            st.envops += 1
            return VPair(a, env[b.name])
        return VPair(a, interp(b, env, st))
    if cls is Const:
        return v
    if cls is Nil:
        return VNIL
    if cls is Cons:
        t = v.tail
        if t.__class__ is Cons:
            # a literal list: read the heads in order, build from the end
            heads = []
            while v.__class__ is Cons:
                heads.append(interp(v.head, env, st))
                v = v.tail
            v = interp(v, env, st)
            for h in reversed(heads):
                v = VCons(h, v)
            return v
        h = v.head
        if h.__class__ is Var:
            st.envops += 1
            h = env[h.name]
        else:
            h = interp(h, env, st)
        if t.__class__ is Var:
            st.envops += 1
            return VCons(h, env[t.name])
        return VCons(h, interp(t, env, st))
    if cls is Loc:
        return VLoc(v.index)
    raise StuckError(f"not a value term: {v!r}")


def delta_m(name: str, a, b):
    """The arithmetic constants on the two components of their pair."""

    if a.__class__ is not int or b.__class__ is not int:
        raise StuckError(f"constant {name!r} applied to a non-numeric pair")
    if name == "+":
        return a + b
    if name == "-":
        return a - b if a > b else 0
    if name == "=":
        return VTRUE if a == b else VFALSE
    raise StuckError(f"unknown constant {name!r}")


def _apply_const(name: str, arg: Term, env: dict, st: MachineState):
    """M-Const's result: constant ``name`` applied to the value term
    ``arg``.  A literal pair's components are read directly, with no
    `VPair` built; an operand bound to a pair goes through `interp`."""

    if arg.__class__ is Pair:
        a = arg.fst
        if a.__class__ is Var:
            st.envops += 1
            a = env[a.name]
        elif a.__class__ is Num:
            a = a.value
        else:
            a = interp(a, env, st)
        b = arg.snd
        if b.__class__ is Var:
            st.envops += 1
            b = env[b.name]
        elif b.__class__ is Num:
            b = b.value
        else:
            b = interp(b, env, st)
        return delta_m(name, a, b)
    pv = interp(arg, env, st)
    if pv.__class__ is not VPair:
        raise StuckError(f"constant {name!r} applied to a non-numeric pair")
    return delta_m(name, pv.fst, pv.snd)


# ---------------------------------------------------------------------------
# The machine (resumable fast loop)
# ---------------------------------------------------------------------------


class MachineState:
    """Mutable machine state, so a run can stop and be resumed.

    The decision-tree extractor stops runs at queries and forks several
    futures from the stopped state; nothing snapshots it.  The store's
    locations are always ``0 .. len(store) - 1``: M-Alloc takes
    ``len(store)`` and M-Assign writes only an allocated cell.  M-Memo
    likewise takes ``len(memo)`` for a new, unrecorded memo cell.
    """

    __slots__ = (
        "comp", "env", "kont", "store", "memo",
        "ticks", "envops", "rule", "out",
    )

    def __init__(self, comp, env, kont, store=None, memo=None):
        self.comp = comp
        self.env = env
        self.kont = kont
        self.store = {} if store is None else store
        self.memo = {} if memo is None else memo
        self.ticks = 0
        self.envops = 0
        self.rule = None
        self.out = None

    def fork(self, comp):
        """A future of this state with a replaced computation.

        Persistent components are shared; the store and the memo table
        are copied so sibling futures cannot interfere.
        """

        return MachineState(comp, self.env, self.kont, dict(self.store), dict(self.memo))


def drive(st: MachineState, fuel: int) -> str:
    """Run the machine until a final state, fuel exhaustion, or a query:
    an application of a `VSentinel`, which only decision-tree extraction
    puts in an environment.

    Returns the outcome kind: 'value', 'op', 'query' or 'fuel'.
    'value' means a value met the empty continuation, which a pure run,
    having no handler, reaches straight from its let-frames; 'op' means
    an operation fell through the bottom resumption: the
    unhandled-operation final state.  The kind says how to read
    ``st.out``: the result value after 'value', the queried index after
    'query', a `FinalUnhandledOp` after 'op'; a 'fuel' stop leaves it as
    it was.

    Each branch that fires a transition names its rule in ``rule``; a
    'fuel' stop leaves the last rule fired on ``st.rule``.

    A superoperator (docs/semantics.md §Cost model) fires only when the
    fuel covers all of its rules, and leaves ``rule`` at the last one it
    fired, so a run never stops inside one and a one-transition run
    (`step`, `trace_run`) never fuses.

    ``own`` is true only while ``env`` is a dict that this call copied
    and nothing has captured since; then M-Split, M-CaseL, M-CaseR,
    M-CaseCons and the fused lets extend it in place instead of copying
    it.  A let-frame push, M-Handle and an `interp` call whose result may
    close over ``env`` capture it (a leaf call's argument among them),
    and so does parking it on ``st``; at entry ``env`` is the state's, so
    ``own`` starts false.  A rule that hands control to a return (M-Memo,
    M-Assign, an `interp` in the return branch) needs no reset: every
    return rebinds ``env`` (M-RetCont, M-RetHandler), parks it, or returns
    again (M-Memo-Record), so nothing extends it in place first.  envOps
    are counted in a local and added to ``st.envops`` on every exit.
    """

    comp = st.comp
    env = st.env
    own = False
    # The topmost resumption is kept unpacked: its pure continuation
    # ``sigma`` and handler closure ``chi`` over the rest of the
    # generalised continuation.  So pushing and popping let-frames costs
    # what it would with a bare stack of frames, and the resumption is
    # rebuilt only when captured, pushed under a handler or parked on
    # ``st``.  ``chi`` is None once the bottom resumption has no
    # handler: on a pure run, or after the identity handler has returned.
    (sigma, chi), rest = st.kont
    store = st.store
    memo = st.memo
    ticks = st.ticks
    envops = 0

    try:
        while True:
            cls = comp.__class__

            if cls is Return:
                x = comp.value
                if x.__class__ is Var:
                    envops += 1
                    val = env[x.name]
                else:
                    val = interp(x, env, st)
                if sigma is not None:
                    fenv, fname, comp, sigma = sigma
                    if fname is None:
                        # a memo-record frame: record, then return again
                        rule = "M-Memo-Record"
                        memo[fenv] = val
                        comp = Return(Quote(val))
                    else:
                        rule = "M-RetCont"
                        env = dict(fenv)
                        env[fname] = val
                        envops += 1
                        own = True
                    ticks += 1
                elif chi is None:
                    st.out = val
                    return _park(st, "value", comp, env, sigma, chi, rest, ticks)
                else:
                    rule = "M-RetHandler"
                    henv, h = chi
                    if rest is None:
                        chi = None
                    else:
                        (sigma, chi), rest = rest
                    env = dict(henv)
                    env[h.val_name] = val
                    envops += 1
                    own = True
                    comp = h.val_body
                    ticks += 1

            elif cls is App:
                x = comp.fn
                if x.__class__ is Var:
                    envops += 1
                    fv = env[x.name]
                else:
                    fv = interp(x, env, st)
                fcls = fv.__class__
                if fcls is VClosure:
                    x = comp.arg
                    if x.__class__ is Var:
                        envops += 1
                        av = env[x.name]
                    else:
                        av = interp(x, env, st)
                    fn = fv.term
                    env = dict(fv.env)
                    own = True
                    if fn.__class__ is Rec:
                        rule = "M-Rec"
                        env[fn.fname] = fv
                        envops += 1
                    else:
                        rule = "M-App"
                    env[fn.param] = av
                    envops += 1
                    comp = fn.body
                    ticks += 1
                elif fcls is Const:
                    if fv.name == "memoise":
                        rule = "M-Memo"
                        val = interp(comp.arg, env, st)
                        if val.__class__ is not VMemo:  # a memoised thunk stays as it is
                            cell = len(memo)
                            memo[cell] = _ABSENT
                            val = VMemo(cell, val)
                    else:
                        rule = "M-Const"
                        val = _apply_const(fv.name, comp.arg, env, st)
                    comp = Return(Quote(val))
                    ticks += 1
                elif fcls is tuple:
                    rule = "M-Resume"
                    comp = Return(comp.arg)
                    rest = ((sigma, chi), rest)
                    sigma, chi = fv
                    ticks += 1
                elif fcls is VMemo:
                    cached = memo.get(fv.cell, _ABSENT)
                    if cached is not _ABSENT:
                        rule = "M-Memo-Hit"
                        comp = Return(Quote(cached))
                    else:
                        rule = "M-Memo-Force"
                        thunk = fv.thunk
                        sigma = (fv.cell, None, None, sigma)
                        if thunk.__class__ is tuple:
                            # A memoised resumption resumes as M-Resume does.
                            comp = Return(comp.arg)
                            rest = ((sigma, chi), rest)
                            sigma, chi = thunk
                        elif thunk.__class__ is VClosure:
                            av = interp(comp.arg, env, st)
                            fn = thunk.term
                            env = dict(thunk.env)
                            own = True
                            if fn.__class__ is Rec:
                                env[fn.fname] = thunk
                                envops += 1
                            env[fn.param] = av
                            envops += 1
                            comp = fn.body
                        else:
                            raise StuckError("memoised value is not a closure")
                    ticks += 1
                elif fcls is VSentinel:
                    st.out = interp(comp.arg, env, st)
                    return _park(st, "query", comp, env, sigma, chi, rest, ticks)
                else:
                    raise StuckError(f"application of a non-function: {fv!r}")

            elif cls is Let:
                x = comp.bound
                # The callee of a leaf call is peeked at with ``env.get``;
                # its lookup is counted only if the fusion fires.
                if x.__class__ is App and ticks + 3 <= fuel and (
                    (fv := x.fn).__class__ is Const and fv.name != "memoise"
                    and x.arg.__class__ is Pair
                    or fv.__class__ is Var
                    and (fv := env.get(fv.name)).__class__ is VClosure
                    and fv.term.body.__class__ is Return
                ):
                    rule = "M-RetCont"
                    if fv.__class__ is Const:
                        # M-Let, M-Const, M-RetCont.  The result is a
                        # natural or a boolean, so nothing captures ``env``.
                        val = _apply_const(fv.name, x.arg, env, st)
                    else:
                        # M-Let, M-App or M-Rec, M-RetCont.  Besides the
                        # final bind, every leaf call counts the callee
                        # lookup and the parameter binding.
                        envops += 2
                        x = x.arg
                        if x.__class__ is Var:
                            envops += 1
                            av = env[x.name]
                        else:
                            av = interp(x, env, st)
                            own = False  # the argument may close over env
                        fn = fv.term
                        cenv = dict(fv.env)
                        if fn.__class__ is Rec:
                            cenv[fn.fname] = fv
                            envops += 1
                        cenv[fn.param] = av
                        x = fn.body.value
                        if x.__class__ is Var:
                            envops += 1
                            val = cenv[x.name]
                        else:
                            if (
                                x.__class__ is Lam
                                and (y := comp.body).__class__ is Let and ticks + 7 <= fuel
                                and (z := y.bound).__class__ is App
                                and z.fn.__class__ is Var and z.fn.name == comp.name
                                and (z := z.arg).__class__ is Var and z.name != comp.name
                                and (w := y.body).__class__ is App
                                and w.fn.__class__ is Var and w.fn.name == y.name
                                and (w := w.arg).__class__ is Var
                                and w.name != comp.name and w.name != y.name
                                and (w := x.body).__class__ is Return
                                and (w := w.value).__class__ is Lam
                            ):
                                # The chained call ``let g1 <- f a in let g2
                                # <- g1 b in g2 c``, ``x`` being ``fun x ->
                                # return (fun y -> N)``: the M-RetCont that
                                # binds ``g1``, the M-Let of ``g1 b`` and its
                                # M-App fire here, with their four envOps
                                # (bind g1, read g1, read b, bind x).  No
                                # closure is built for ``x``, and the inner
                                # let, a curried call, fuses just below.
                                cenv[x.param] = env[z.name]
                                envops += 4
                                ticks += 3
                                comp = y
                                x = w
                            if (
                                x.__class__ is Lam and ticks + 4 <= fuel
                                and (y := comp.body).__class__ is App
                                and y.fn.__class__ is Var and y.fn.name == comp.name
                                and (y := y.arg).__class__ is Var and y.name != comp.name
                            ):
                                # The curried call ``let g <- f a in g b``:
                                # the M-RetCont that binds ``g`` to ``fun y
                                # -> N`` and the M-App of ``g b`` fire here
                                # too, with their four envOps (bind g, read
                                # g, read b, bind y).  No closure is built,
                                # so nothing has captured ``cenv``: it
                                # becomes ``env``, owned.
                                rule = "M-App"
                                cenv[x.param] = env[y.name]
                                envops += 4
                                env = cenv
                                own = True
                                comp = x.body
                                ticks += 4
                                if ticks >= fuel:
                                    st.rule = rule
                                    return _park(st, "fuel", comp, env, sigma, chi, rest, ticks)
                                continue
                            val = interp(x, cenv, st)
                    if not own:
                        env = dict(env)
                        own = True
                    env[comp.name] = val
                    envops += 1
                    comp = comp.body
                    ticks += 3
                else:
                    rule = "M-Let"
                    sigma = (env, comp.name, comp.body, sigma)
                    own = False
                    comp = x
                    ticks += 1

            elif cls is Case:
                x = comp.scrutinee
                if x.__class__ is Var:
                    envops += 1
                    sv = env[x.name]
                else:
                    sv = interp(x, env, st)
                    own = False
                scls = sv.__class__
                if scls is VInl:
                    rule = "M-CaseL"
                    name = comp.left_name
                    comp = comp.left
                elif scls is VInr:
                    rule = "M-CaseR"
                    name = comp.right_name
                    comp = comp.right
                else:
                    raise StuckError("case on a non-sum")
                if not own:
                    env = dict(env)
                    own = True
                env[name] = sv.value
                envops += 1
                ticks += 1

            elif cls is Do:
                clause = None if chi is None else chi[1].clauses.get(comp.op)
                if clause is None:
                    if rest is None:
                        # Fell through to the bottom of the continuation:
                        # the unhandled-operation final state.
                        st.out = FinalUnhandledOp(comp.op, interp(comp.arg, env, st))
                        return _park(st, "op", comp, env, sigma, chi, rest, ticks)
                    raise StuckError(
                        f"mid-stack handler lacks a clause for {comp.op!r}; "
                        "handlers must be completed before running"
                    )
                rule = "M-Handle-Op"
                p, r, body = clause
                av = interp(comp.arg, env, st)
                env = dict(chi[0])
                own = True
                env[p] = av
                env[r] = (sigma, chi)
                envops += 2
                comp = body
                (sigma, chi), rest = rest
                ticks += 1

            elif cls is Split:
                x = comp.pair
                if x.__class__ is Var:
                    envops += 1
                    pv = env[x.name]
                else:
                    pv = interp(x, env, st)
                    own = False
                if pv.__class__ is not VPair:
                    raise StuckError("split of a non-pair")
                rule = "M-Split"
                if not own:
                    env = dict(env)
                    own = True
                env[comp.fst_name] = pv.fst
                env[comp.snd_name] = pv.snd
                envops += 2
                comp = comp.body
                ticks += 1

            elif cls is CaseList:
                x = comp.scrutinee
                if x.__class__ is Var:
                    envops += 1
                    sv = env[x.name]
                else:
                    sv = interp(x, env, st)
                    own = False
                scls = sv.__class__
                if scls is VNil:
                    rule = "M-CaseNil"
                    comp = comp.nil_body
                elif scls is VCons:
                    rule = "M-CaseCons"
                    if not own:
                        env = dict(env)
                        own = True
                    env[comp.head_name] = sv.head
                    env[comp.tail_name] = sv.tail
                    envops += 2
                    comp = comp.cons_body
                else:
                    raise StuckError("list case on a non-list")
                ticks += 1

            elif cls is Handle:
                rule = "M-Handle"
                rest = ((sigma, chi), rest)
                sigma = None
                chi = (env, comp.handler)
                own = False
                comp = comp.body
                ticks += 1

            elif cls is LetRef:
                rule = "M-Alloc"
                loc = len(store)
                # the initial value may close over ``env``
                store[loc] = interp(comp.init, env, st)
                env = dict(env)
                own = True
                env[comp.name] = VLoc(loc)
                envops += 1
                comp = comp.body
                ticks += 1

            elif cls is Deref:
                rv = interp(comp.ref, env, st)
                if rv.__class__ is not VLoc:
                    raise StuckError("dereference of a non-location")
                rule = "M-Deref"
                comp = Return(Quote(store[rv.index]))
                ticks += 1

            elif cls is Assign:
                rv = interp(comp.ref, env, st)
                if rv.__class__ is not VLoc:
                    raise StuckError("assignment to a non-location")
                if rv.index not in store:
                    raise StuckError(f"unbound location {rv.index}")
                rule = "M-Assign"
                store[rv.index] = interp(comp.value, env, st)
                comp = _RET_UNIT
                ticks += 1

            else:
                raise StuckError(f"no machine rule for {cls.__name__}")

            if ticks >= fuel:
                st.rule = rule
                return _park(st, "fuel", comp, env, sigma, chi, rest, ticks)
    except KeyError as e:
        # The loop's dict reads are ``env[name]`` and ``store[index]``.
        (key,) = e.args
        what = "variable" if key.__class__ is str else "location"
        raise StuckError(f"unbound {what} {key!r}") from None
    finally:
        st.envops += envops


def _park(st, kind, comp, env, sigma, chi, rest, ticks):
    """Leave a stopped run's registers on its state, so it can resume."""

    st.comp, st.env, st.ticks = comp, env, ticks
    st.kont = ((sigma, chi), rest)
    return kind


def _outcome(st, kind):
    """The final state a stopped run reached, from its stop kind; only
    decision-tree extraction reads a 'query' stop."""

    if kind == "query":
        raise StuckError("application of the probe value outside extraction")
    return st.out if kind == "op" else FinalValue(st.out)


_ABSENT = object()
_RET_UNIT = Return(UNIT_V)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def inject(term: Term, sig: Signature | None = None) -> MachineState:
    """Initial configuration for a closed term: its handlers completed
    against the signature, an empty environment, and the bottom
    continuation: `ID_CONT` for a term that uses effects, and
    `PURE_CONT`, which has no handler, for a pure one."""

    if sig:
        term = complete_handlers(term, sig)
    kont = ID_CONT if uses_effects(term) else PURE_CONT
    return MachineState(term, {}, kont)


def run_machine(term: Term, sig: Signature | None = None, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Drive a closed term from `inject` to a final state.

    Raises FuelExhausted if the budget runs out.
    """

    st = inject(term, sig)
    kind = drive(st, fuel)
    if kind == "fuel":
        raise FuelExhausted(st.ticks)
    return RunResult(_outcome(st, kind), st.ticks, st.envops)


# ---------------------------------------------------------------------------
# Single steps and traces: `drive` one transition at a time
# ---------------------------------------------------------------------------


def step(st: MachineState):
    """One machine transition on a fork of ``st`` (see `MachineState.fork`).

    Returns (rule_name, MachineState) or ('final', Final...) when ``st``
    is final.  The rule name is the one `drive` gave the transition it
    fired, one of `RULES`.
    """

    nxt = st.fork(st.comp)
    kind = drive(nxt, fuel=1)
    if kind == "fuel":  # the one transition fired
        return nxt.rule, nxt
    return "final", _outcome(nxt, kind)


def kont_depth(kont) -> int:
    """The number of handlers in a generalised continuation."""

    d = 0
    while kont is not None:
        (_, chi), kont = kont
        d += chi is not None
    return d


def trace_run(term: Term, sig: Signature | None = None, fuel: int = 100_000):
    """Run a term transition by transition, yielding
    (tick, rule, head-form, continuation-depth) tuples, and returning
    the final state the run reached, as `RunResult.outcome`.

    A pure run reports depth 0 throughout: it installs no handler.
    """

    st = inject(term, sig)
    while st.ticks < fuel:
        kind = drive(st, st.ticks + 1)
        if kind != "fuel":
            return _outcome(st, kind)  # raises on a query stop
        yield st.ticks, st.rule, st.comp.__class__.__name__, kont_depth(st.kont)
    raise FuelExhausted(st.ticks)

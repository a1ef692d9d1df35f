"""Substitution-based contextual small-step semantics.

This is the slow, obviously-correct evaluator the abstract machine is
tested against.  Each call to :func:`step` performs exactly one
reduction; finding the redex walks the evaluation context, which is
navigation rather than reduction and is not counted.

An evaluation context is ``E ::= [] | let x <- E in N | handle E with H``,
and its frames are the very `Let` and `Handle` nodes :func:`step` passes
through on the way down from the root; plugging a term back in rebuilds
them around it.  A handled operation's resumption is the context from
its nearest enclosing handler inward, that handler included: only
let-frames lie between the two, which is what makes handler selection
innermost-first and deterministic.

Configurations carry a store so the reference cells of the stateful
language fit the same interface; pure programs simply never touch it.
Its locations are always ``0 .. len(store) - 1``, so a fresh one is
``len(store)``.

:func:`subst` rebuilds only the nodes in which a substituted variable
occurs free, through :func:`fxlang.syntax.map_children`, and returns any
other subterm as the same object, unwalked.  Most of what a step
substitutes into is closed values that earlier steps substituted in (the
predicate, the loop closures), so a reduct shares them with its redex
instead of copying them again at every step.  Each node's free variables
are kept on the node.  :func:`subst` sets them on the nodes it builds,
from the sets of the nodes they replace, when the substituted values are
known to be closed, as they are on most reductions.  Any other node's
set comes from :func:`fxlang.syntax.free_vars`, which computes it once,
when it is first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from fxlang.errors import FuelExhausted, StuckError
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
    Inl,
    Inr,
    Lam,
    Let,
    LetRef,
    Loc,
    Nil,
    Num,
    Pair,
    Rec,
    Return,
    Signature,
    Split,
    Term,
    UNIT_V,
    Var,
    bool_,
    children,
    complete_handlers,
    free_vars,
    known_closed,
    map_children,
)


@dataclass(slots=True)
class StateConfig:
    """A computation paired with a store, and the number of resumption
    binders named so far (``resume.yN``)."""

    term: Term
    store: dict[int, Term] = field(default_factory=dict)
    resume_counter: int = 0


@dataclass(slots=True)
class NormalValue:
    value: Term


@dataclass(slots=True)
class NormalOp:
    """A computation stuck on an operation no handler surrounds."""

    op: str
    arg: Term


Normal = NormalValue | NormalOp


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def subst(t: Term, m: dict[str, Term]) -> Term:
    """Simultaneous substitution of values for free variables.

    Binders are not renamed, so the values are meant to be closed; the one
    open value is the probe variable `decompile.reify` makes of the
    machine's sentinel.  No recursion, so deep terms do not hit Python's
    limit.

    When every value is known to be closed, each node this builds gets
    its free variables from the node it replaces: that node's set minus
    the names substituted in it.  So a reduct is never walked again to
    find them.  Otherwise the new nodes' sets are left for
    :func:`fxlang.syntax.free_vars` to compute when asked: an open value
    can be captured, and walking a fresh value to learn that it is closed
    costs more than it saves (`decompile.reify` builds such values).
    """

    if not m:
        return t
    if t.__class__ is Var:
        return m.get(t.name, t)
    if free_vars(t).isdisjoint(m):
        return t
    # Breadth-first over the nodes a substituted variable occurs free in,
    # then rebuilt children first.  `kids` holds their new children, each
    # node's reversed, so rebuilding a node pops its own in constructor
    # order; a rebuilt node is written into its slot among its parent's.
    todo, slots, kids = [(t, m)], [-1], []
    for s, ms in todo:  # todo grows while read
        for c, names in reversed(children(s)):
            mc = ms
            if names and not ms.keys().isdisjoint(names):
                mc = {k: v for k, v in ms.items() if k not in names}
            if c.__class__ is Var:
                c = mc.get(c.name, c)
            elif mc and not free_vars(c).isdisjoint(mc):
                slots.append(len(kids))
                todo.append((c, mc))
            kids.append(c)
    pop = kids.pop
    take = lambda c, _: pop()
    closed = all(map(known_closed, m.values()))
    for i in range(len(todo) - 1, -1, -1):  # children before parents
        s, ms = todo[i]
        new = map_children(s, take)
        if closed:
            new._fv = s._fv.difference(ms)
        if i:
            kids[slots[i]] = new
    return new


def delta(c: str, v: Term) -> Term:
    """Interpretation of the arithmetic constants on closed values."""

    if c == "memoise":
        # Pure semantics: memoisation only changes cost, not meaning.
        return v
    if v.__class__ is not Pair or v.fst.__class__ is not Num or v.snd.__class__ is not Num:
        raise StuckError(f"constant {c!r} applied to a non-numeric pair")
    a, b = v.fst.value, v.snd.value
    if c == "+":
        return Num(a + b)
    if c == "-":
        return Num(a - b if a > b else 0)  # naturals: subtraction truncates
    if c == "=":
        return bool_(a == b)
    raise StuckError(f"unknown constant {c!r}")


# ---------------------------------------------------------------------------
# One reduction
# ---------------------------------------------------------------------------


def _rebuild(frames: list, core: Term) -> Term:
    """Plug core into the context whose frames, outermost first, are given."""

    for f in reversed(frames):
        if f.__class__ is Let:
            core = Let(f.name, core, f.body)
        else:
            core = Handle(core, f.handler)
    return core


def step(cfg: StateConfig, sig: Signature | None = None) -> StateConfig | Normal:
    """Perform exactly one reduction, or report the normal form."""

    frames: list = []
    m = cfg.term
    # Decompose: walk down the handler-context spine to the redex; each
    # node passed through is a frame of the context.
    while True:
        cls = m.__class__
        if cls is Let and m.bound.__class__ is not Return:
            frames.append(m)
            m = m.bound
        elif cls is Handle and m.body.__class__ is not Return:
            frames.append(m)
            m = m.body
        else:
            break

    if cls is Return:
        return NormalValue(m.value)

    if cls is Do:
        # The innermost enclosing handler fires; the resumption captures
        # the frames from it inward: it and the let-frames below it.
        for i in range(len(frames) - 1, -1, -1):
            if frames[i].__class__ is not Handle:
                continue
            h = frames[i].handler
            clause = h.clauses.get(m.op)
            if clause is None:
                raise StuckError(
                    f"handler lacks a clause for {m.op!r}; complete handlers first"
                )
            p, r, body = clause
            resumes = cfg.resume_counter + 1
            y = f"resume.y{resumes}"
            result_ty = sig[m.op][1] if sig and m.op in sig else None
            resumption = Lam(y, _rebuild(frames[i:], Return(Var(y))), result_ty)
            contractum = subst(body, {p: m.arg, r: resumption})
            return StateConfig(_rebuild(frames[:i], contractum), cfg.store, resumes)
        return NormalOp(m.op, m.arg)

    # Context redexes, beta-style redexes and the store rules.
    store = cfg.store
    if cls is Let:
        contractum = subst(m.body, {m.name: m.bound.value})
    elif cls is Handle:
        h = m.handler
        contractum = subst(h.val_body, {h.val_name: m.body.value})
    elif cls is App:
        fn = m.fn
        fcls = fn.__class__
        if fcls is Lam:
            contractum = subst(fn.body, {fn.param: m.arg})
        elif fcls is Rec:
            contractum = subst(fn.body, {fn.fname: fn, fn.param: m.arg})
        elif fcls is Const:
            contractum = Return(delta(fn.name, m.arg))
        else:
            raise StuckError(f"application of a non-function: {fn!r}")
    elif cls is Split:
        p = m.pair
        if p.__class__ is not Pair:
            raise StuckError("split of a non-pair")
        contractum = subst(m.body, {m.fst_name: p.fst, m.snd_name: p.snd})
    elif cls is Case:
        s = m.scrutinee
        if s.__class__ is Inl:
            contractum = subst(m.left, {m.left_name: s.value})
        elif s.__class__ is Inr:
            contractum = subst(m.right, {m.right_name: s.value})
        else:
            raise StuckError("case on a non-sum")
    elif cls is CaseList:
        s = m.scrutinee
        if s.__class__ is Nil:
            contractum = m.nil_body
        elif s.__class__ is Cons:
            contractum = subst(m.cons_body, {m.head_name: s.head, m.tail_name: s.tail})
        else:
            raise StuckError("list case on a non-list")
    elif cls is LetRef:
        loc = len(store)
        store = dict(store)
        store[loc] = m.init
        contractum = subst(m.body, {m.name: Loc(loc)})
    elif cls is Deref:
        r = m.ref
        if r.__class__ is not Loc:
            raise StuckError("dereference of a non-location")
        if r.index not in store:
            raise StuckError(f"unbound location {r.index}")
        contractum = Return(store[r.index])
    elif cls is Assign:
        r = m.ref
        if r.__class__ is not Loc:
            raise StuckError("assignment to a non-location")
        if r.index not in store:
            raise StuckError(f"unbound location {r.index}")
        store = dict(store)
        store[r.index] = m.value
        contractum = Return(UNIT_V)
    else:
        raise StuckError(f"no rule for {cls.__name__}")
    return StateConfig(_rebuild(frames, contractum), store, cfg.resume_counter)


def reductions(term: Term, sig: Signature | None = None, fuel: int = 100_000):
    """Iterate `step` from a term to a normal form, yielding the
    configuration each reduction reaches.

    The generator's return value is (normal form, number of reductions,
    final configuration).  Handlers are completed against the signature
    before stepping starts.  Raises FuelExhausted right after the
    reduction that uses up the budget, which is how divergence shows up
    in practice.
    """

    cfg = StateConfig(complete_handlers(term, sig) if sig else term)
    steps = 0
    while True:
        out = step(cfg, sig)
        if not isinstance(out, StateConfig):
            return out, steps, cfg
        steps += 1
        cfg = out
        yield cfg
        if steps >= fuel:
            raise FuelExhausted(steps)


def evaluate(
    term: Term, sig: Signature | None = None, fuel: int = 100_000
) -> tuple[Normal, int, StateConfig]:
    """Run `reductions` to its end: (normal form, number of reductions,
    final configuration).  Handlers are completed against the signature
    there, before stepping starts."""

    run = reductions(term, sig, fuel)
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value

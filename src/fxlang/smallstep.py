"""Substitution-based contextual small-step semantics.

This is the slow, obviously-correct evaluator the abstract machine is
tested against.  Each call to :func:`step` performs exactly one
reduction; finding the redex walks the evaluation context, which is
navigation rather than reduction and is not counted.

Handlers and plain let-frames live in separate context grammars: a
captured continuation only ever spans the pure let-frames between an
operation and its nearest enclosing handler, which is what makes handler
selection innermost-first and deterministic.

Configurations carry a location counter and a store so the reference
cells of the stateful language fit the same interface; pure programs
simply never touch them.

:func:`subst` returns every subterm in which no substituted variable
occurs free as the same object, without walking it.  Most of what a step
substitutes into is closed values that earlier steps substituted in (the
predicate, the loop closures), so a reduct shares them with its redex
instead of copying them again at every step.  Each node's free variables
come from :func:`fxlang.syntax.free_vars`, which caches them on the node.
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
    Rec,
    Return,
    Signature,
    Split,
    Term,
    UNIT_V,
    Var,
    bool_,
    complete_handlers,
    free_vars,
)


@dataclass(slots=True)
class StateConfig:
    """A computation paired with a store: (term, location counter, store),
    and the number of resumption binders named so far (``resume.yN``)."""

    term: Term
    loc_counter: int = 0
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
    residual: Term  # the whole normal form E[do op arg]


Normal = NormalValue | NormalOp


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


# Hand-written on purpose: the oracle's hot path; on `map_children`, `evaluate` ran 1.5x slower.
# A subterm whose free variables miss every key of m comes back unwalked.
# On the four small-step rows of the benchmark's `oracle` workload, 9 in
# 10 of the nodes a full walk visits are in such subterms.
def subst(t: Term, m: dict[str, Term]) -> Term:
    """Simultaneous substitution of values for free variables.

    Binders are not renamed, so the values are meant to be closed; the one
    open value is the probe variable `decompile.reify` makes of the
    machine's sentinel.
    """

    if not m:
        return t
    cls = t.__class__
    if cls is Var:
        return m.get(t.name, t)
    if free_vars(t).isdisjoint(m):
        return t
    if cls is Lam:
        m2 = {k: v for k, v in m.items() if k != t.param}
        return Lam(t.param, subst(t.body, m2), t.param_type)
    if cls is Rec:
        m2 = {k: v for k, v in m.items() if k != t.fname and k != t.param}
        return Rec(t.fname, t.param, subst(t.body, m2), t.fn_type)
    if cls is Pair:
        return Pair(subst(t.fst, m), subst(t.snd, m))
    if cls is Inl:
        return Inl(subst(t.value, m), t.ann)
    if cls is Inr:
        return Inr(subst(t.value, m), t.ann)
    if cls is Cons:
        return Cons(subst(t.head, m), subst(t.tail, m))
    if cls is App:
        return App(subst(t.fn, m), subst(t.arg, m))
    if cls is Return:
        return Return(subst(t.value, m))
    if cls is Let:
        m2 = {k: v for k, v in m.items() if k != t.name}
        return Let(t.name, subst(t.bound, m), subst(t.body, m2))
    if cls is Split:
        m2 = {k: v for k, v in m.items() if k != t.fst_name and k != t.snd_name}
        return Split(subst(t.pair, m), t.fst_name, t.snd_name, subst(t.body, m2))
    if cls is Case:
        ml = {k: v for k, v in m.items() if k != t.left_name}
        mr = {k: v for k, v in m.items() if k != t.right_name}
        return Case(
            subst(t.scrutinee, m),
            t.left_name,
            subst(t.left, ml),
            t.right_name,
            subst(t.right, mr),
        )
    if cls is CaseList:
        mc = {k: v for k, v in m.items() if k != t.head_name and k != t.tail_name}
        return CaseList(
            subst(t.scrutinee, m),
            subst(t.nil_body, m),
            t.head_name,
            t.tail_name,
            subst(t.cons_body, mc),
        )
    if cls is Do:
        return Do(t.op, subst(t.arg, m))
    if cls is Handle:
        h = t.handler
        mv = {k: v for k, v in m.items() if k != h.val_name}
        clauses = {}
        for op, (p, r, b) in h.clauses.items():
            mb = {k: v for k, v in m.items() if k != p and k != r}
            clauses[op] = (p, r, subst(b, mb))
        return Handle(subst(t.body, m), Handler(h.val_name, subst(h.val_body, mv), clauses))
    if cls is LetRef:
        m2 = {k: v for k, v in m.items() if k != t.name}
        return LetRef(t.name, subst(t.init, m), subst(t.body, m2))
    if cls is Deref:
        return Deref(subst(t.ref, m))
    if cls is Assign:
        return Assign(subst(t.ref, m), subst(t.value, m))
    raise TypeError(f"unknown term node {cls.__name__}")  # pragma: no cover


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

_LET, _HANDLE = 0, 1


def _rebuild(frames: list, upto: int, core: Term) -> Term:
    for i in range(upto - 1, -1, -1):
        f = frames[i]
        if f[0] == _LET:
            core = Let(f[1], core, f[2])
        else:
            core = Handle(core, f[1])
    return core


def step(cfg: StateConfig, sig: Signature | None = None) -> StateConfig | Normal:
    """Perform exactly one reduction, or report the normal form."""

    frames: list = []
    m = cfg.term
    # Decompose: walk down the handler-context spine to the active node.
    while True:
        cls = m.__class__
        if cls is Let:
            if m.bound.__class__ is Return:
                contractum = subst(m.body, {m.name: m.bound.value})
                return StateConfig(
                    _rebuild(frames, len(frames), contractum),
                    cfg.loc_counter, cfg.store, cfg.resume_counter,
                )
            frames.append((_LET, m.name, m.body))
            m = m.bound
            continue
        if cls is Handle:
            if m.body.__class__ is Return:
                h = m.handler
                contractum = subst(h.val_body, {h.val_name: m.body.value})
                return StateConfig(
                    _rebuild(frames, len(frames), contractum),
                    cfg.loc_counter, cfg.store, cfg.resume_counter,
                )
            frames.append((_HANDLE, m.handler))
            m = m.body
            continue
        break

    if cls is Return:
        if frames:  # unreachable: we never descend into a Return
            raise StuckError("return inside a decomposed context")
        return NormalValue(m.value)

    if cls is Do:
        # The innermost enclosing handler fires; the let-frames passed on
        # the way down form the pure continuation the resumption captures.
        for i in range(len(frames) - 1, -1, -1):
            f = frames[i]
            if f[0] != _HANDLE:
                continue
            h: Handler = f[1]
            clause = h.clauses.get(m.op)
            if clause is None:
                raise StuckError(
                    f"handler lacks a clause for {m.op!r}; complete handlers first"
                )
            p, r, body = clause
            resumes = cfg.resume_counter + 1
            y = f"resume.y{resumes}"
            resumed: Term = Return(Var(y))
            for j in range(len(frames) - 1, i, -1):
                fj = frames[j]
                resumed = Let(fj[1], resumed, fj[2])
            result_ty = sig[m.op][1] if sig and m.op in sig else None
            resumption = Lam(y, Handle(resumed, h), result_ty)
            contractum = subst(body, {p: m.arg, r: resumption})
            return StateConfig(_rebuild(frames, i, contractum), cfg.loc_counter, cfg.store, resumes)
        residual = _rebuild(frames, len(frames), m)
        return NormalOp(m.op, m.arg, residual)

    # Beta-style redexes and the store rules.
    loc, store = cfg.loc_counter, cfg.store
    if cls is App:
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
        store = dict(store)
        store[loc] = m.init
        contractum = subst(m.body, {m.name: Loc(loc)})
        loc += 1
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
    return StateConfig(_rebuild(frames, len(frames), contractum), loc, store, cfg.resume_counter)


def evaluate(
    term: Term, sig: Signature | None = None, fuel: int = 100_000
) -> tuple[Normal, int, StateConfig]:
    """Iterate `step` to a normal form.

    Returns (normal form, number of reductions, final configuration).
    Raises FuelExhausted when the budget runs out, which is how divergence
    shows up in practice.  Handlers are completed against the signature
    before stepping starts.
    """

    if sig:
        term = complete_handlers(term, sig)
    cfg = StateConfig(term)
    steps = 0
    while True:
        out = step(cfg, sig)
        if not isinstance(out, StateConfig):
            return out, steps, cfg
        steps += 1
        cfg = out
        if steps >= fuel:
            raise FuelExhausted(steps)


def eval_value(term: Term, sig: Signature | None = None, fuel: int = 100_000) -> Term:
    """Evaluate to a value term; raises on unhandled operations."""

    out, _, _ = evaluate(term, sig, fuel)
    if isinstance(out, NormalOp):
        raise StuckError(f"unhandled operation {out.op}")
    return out.value

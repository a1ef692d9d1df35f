"""Mapping machine configurations back to terms.

Closures re-substitute their environments, continuations rebuild the
let- and handle-nests they stand for, and a resumption value becomes the
function that restarts its captured continuation.  The map is invariant
under the administrative transitions (M-Let, M-Handle) and follows each
beta-like transition by exactly one small-step reduction; the simulation
tests lean on both facts.
"""

from __future__ import annotations

from itertools import count

from fxlang import machine as mc
from fxlang.smallstep import subst
from fxlang.syntax import (
    Const,
    Handle,
    Handler,
    Lam,
    Let,
    Loc,
    Nil,
    Num,
    Pair,
    Cons,
    Inl,
    Inr,
    Quote,
    Return,
    Term,
    UNIT_V,
    Var,
    free_vars,
    map_children,
)

def reify(v, names=None) -> Term:
    """A machine value as the closed value term it denotes.

    ``names`` numbers the binders of reified resumptions (``resume.yN``)
    within one decompilation; a fresh numbering starts at 1, so the
    result is a function of ``v`` alone.
    """

    if names is None:
        names = count(1)
    cls = v.__class__
    if cls is int:
        return Num(v)
    if cls is mc.VUnit:
        return UNIT_V
    if cls is mc.VPair:
        return Pair(reify(v.fst, names), reify(v.snd, names))
    if cls is mc.VInl:
        return Inl(reify(v.value, names))
    if cls is mc.VInr:
        return Inr(reify(v.value, names))
    if cls is mc.VNil:
        return Nil()
    if cls is mc.VCons:  # along the spine in a loop, so long lists do not recurse
        heads = []
        while v.__class__ is mc.VCons:
            heads.append(reify(v.head, names))
            v = v.tail
        out = reify(v, names)
        for h in reversed(heads):
            out = Cons(h, out)
        return out
    if cls is mc.VClosure:  # the shape table knows what a Lam or a Rec binds
        return map_children(v.term, lambda body, bound: open_term(body, v.env, set(bound), names))
    if cls is Const:
        return v
    if cls is mc.VLoc:
        return Loc(v.index)
    if cls is mc.VSentinel:
        return Var(v.name)
    if cls is tuple:  # resumption: restart its continuation on the argument
        y = f"resume.y{next(names)}"
        return Lam(y, resumption_body(v, Return(Var(y)), names))
    if cls is mc.VMemo:
        # Memoisation only changes cost; as a term, the wrapper is the thunk.
        return reify(v.thunk, names)
    raise TypeError(f"cannot reify {v!r}")


def open_term(t: Term, env: dict, bound: set[str], names) -> Term:
    """Substitute an environment's values into a term's free variables."""

    need = free_vars(t) - bound
    if not need:
        return t
    mapping = {x: reify(env[x], names) for x in need if x in env}
    return subst(t, mapping)


def decompile_term(t: Term, env: dict, names) -> Term:
    if t.__class__ is Quote:
        return reify(t.mval, names)
    if t.__class__ is Return and t.value.__class__ is Quote:
        return Return(reify(t.value.mval, names))
    return open_term(t, env, set(), names)


def wrap_pure_cont(sigma, m: Term, names) -> Term:
    """Rebuild the let-nest a pure continuation stands for around m."""

    while sigma is not None:
        fenv, x, body, sigma = sigma
        if x is not None:  # a memo-record frame is transparent as a term
            m = Let(x, m, open_term(body, fenv, {x}, names))
    return m


def decompile_handler_def(h: Handler, env: dict, names) -> Handler:
    return Handler(
        h.val_name,
        open_term(h.val_body, env, {h.val_name}, names),
        {
            op: (p, r, open_term(b, env, {p, r}, names))
            for op, (p, r, b) in h.clauses.items()
        },
    )


def resumption_body(rho, m: Term, names) -> Term:
    sigma, (henv, h) = rho
    return Handle(wrap_pure_cont(sigma, m, names), decompile_handler_def(h, henv, names))


def decompile(st: mc.MachineState) -> Term:
    """A machine configuration as the term it stands for: the computation
    wrapped in one handle-nest per resumption, bottom included.
    Resumption binders are numbered afresh on every call, so equal
    states decompile to equal terms."""

    names = count(1)
    m = decompile_term(st.comp, st.env, names)
    kont = st.kont
    while kont is not None:
        rho, kont = kont
        m = resumption_body(rho, m, names)
    return m

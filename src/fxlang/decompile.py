"""Mapping machine configurations back to terms.

Closures re-substitute their environments, continuations rebuild the
let- and handle-nests they stand for, and a resumption value becomes the
function that restarts its captured continuation.  The map is invariant
under the administrative transitions (M-Let, M-Handle) and follows each
beta-like transition by exactly one small-step reduction; the simulation
tests lean on both facts.

Every reified resumption binds the one name ``resume.y``.  No binder
can capture it: a reified resumption is closed but for that binder, and
its hole ``resume.y`` lies under no other binder, since the let- and
handle-nests around the hole bind source identifiers, which cannot
contain a dot.
"""

from __future__ import annotations

from fxlang import machine as mc
from fxlang.smallstep import subst
from fxlang.syntax import (
    Const,
    Handle,
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

_RESUME_Y = "resume.y"


def reify(v) -> Term:
    """A machine value as the closed value term it denotes."""

    cls = v.__class__
    if cls is int:
        return Num(v)
    if cls is mc.VUnit:
        return UNIT_V
    if cls is mc.VPair:
        return Pair(reify(v.fst), reify(v.snd))
    if cls is mc.VInl:
        return Inl(reify(v.value))
    if cls is mc.VInr:
        return Inr(reify(v.value))
    if cls is mc.VNil:
        return Nil()
    if cls is mc.VCons:  # along the spine in a loop, so long lists do not recurse
        heads = []
        while v.__class__ is mc.VCons:
            heads.append(reify(v.head))
            v = v.tail
        out = reify(v)
        for h in reversed(heads):
            out = Cons(h, out)
        return out
    if cls is mc.VClosure:  # the shape table knows what a Lam or a Rec binds
        return map_children(v.term, lambda body, bound: open_term(body, v.env, set(bound)))
    if cls is Const:
        return v
    if cls is mc.VLoc:
        return Loc(v.index)
    if cls is mc.VSentinel:
        return Var(v.name)
    if cls is tuple:  # resumption: restart its continuation on the argument
        return Lam(_RESUME_Y, resumption_body(v, Return(Var(_RESUME_Y))))
    if cls is mc.VMemo:
        # Memoisation only changes cost; as a term, the wrapper is the thunk.
        return reify(v.thunk)
    raise TypeError(f"cannot reify {v!r}")


def open_term(t: Term, env: dict, bound: set[str]) -> Term:
    """Substitute an environment's values into a term's free variables."""

    need = free_vars(t) - bound
    if not need:
        return t
    mapping = {x: reify(env[x]) for x in need if x in env}
    return subst(t, mapping)


def decompile_term(t: Term, env: dict) -> Term:
    if t.__class__ is Return and t.value.__class__ is Quote:
        return Return(reify(t.value.mval))
    return open_term(t, env, set())


def wrap_pure_cont(sigma, m: Term) -> Term:
    """Rebuild the let-nest a pure continuation stands for around m."""

    while sigma is not None:
        fenv, x, body, sigma = sigma
        if x is not None:  # a memo-record frame is transparent as a term
            m = Let(x, m, open_term(body, fenv, {x}))
    return m


def resumption_body(rho, m: Term) -> Term:
    """m in a resumption's let-nest, under its handler if it has one.  The
    shape table knows what each clause binds; m, the one child that binds
    nothing, is already a term."""

    sigma, chi = rho
    m = wrap_pure_cont(sigma, m)
    if chi is None:
        return m
    env, h = chi
    return map_children(
        Handle(m, h), lambda s, bound: open_term(s, env, set(bound)) if bound else s
    )


def decompile(st: mc.MachineState) -> Term:
    """A machine configuration as the term it stands for: the computation
    wrapped in one let- and handle-nest per resumption, bottom included.
    A pure run's bottom resumption has no handler, so a pure state
    decompiles to the bare term that small-step steps."""

    m = decompile_term(st.comp, st.env)
    kont = st.kont
    while kont is not None:
        rho, kont = kont
        m = resumption_body(rho, m)
    return m

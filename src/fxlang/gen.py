"""Random well-typed program generation.

Type-directed: every produced term checks under the generated signature
by construction (and the tests verify that anyway).  Used for the
soundness property (closed well-typed terms never get stuck) and for
differential testing of the machine against the small-step semantics.

Recursion is allowed, and the consumers treat fuel exhaustion as an
outcome, not an error, but generated programs finish in practice:
`programs/diverge.fx` and the agreement tests cover the fuel path.
"""

from __future__ import annotations

from random import Random

from fxlang import syntax as sx
from fxlang.syntax import (
    App,
    Arrow,
    Assign,
    BOOL,
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
    ListType,
    NAT,
    Nil,
    Num,
    Pair,
    Prod,
    Rec,
    RefType,
    Return,
    Signature,
    Split,
    Sum,
    Term,
    Type,
    UNIT,
    UNIT_V,
    Var,
    bool_,
)

GEN_SIG: Signature = {
    "Flip": (UNIT, BOOL),
    "Ask": (UNIT, NAT),
    "Emit": (NAT, UNIT),
}


def random_type(rng: Random, depth: int = 2) -> Type:
    if depth <= 0:
        return rng.choice((NAT, UNIT, BOOL))
    r = rng.random()
    if r < 0.45:
        return rng.choice((NAT, UNIT, BOOL, NAT))
    if r < 0.6:
        return Prod(random_type(rng, depth - 1), random_type(rng, depth - 1))
    if r < 0.72:
        return Sum(random_type(rng, depth - 1), random_type(rng, depth - 1))
    if r < 0.88:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return ListType(random_type(rng, depth - 1))


class ProgramGen:
    def __init__(self, rng: Random, effects: bool = False, refs: bool = False):
        self.rng = rng
        self.sig: Signature = GEN_SIG if effects else {}
        self.effects = effects
        self.refs = refs
        self.counter = 0

    def fresh(self, base: str = "v") -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def program(self) -> Term:
        ty = self.rng.choice((NAT, BOOL, Prod(NAT, BOOL), ListType(NAT)))
        body = self.comp({}, ty, self.rng.randrange(3, 7))
        if self.effects and self.rng.random() < 0.85:
            # Keep most runs closed under a top-level handler so values,
            # not unhandled operations, dominate the corpus.
            x = self.fresh("x")
            return Handle(body, Handler(x, Return(Var(x)), {}))
        return body

    # -- values

    def value(self, env: dict[str, Type], ty: Type, d: int) -> Term:
        rng = self.rng
        cands = [x for x, t in env.items() if t == ty]
        if cands and rng.random() < 0.5:
            return Var(rng.choice(cands))
        cls = ty.__class__
        if cls is sx.NatType:
            return Num(rng.randrange(0, 6))
        if cls is sx.UnitType:
            return UNIT_V
        if cls is sx.Sum:
            if d <= 0 or rng.random() < 0.5:
                if ty == BOOL:
                    return bool_(rng.random() < 0.5)
            if rng.random() < 0.5:
                return Inl(self.value(env, ty.left, d - 1), ty)
            return Inr(self.value(env, ty.right, d - 1), ty)
        if cls is sx.Prod:
            return Pair(self.value(env, ty.fst, d - 1), self.value(env, ty.snd, d - 1))
        if cls is sx.ListType:
            out: Term = Nil(ty.elem)
            for _ in range(rng.randrange(0, 3) if d > 0 else 0):
                out = Cons(self.value(env, ty.elem, d - 1), out)
            return out
        if cls is sx.Arrow:
            x = self.fresh("a")
            if d > 0 and rng.random() < 0.25:
                f = self.fresh("f")
                body = self.comp({**env, f: ty, x: ty.dom}, ty.cod, d - 1)
                return Rec(f, x, body, ty)
            body = self.comp({**env, x: ty.dom}, ty.cod, d - 1)
            return Lam(x, body, ty.dom)
        raise ValueError(f"cannot generate a value of {ty}")

    # -- computations

    def comp(self, env: dict[str, Type], ty: Type, d: int) -> Term:
        rng = self.rng
        if d <= 0:
            return Return(self.value(env, ty, 0))
        roll = rng.random()
        if roll < 0.30:
            return Return(self.value(env, ty, d - 1))
        if roll < 0.44:
            x = self.fresh("x")
            a = random_type(rng, 1)
            return Let(x, self.comp(env, a, d - 1), self.comp({**env, x: a}, ty, d - 1))
        if roll < 0.56:
            a = random_type(rng, 1)
            fn = self.value(env, Arrow(a, ty), d - 1)
            return App(fn, self.value(env, a, d - 1))
        if roll < 0.64:
            a, b = random_type(rng, 1), random_type(rng, 1)
            scrut = self.value(env, Sum(a, b), d - 1)
            xl, xr = self.fresh("l"), self.fresh("r")
            return Case(
                scrut,
                xl,
                self.comp({**env, xl: a}, ty, d - 1),
                xr,
                self.comp({**env, xr: b}, ty, d - 1),
            )
        if roll < 0.70:
            a, b = random_type(rng, 1), random_type(rng, 1)
            x, y = self.fresh("p"), self.fresh("q")
            return Split(
                self.value(env, Prod(a, b), d - 1),
                x,
                y,
                self.comp({**env, x: a, y: b}, ty, d - 1),
            )
        if roll < 0.76:
            a = random_type(rng, 1)
            h, t = self.fresh("h"), self.fresh("t")
            return CaseList(
                self.value(env, ListType(a), d - 1),
                self.comp(env, ty, d - 1),
                h,
                t,
                self.comp({**env, h: a, t: ListType(a)}, ty, d - 1),
            )
        if roll < 0.82 and ty == NAT:
            op = rng.choice(("+", "-"))
            return App(
                Const(op),
                Pair(self.value(env, NAT, d - 1), self.value(env, NAT, d - 1)),
            )
        if roll < 0.86 and ty == BOOL:
            return App(
                Const("="),
                Pair(self.value(env, NAT, d - 1), self.value(env, NAT, d - 1)),
            )
        if roll < 0.92 and self.effects:
            ops = list(self.sig)
            op = rng.choice(ops)
            a, b = self.sig[op]
            invoke = Do(op, self.value(env, a, d - 1))
            if b == ty and rng.random() < 0.4:
                return invoke
            x = self.fresh("x")
            return Let(x, invoke, self.comp({**env, x: b}, ty, d - 1))
        if roll < 0.96 and self.effects:
            c = random_type(rng, 1)
            body = self.comp(env, c, d - 1)
            vx = self.fresh("x")
            clauses = {}
            for op, (a, b) in self.sig.items():
                if rng.random() < 0.4:
                    p, r = self.fresh("p"), self.fresh("r")
                    cenv = {**env, p: a, r: Arrow(b, ty)}
                    if rng.random() < 0.7:
                        x2 = self.fresh("x")
                        cbody = Let(
                            x2,
                            App(Var(r), self.value(cenv, b, d - 1)),
                            self.comp({**cenv, x2: ty}, ty, d - 2),
                        )
                    else:
                        cbody = self.comp(cenv, ty, d - 2)
                    clauses[op] = (p, r, cbody)
            return Handle(
                body, Handler(vx, self.comp({**env, vx: c}, ty, d - 1), clauses)
            )
        if self.refs:
            a = random_type(rng, 1)
            x = self.fresh("ref")
            init = self.value(env, a, d - 1)
            env2 = {**env, x: RefType(a)}
            inner = rng.random()
            if inner < 0.4:
                y = self.fresh("x")
                use: Term = Let(y, Deref(Var(x)), self.comp({**env2, y: a}, ty, d - 1))
            elif inner < 0.8:
                y = self.fresh("u")
                use = Let(
                    y,
                    Assign(Var(x), self.value(env2, a, d - 1)),
                    self.comp({**env2, y: UNIT}, ty, d - 1),
                )
            else:
                use = self.comp(env2, ty, d - 1)
            return LetRef(x, init, use)
        return Return(self.value(env, ty, d - 1))


def random_program(
    seed: int, effects: bool = False, refs: bool = False
) -> tuple[Term, Signature]:
    g = ProgramGen(Random(seed), effects=effects, refs=refs)
    term = g.program()
    return term, g.sig

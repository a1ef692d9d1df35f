"""Bidirectional type checker for the core language.

One judgement, `_tc(env, t, sig, path, want)`, types every term.  With
`want=None` it infers the type of `t`; given a type `want`, it checks `t`
against it and returns `want`.

* Introduction forms (`fun`, `inl`/`inr`, `[]`, pairs, `::`) take their
  parts' expected types from `want`.  `inl`, `inr`, `[]` and unannotated
  `fun`, whose type their parts do not determine, therefore need an
  annotation only where nothing is wanted.  This keeps annotations where
  inference would be non-local and nowhere else.
* Eliminators (`return`, `let`, `split`, `case`, list `case`) pass `want`
  on to their bodies, and so do `letref` to its body and `handle` to its
  `val` clause, whose type every operation clause must then have.
* Every other form infers its type and compares it with `want` once, at
  the end.

`memoise` is a polymorphic primitive: applied to a thunk of type
`Unit -> A` it yields a thunk of the same type.
"""

from __future__ import annotations

from fxlang import syntax as sx
from fxlang.pprint import type_to_source
from fxlang.syntax import (
    App,
    Arrow,
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
    ListType,
    Loc,
    NAT,
    Nil,
    Num,
    Pair,
    Prod,
    Quote,
    Rec,
    RefType,
    Return,
    Signature,
    Split,
    Sum,
    Term,
    Type,
    UNIT,
    UnitVal,
    Var,
)

TypeEnv = dict[str, Type]


class TypeCheckError(Exception):
    def __init__(self, msg: str, path: tuple[str, ...] = ()):
        loc = " at " + "/".join(path) if path else ""
        super().__init__(msg + loc)
        self.msg = msg
        self.path = path


def _mismatch(expected: Type | str, actual: Type, path) -> TypeCheckError:
    """`expected` is a type, or where no one type is wanted, the kind of
    type that is ("a pair type")."""

    want = expected if isinstance(expected, str) else type_to_source(expected)
    return TypeCheckError(f"type mismatch: expected {want}, got {type_to_source(actual)}", path)


def typecheck(env: TypeEnv, term: Term, sig: Signature | None = None) -> Type:
    """Infer the unique type of a term, or raise `TypeCheckError`."""

    return _tc(env, term, sig or {}, (), None)


def typecheck_program(sig: Signature, term: Term) -> Type:
    return typecheck({}, term, sig)


def _tc(env: TypeEnv, t: Term, sig: Signature, path, want: Type | None) -> Type:
    cls = t.__class__
    # values
    if cls is Var:
        ty = env.get(t.name)
        if ty is None:
            raise TypeCheckError(f"unbound variable {t.name!r}", path)
    elif cls is Num:
        ty = NAT
    elif cls is UnitVal:
        ty = UNIT
    elif cls is Const:
        ty = sx.CONST_TYPES.get(t.name)
        if ty is None:
            raise TypeCheckError(
                f"constant {t.name!r} has no standalone type; apply it", path
            )
    elif cls is Lam:
        if isinstance(want, Arrow):
            if t.param_type is not None and t.param_type != want.dom:
                raise _mismatch(want.dom, t.param_type, path)
            _tc({**env, t.param: want.dom}, t.body, sig, path + ("fun",), want.cod)
            return want
        if t.param_type is None:
            raise TypeCheckError("parameter type annotation required here", path)
        body = _tc({**env, t.param: t.param_type}, t.body, sig, path + ("fun",), None)
        ty = Arrow(t.param_type, body)
    elif cls is Rec:
        ty = t.fn_type
        if not isinstance(ty, Arrow):
            raise TypeCheckError("rec needs an arrow type annotation", path)
        _tc({**env, t.fname: ty, t.param: ty.dom}, t.body, sig, path + ("rec",), ty.cod)
    elif cls is Pair:
        prod = want if isinstance(want, Prod) else None
        fst = _tc(env, t.fst, sig, path + ("fst",), prod.fst if prod else None)
        snd = _tc(env, t.snd, sig, path + ("snd",), prod.snd if prod else None)
        ty = prod or Prod(fst, snd)
    elif cls is Inl or cls is Inr:
        side = "inl" if cls is Inl else "inr"
        ty = t.ann
        if isinstance(want, Sum):
            if ty is not None and ty != want:
                raise _mismatch(want, ty, path)
            ty = want
        elif not isinstance(ty, Sum):
            raise TypeCheckError(f"{side} needs a sum type annotation here", path)
        _tc(env, t.value, sig, path + (side,), ty.left if cls is Inl else ty.right)
    elif cls is Nil:
        if isinstance(want, ListType):
            if t.ann is not None and t.ann != want.elem:
                raise _mismatch(want.elem, t.ann, path)
            return want
        if t.ann is None:
            raise TypeCheckError("[] needs a list type annotation here", path)
        ty = ListType(t.ann)
    elif cls is Cons:
        lst = want if isinstance(want, ListType) else None
        head = _tc(env, t.head, sig, path + ("cons-head",), lst.elem if lst else None)
        ty = lst or ListType(head)
        _tc(env, t.tail, sig, path + ("cons-tail",), ty)
    elif cls is Loc:
        raise TypeCheckError("store locations cannot appear in source programs", path)
    elif cls is Quote:
        raise TypeCheckError("runtime values cannot appear in source programs", path)

    # computations
    elif cls is App:
        fn, arg = t.fn, t.arg
        if fn.__class__ is Const and fn.name == "memoise":
            ty = _tc(env, arg, sig, path + ("memoise",), None)
            if not (isinstance(ty, Arrow) and ty.dom == UNIT):
                raise TypeCheckError(
                    f"memoise expects a thunk Unit -> A, got {type_to_source(ty)}",
                    path,
                )
        else:
            fty = _tc(env, fn, sig, path + ("fn",), None)
            if not isinstance(fty, Arrow):
                raise _mismatch("a function type", fty, path + ("fn",))
            _tc(env, arg, sig, path + ("arg",), fty.dom)
            ty = fty.cod
    elif cls is Return:
        return _tc(env, t.value, sig, path + ("return",), want)
    elif cls is Let:
        bound = _tc(env, t.bound, sig, path + (f"let {t.name}",), None)
        return _tc({**env, t.name: bound}, t.body, sig, path, want)
    elif cls is Split:
        pty = _tc(env, t.pair, sig, path + ("split",), None)
        if not isinstance(pty, Prod):
            raise _mismatch("a pair type", pty, path + ("split",))
        return _tc({**env, t.fst_name: pty.fst, t.snd_name: pty.snd}, t.body, sig, path, want)
    elif cls is Case:
        sty = _tc(env, t.scrutinee, sig, path + ("case",), None)
        if not isinstance(sty, Sum):
            raise _mismatch("a sum type", sty, path + ("case",))
        # The left arm decides the type when nothing is wanted.
        ty = _tc({**env, t.left_name: sty.left}, t.left, sig, path + ("case-inl",), want)
        _tc({**env, t.right_name: sty.right}, t.right, sig, path + ("case-inr",), ty)
        return ty
    elif cls is CaseList:
        sty = _tc(env, t.scrutinee, sig, path + ("case",), None)
        if not isinstance(sty, ListType):
            raise _mismatch("a list type", sty, path + ("case",))
        ty = _tc(env, t.nil_body, sig, path + ("case-nil",), want)
        env = {**env, t.head_name: sty.elem, t.tail_name: sty}
        _tc(env, t.cons_body, sig, path + ("case-cons",), ty)
        return ty
    elif cls is Do:
        opty = sig.get(t.op)
        if opty is None:
            raise TypeCheckError(f"operation {t.op!r} not in the signature", path)
        a, ty = opty
        _tc(env, t.arg, sig, path + (f"do {t.op}",), a)
    elif cls is Handle:
        cty = _tc(env, t.body, sig, path + ("handle",), None)
        h = t.handler
        ty = _tc({**env, h.val_name: cty}, h.val_body, sig, path + ("val",), want)
        for op, (p, r, body) in h.clauses.items():
            opty = sig.get(op)
            if opty is None:
                raise TypeCheckError(f"clause for unknown operation {op!r}", path)
            a, b = opty
            _tc({**env, p: a, r: Arrow(b, ty)}, body, sig, path + (f"clause {op}",), ty)
        return ty
    elif cls is LetRef:
        ity = _tc(env, t.init, sig, path + (f"letref {t.name}",), None)
        return _tc({**env, t.name: RefType(ity)}, t.body, sig, path, want)
    elif cls is Deref:
        rty = _tc(env, t.ref, sig, path + ("deref",), None)
        if not isinstance(rty, RefType):
            raise _mismatch("a reference type", rty, path + ("deref",))
        ty = rty.elem
    elif cls is Assign:
        rty = _tc(env, t.ref, sig, path + ("assign",), None)
        if not isinstance(rty, RefType):
            raise _mismatch("a reference type", rty, path + ("assign",))
        _tc(env, t.value, sig, path + ("assign",), rty.elem)
        ty = UNIT
    else:  # pragma: no cover
        raise TypeCheckError(f"cannot type node {cls.__name__}", path)
    if want is not None and ty != want:
        raise _mismatch(want, ty, path)
    return ty

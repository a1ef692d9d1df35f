"""Printers: core terms back to surface syntax, machine values to text."""

from __future__ import annotations

from fxlang import syntax as sx
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
    Quote,
    Rec,
    Return,
    Split,
    Term,
    UnitVal,
    Var,
)

# Precedence levels, loosest to tightest.
_COMP = 0  # let / case / fun / handle / return ...
_OP = 1  # infix value operators  + - = ::
_APP = 2  # application by juxtaposition
_ATOM = 3


def type_to_source(ty: sx.Type) -> str:
    if ty == sx.BOOL:
        return "Bool"
    cls = ty.__class__
    if cls is sx.NatType:
        return "Nat"
    if cls is sx.UnitType:
        return "Unit"
    if cls is sx.Arrow:
        return f"{_operand(ty.dom)} -> {type_to_source(ty.cod)}"
    if cls is sx.Prod:
        return f"({_operand(ty.fst)} * {_operand(ty.snd)})"
    if cls is sx.Sum:
        return f"({_operand(ty.left)} + {_operand(ty.right)})"
    if cls is sx.RefType:
        return f"Ref {_argument(ty.elem)}"
    if cls is sx.ListType:
        return f"List {_argument(ty.elem)}"
    raise TypeError(f"unknown type {ty!r}")


def _argument(ty: sx.Type) -> str:
    """The element type of ``Ref`` or ``List``, in parentheses unless a
    product or a sum already printed its own."""

    s = type_to_source(ty)
    return s if ty.__class__ in (sx.Prod, sx.Sum) and ty != sx.BOOL else f"({s})"


def _operand(ty: sx.Type) -> str:
    """A domain or an operand of ``*`` or ``+``, where an arrow needs parentheses."""

    s = type_to_source(ty)
    return f"({s})" if ty.__class__ is sx.Arrow else s


def to_source(t: Term) -> str:
    """Render a core term as parseable surface syntax.

    Parsing the result yields a term alpha-equivalent to the input
    (annotations may sit in different places).  Runtime-only nodes
    (locations, quoted machine values) render as non-parseable markers.
    """

    return _pp(t, _COMP)


def _paren(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


def _pp(t: Term, ctx: int) -> str:
    cls = t.__class__
    if cls is Var:
        return t.name
    if cls is Num:
        return str(t.value)
    if cls is Const:
        return "memoise" if t.name == "memoise" else f"({t.name})"
    if cls is UnitVal:
        return "()"
    if cls is Pair:
        return f"({_pp(t.fst, _COMP)}, {_pp(t.snd, _COMP)})"
    if cls is Inl:
        if t.value.__class__ is UnitVal and t.ann in (None, sx.BOOL):
            return "true"
        s = f"inl {_pp(t.value, _ATOM)}"
        if t.ann is not None:
            return f"({s} : {type_to_source(t.ann)})"
        return _paren(s, _APP, ctx)
    if cls is Inr:
        if t.value.__class__ is UnitVal and t.ann in (None, sx.BOOL):
            return "false"
        s = f"inr {_pp(t.value, _ATOM)}"
        if t.ann is not None:
            return f"({s} : {type_to_source(t.ann)})"
        return _paren(s, _APP, ctx)
    if cls is Nil:
        if t.ann is not None:
            return f"([] : List ({type_to_source(t.ann)}))"
        return "[]"
    if cls is Cons:
        s = f"{_pp(t.head, _APP)} :: {_pp(t.tail, _OP)}"
        return _paren(s, _OP, ctx)
    if cls is Loc:
        return f"<loc {t.index}>"
    if cls is Quote:
        return f"<mval {t.mval!r}>"
    if cls is Lam:
        if t.param_type is not None:
            head = f"fun ({t.param} : {type_to_source(t.param_type)})"
        else:
            head = f"fun {t.param}"
        return _paren(f"{head} -> {_pp(t.body, _COMP)}", _COMP, ctx)
    if cls is Rec:
        if t.fn_type is not None:
            head = f"rec ({t.fname} : {type_to_source(t.fn_type)}) {t.param}"
        else:
            head = f"rec {t.fname} {t.param}"
        return _paren(f"{head} -> {_pp(t.body, _COMP)}", _COMP, ctx)

    if cls is App:
        fn, arg = t.fn, t.arg
        if fn.__class__ is Const and fn.name in ("+", "-", "=") and arg.__class__ is Pair:
            s = f"{_pp(arg.fst, _APP)} {fn.name} {_pp(arg.snd, _APP)}"
            return _paren(s, _OP, ctx)
        s = f"{_pp(fn, _APP)} {_pp(arg, _ATOM)}"
        return _paren(s, _APP, ctx)
    if cls is Return:
        return _paren(f"return {_pp(t.value, _APP)}", _COMP, ctx)
    if cls is Let:
        s = f"let {t.name} <- {_pp(t.bound, _COMP)} in {_pp(t.body, _COMP)}"
        return _paren(s, _COMP, ctx)
    if cls is Split:
        s = f"let ({t.fst_name}, {t.snd_name}) = {_pp(t.pair, _APP)} in {_pp(t.body, _COMP)}"
        return _paren(s, _COMP, ctx)
    if cls is Case:
        s = (
            f"case {_pp(t.scrutinee, _APP)} "
            f"{{inl {t.left_name} -> {_pp(t.left, _COMP)}; "
            f"inr {t.right_name} -> {_pp(t.right, _COMP)}}}"
        )
        return _paren(s, _COMP, ctx)
    if cls is CaseList:
        s = (
            f"case {_pp(t.scrutinee, _APP)} "
            f"{{[] -> {_pp(t.nil_body, _COMP)}; "
            f"{t.head_name} :: {t.tail_name} -> {_pp(t.cons_body, _COMP)}}}"
        )
        return _paren(s, _COMP, ctx)
    if cls is Do:
        return _paren(f"do {t.op} {_pp(t.arg, _ATOM)}", _APP, ctx)
    if cls is Handle:
        h = t.handler
        parts = [f"val {h.val_name} -> {_pp(h.val_body, _COMP)}"]
        for op, (p, r, b) in h.clauses.items():
            parts.append(f"{op} {p} {r} -> {_pp(b, _COMP)}")
        s = f"handle {_pp(t.body, _COMP)} with {{{'; '.join(parts)}}}"
        return _paren(s, _COMP, ctx)
    if cls is LetRef:
        s = f"letref {t.name} = {_pp(t.init, _APP)} in {_pp(t.body, _COMP)}"
        return _paren(s, _COMP, ctx)
    if cls is Deref:
        return _paren(f"!{_pp(t.ref, _ATOM)}", _APP, ctx)
    if cls is Assign:
        s = f"{_pp(t.ref, _ATOM)} := {_pp(t.value, _APP)}"
        return _paren(s, _OP, ctx)
    raise TypeError(f"unknown term node {cls.__name__}")


def program_to_source(sig: sx.Signature, term: Term) -> str:
    lines = [
        f"operation {op} : {type_to_source(a)} -> {type_to_source(b)}"
        for op, (a, b) in sig.items()
    ]
    lines.append(to_source(term))
    return "\n".join(lines)


def render_mval(v: object) -> str:
    """Render a machine value for CLI output; it is also every machine
    value's `repr`.

    Sums over unit render as the booleans they encode; object-level cons
    lists render in bracket notation.
    """

    from fxlang import machine as mc

    cls = v.__class__
    if cls is int:
        return str(v)
    if cls is mc.VUnit:
        return "()"
    if cls is mc.VPair:
        return f"({render_mval(v.fst)}, {render_mval(v.snd)})"
    if cls is mc.VInl:
        if v.value is mc.VUNIT or v.value.__class__ is mc.VUnit:
            return "true"
        return f"inl {render_mval(v.value)}"
    if cls is mc.VInr:
        if v.value is mc.VUNIT or v.value.__class__ is mc.VUnit:
            return "false"
        return f"inr {render_mval(v.value)}"
    if cls is mc.VNil or cls is mc.VCons:
        items = []
        while v.__class__ is mc.VCons:
            items.append(render_mval(v.head))
            v = v.tail
        return "[" + ", ".join(items) + "]"
    if cls is mc.VClosure:
        return "<fun>"
    if cls is mc.VLoc:
        return f"<loc {v.index}>"
    if cls is mc.VMemo:
        return "<memo thunk>"
    if cls is tuple:
        return "<resumption>"
    if cls is Const:
        return f"({v.name})" if v.name != "memoise" else "memoise"
    if cls is mc.VSentinel:
        return "<probe>"
    # not repr(v): a machine value's repr is this function
    raise TypeError(f"cannot render a {cls.__name__}")

"""Surface syntax for `.fx` programs.

The surface language is a direct-style sugar over the fine-grain core:
nested applications, infix arithmetic, `&&`/`||`, `if`, sequencing with
`;`, and list literals are all accepted and elaborated left-to-right into
explicitly let-sequenced core terms.  The elaborator also resolves
shadowing by renaming every binder to a unique identifier, so downstream
passes never deal with capture.

A program is a sequence of `operation NAME : A -> B` declarations
followed by a single computation.
"""

from __future__ import annotations

import re

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
    Handler,
    Inl,
    Inr,
    Lam,
    Let,
    LetRef,
    NameSupply,
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
)


class ParseError(Exception):
    """A syntax error at ``offset`` in ``src``, reported as line:column."""

    def __init__(self, msg: str, src: str, offset: int):
        self.line = src.count("\n", 0, offset) + 1
        self.col = offset - src.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.col}: {msg}")


KEYWORDS = {
    "return", "let", "in", "case", "inl", "inr", "handle", "with", "do",
    "rec", "fun", "if", "then", "else", "true", "false", "letref",
    "operation", "val", "memoise",
}

# A token is its text: a symbol, an ASCII numeral, a keyword, an
# identifier (a letter or `_`, then letters, digits, `_` and `'`), or ''
# at the end of the input.  Whitespace is exactly space, tab, CR and LF,
# and `#` comments run to the end of the line.  The first group takes the
# tokens led by an ASCII character.  The second takes a word led by any
# other character, an identifier only if that character is a letter
# (`\w` is `str.isalnum` plus `_`, so `²x` is a word too), or else one
# character that starts no token.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(:=|<-|->|::|&&|\|\||[-(){}\[\],;:=+!*]|[0-9]+|[A-Za-z_][\w']*|\Z)"
    r"|([^\W\d][\w']*|.))",
    re.S,
)


def tokenize(src: str) -> tuple[list[str], list[int]]:
    """The tokens of ``src`` and their offsets, ending with ''."""

    toks: list[str] = []
    offs: list[int] = []
    for m in _TOKEN.finditer(src):
        t = m[1]
        if t is None:
            t = m[2]
            if not t[0].isalpha():
                raise ParseError(f"unexpected character {t[0]!r}", src, m.start(2))
        toks.append(t)
        offs.append(m.end() - len(t))
        if not t:
            break
    return toks, offs


# Infix operators, loosest first: op -> (precedence, associativity, node).
# `=` does not chain: `a = b = c` is a syntax error.
_EXPR_OPS = {
    "||": (1, "left", lambda l, r: ("or", l, r)),
    "&&": (2, "left", lambda l, r: ("and", l, r)),
    "=": (3, "none", lambda l, r: ("prim", "=", l, r)),
    "::": (4, "right", lambda l, r: ("cons", l, r)),
    "+": (5, "left", lambda l, r: ("prim", "+", l, r)),
    "-": (5, "left", lambda l, r: ("prim", "-", l, r)),
}

_TYPE_OPS = {
    "->": (1, "right", sx.Arrow),
    "+": (2, "left", sx.Sum),
    "*": (3, "left", sx.Prod),
}

_TYPE_NAMES = {"Nat": sx.NAT, "Unit": sx.UNIT, "Bool": sx.BOOL}

# The tokens that start an atom, besides numerals and identifiers.
_ATOM_STARTS = {"true", "false", "fun", "rec", "inl", "inr", "do", "memoise", "(", "["}


# ---------------------------------------------------------------------------
# Surface tree -> parser
# ---------------------------------------------------------------------------
#
# Surface nodes are tagged tuples; the elaborator below consumes them.
# Anything computation-like may appear in a value position and gets
# let-named during elaboration.


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks, self.offs = tokenize(src)
        self.idents = {t for t in set(self.toks) if t[:1].isalpha() or t[:1] == "_"} - KEYWORDS
        self.pos = 0

    # -- token plumbing

    def error(self, msg: str, i: int | None = None) -> ParseError:
        """A ParseError at token ``i``, by default the next one."""

        return ParseError(msg, self.src, self.offs[self.pos if i is None else i])

    def peek(self, k: int = 0) -> str:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def at(self, s: str, k: int = 0) -> bool:
        return self.peek(k) == s

    def expect(self, s: str) -> None:
        t = self.toks[self.pos]
        if t != s:
            raise self.error(f"expected {s!r}, found {t!r}")
        self.pos += 1

    def expect_end(self, what: str) -> None:
        t = self.toks[self.pos]
        if t:
            raise self.error(f"unexpected {t!r} after {what}")

    def ident(self) -> str:
        t = self.toks[self.pos]
        if t not in self.idents:
            raise self.error(f"expected identifier, found {t!r}")
        self.pos += 1
        return t

    def infix(self, ops: dict, operand, floor: int = 0):
        """Precedence climbing (Pratt, POPL 1973): an operand, then each
        operator of ``ops`` of precedence ``floor`` or more with its right
        operand.  A left-associative chain is a loop; only a
        right-associative one recurses per operator."""

        left = operand()
        stop = None  # the precedence of a non-chaining operator just applied
        while True:
            op = ops.get(self.toks[self.pos])
            if op is None or op[0] < floor or op[0] == stop:
                return left
            prec, assoc, node = op
            self.pos += 1
            left = node(left, self.infix(ops, operand, prec if assoc == "right" else prec + 1))
            stop = prec if assoc == "none" else None

    # -- types

    def parse_type(self) -> sx.Type:
        return self.infix(_TYPE_OPS, self._type_atom)

    def _type_atom(self) -> sx.Type:
        t = self.toks[self.pos]
        if t == "(":
            self.pos += 1
            ty = self.parse_type()
            self.expect(")")
            return ty
        if t in ("Ref", "List"):
            self.pos += 1
            elem = self._type_atom()
            return sx.RefType(elem) if t == "Ref" else sx.ListType(elem)
        if t not in _TYPE_NAMES:
            if t in self.idents:
                raise self.error(f"unknown type name {t!r}")
            raise self.error(f"expected a type, found {t!r}")
        self.pos += 1
        return _TYPE_NAMES[t]

    # -- programs

    def parse_program(self) -> tuple[Signature, tuple]:
        sig: Signature = {}
        while self.at("operation"):
            self.pos += 1
            at = self.pos
            name = self.ident()
            self.expect(":")
            ty = self.parse_type()
            if not isinstance(ty, sx.Arrow):
                raise self.error(f"operation {name!r} needs an arrow type", at)
            if name in sig:
                raise self.error(f"operation {name!r} declared twice", at)
            sig[name] = (ty.dom, ty.cod)
        body = self.parse_comp()
        self.expect_end("program")
        return sig, body

    # -- computations

    def _clause_head_at(self, k: int) -> bool:
        """Does a handler clause head start k tokens ahead?

        Needed to tell sequencing `;` apart from the `;` that separates
        handler clauses: an expression statement is never followed by
        `->`, so the patterns below are unambiguous.
        """

        if self.at("val", k):
            return True
        ids = self.idents
        if self.at("inr", k):
            # the right arm of a sum case
            if self.at("(", k + 1) and self.at(")", k + 2):
                return self.at("->", k + 3)
            return self.peek(k + 1) in ids and self.at("->", k + 2)
        if self.peek(k) not in ids:
            return False
        if self.at("::", k + 1):
            # the cons arm of a list case
            return self.peek(k + 2) in ids and self.at("->", k + 3)
        if self.at("(", k + 1) and self.at(")", k + 2):
            return self.peek(k + 3) in ids and self.at("->", k + 4)
        if self.peek(k + 1) in ids and self.peek(k + 2) in ids:
            return self.at("->", k + 3)
        return False

    def parse_comp(self) -> tuple:
        first = self.parse_stmt()
        if not self.at(";"):
            return first
        parts = [first]
        while self.at(";") and not self._clause_head_at(1):
            self.pos += 1
            parts.append(self.parse_stmt())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ("seq", p, out)
        return out

    def parse_stmt(self) -> tuple:
        t = self.toks[self.pos]
        if t == "return":
            self.pos += 1
            return ("return", self.parse_expr())
        if t == "let":
            return self._parse_let()
        if t == "letref":
            self.pos += 1
            x = self.ident()
            self.expect("=")
            e = self.parse_expr()
            self.expect("in")
            return ("letref", x, e, self.parse_comp())
        if t == "case":
            return self._parse_case()
        if t == "if":
            self.pos += 1
            c = self.parse_expr()
            self.expect("then")
            th = self.parse_comp()
            self.expect("else")
            el = self.parse_comp()
            return ("if", c, th, el)
        if t == "handle":
            return self._parse_handle()
        e = self.parse_expr()
        if self.at(":="):
            self.pos += 1
            return ("assign", e, self.parse_expr())
        return e

    def _parse_let(self) -> tuple:
        self.expect("let")
        if self.at("("):
            self.pos += 1
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect(")")
            self.expect("=")
            e = self.parse_expr()
            self.expect("in")
            return ("split", x, y, e, self.parse_comp())
        x = self.ident()
        if self.at("<-"):
            self.pos += 1
            m = self.parse_comp()
            self.expect("in")
            return ("bind", x, m, self.parse_comp())
        self.expect("=")
        e = self.parse_expr()
        self.expect("in")
        return ("bindv", x, e, self.parse_comp())

    def _parse_pat(self) -> str | None:
        """A clause binder: an identifier, `_`, or the unit pattern `()`.
        Returns None for patterns that bind nothing."""

        if self.at("("):
            self.pos += 1
            self.expect(")")
            return None
        t = self.toks[self.pos]
        if t not in self.idents:
            raise self.error(f"expected a binder, found {t!r}")
        self.pos += 1
        return None if t == "_" else t

    def _parse_case(self) -> tuple:
        self.expect("case")
        scrut = self.parse_expr()
        self.expect("{")
        if self.at("["):
            self.pos += 1
            self.expect("]")
            self.expect("->")
            nil_body = self.parse_comp()
            self.expect(";")
            h = self.ident()
            self.expect("::")
            tl = self.ident()
            self.expect("->")
            cons_body = self.parse_comp()
            self.expect("}")
            return ("caselist", scrut, nil_body, h, tl, cons_body)
        self.expect("inl")
        xl = self._parse_pat()
        self.expect("->")
        left = self.parse_comp()
        self.expect(";")
        self.expect("inr")
        xr = self._parse_pat()
        self.expect("->")
        right = self.parse_comp()
        self.expect("}")
        return ("case", scrut, xl, left, xr, right)

    def _parse_handle(self) -> tuple:
        self.expect("handle")
        body = self.parse_comp()
        self.expect("with")
        self.expect("{")
        val_clause = None
        op_clauses: list[tuple[str, str | None, str, tuple, int]] = []
        while True:
            if self.at("val"):
                at = self.pos
                self.pos += 1
                x = self._parse_pat()
                self.expect("->")
                b = self.parse_comp()
                if val_clause is not None:
                    raise self.error("duplicate val clause", at)
                val_clause = (x, b)
            else:
                off = self.offs[self.pos]
                op = self.ident()
                p = self._parse_pat()
                r = self.ident()
                self.expect("->")
                b = self.parse_comp()
                op_clauses.append((op, p, r, b, off))
            if self.at(";"):
                self.pos += 1
                continue
            break
        self.expect("}")
        if val_clause is None:
            raise self.error("handler needs a val clause")
        return ("handle", body, val_clause, op_clauses)

    # -- expressions

    def parse_expr(self) -> tuple:
        return self.infix(_EXPR_OPS, self._app)

    def _app(self) -> tuple:
        if self.at("!"):
            self.pos += 1
            return ("deref", self._atom())
        left = self._atom()
        while True:
            t = self.toks[self.pos]
            if not (t in _ATOM_STARTS or t in self.idents or t.isdigit()):
                return left
            left = ("app", left, self._atom())

    def _atom(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        if t.isdigit():
            return ("num", int(t))
        if t in self.idents:
            return ("var", t)
        if t in ("true", "false", "memoise"):
            return (t,)
        if t in ("inl", "inr"):
            return (t, self._atom())
        if t == "do":
            off = self.offs[self.pos]
            op = self.ident()
            return ("do", op, self._atom(), off)
        if t == "fun":
            return self._parse_fun()
        if t == "rec":
            return self._parse_rec()
        if t == "(":
            if self.at(")"):
                self.pos += 1
                return ("unit",)
            # (+) / (-) / (=) as first-class constants
            if self.peek() in ("+", "-", "=") and self.at(")", 1):
                op = self.toks[self.pos]
                self.pos += 2
                return ("const", op)
            inner = self.parse_comp()
            if self.at(","):
                self.pos += 1
                snd = self.parse_comp()
                self.expect(")")
                return ("pair", inner, snd)
            if self.at(":"):
                self.pos += 1
                ty = self.parse_type()
                self.expect(")")
                return ("ann", inner, ty)
            self.expect(")")
            return inner
        if t == "[":
            if self.at("]"):
                self.pos += 1
                return ("nil",)
            items = [self.parse_comp()]
            while self.at(","):
                self.pos += 1
                items.append(self.parse_comp())
            self.expect("]")
            return ("list", items)
        raise self.error(f"unexpected {t!r}", self.pos - 1)

    def _parse_fun(self) -> tuple:
        params: list[tuple[str | None, sx.Type | None]] = []
        while True:
            if self.at("("):
                # () unit pattern, or (x : T)
                if self.at(")", 1):
                    self.pos += 2
                    params.append((None, sx.UNIT))
                    continue
                self.pos += 1
                x = self.ident()
                self.expect(":")
                ty = self.parse_type()
                self.expect(")")
                params.append((None if x == "_" else x, ty))
                continue
            x = self.toks[self.pos]
            if x in self.idents:
                self.pos += 1
                params.append((None if x == "_" else x, None))
                continue
            break
        if not params:
            raise self.error("fun needs at least one parameter")
        self.expect("->")
        return ("fun", params, self.parse_comp())

    def _parse_rec(self) -> tuple:
        fty = None
        if self.at("("):
            self.pos += 1
            f = self.ident()
            self.expect(":")
            fty = self.parse_type()
            self.expect(")")
        else:
            f = self.ident()
        p = self._parse_pat()
        self.expect("->")
        return ("rec", f, fty, p, self.parse_comp())


# ---------------------------------------------------------------------------
# Elaboration: surface tree -> fine-grain core
# ---------------------------------------------------------------------------


class _Elab:
    def __init__(self, sig: Signature, supply: NameSupply, src: str):
        self.sig = sig
        self.ns = supply
        self.src = src  # for the position of an error

    def run(self, s: tuple) -> Term:
        return self.comp(s, {})

    # Computation position: elaborate and close over the bindings the
    # subexpressions emitted.
    def comp(self, s: tuple, sc: dict[str, str]) -> Term:
        binds: list = []
        h = self.head(s, sc, binds)
        return _wrap(binds, h)

    # The computation for s, with any prerequisite bindings appended to
    # the shared list in evaluation order.  Keeping one list per
    # computation position is what yields the flat left-to-right
    # let-normal form.
    def head(self, s: tuple, sc: dict[str, str], binds: list) -> Term:
        tag = s[0]
        if tag == "seq":
            return Let(self.ns.fresh("_"), self.comp(s[1], sc), self.comp(s[2], sc))
        if tag == "return":
            return Return(self.value(s[1], sc, binds))
        if tag == "bind":
            _, x, m, body = s
            bound = self.comp(m, sc)
            x2 = self.ns.fresh(x)
            return Let(x2, bound, self.comp(body, {**sc, x: x2}))
        if tag == "bindv":
            _, x, e, body = s
            v = self.value(e, sc, binds)
            x2 = self.ns.fresh(x)
            return Let(x2, Return(v), self.comp(body, {**sc, x: x2}))
        if tag == "split":
            _, x, y, e, body = s
            v = self.value(e, sc, binds)
            x2, y2 = self.ns.fresh(x), self.ns.fresh(y)
            return Split(v, x2, y2, self.comp(body, {**sc, x: x2, y: y2}))
        if tag == "letref":
            _, x, e, body = s
            v = self.value(e, sc, binds)
            x2 = self.ns.fresh(x)
            return LetRef(x2, v, self.comp(body, {**sc, x: x2}))
        if tag == "case":
            _, scrut, xl, left, xr, right = s
            v = self.value(scrut, sc, binds)
            xl2 = self.ns.fresh(xl if xl else "_")
            xr2 = self.ns.fresh(xr if xr else "_")
            scl = {**sc, xl: xl2} if xl else sc
            scr = {**sc, xr: xr2} if xr else sc
            return Case(v, xl2, self.comp(left, scl), xr2, self.comp(right, scr))
        if tag == "caselist":
            _, scrut, nil_body, h, tl, cons_body = s
            v = self.value(scrut, sc, binds)
            h2, tl2 = self.ns.fresh(h), self.ns.fresh(tl)
            return CaseList(
                v,
                self.comp(nil_body, sc),
                h2,
                tl2,
                self.comp(cons_body, {**sc, h: h2, tl: tl2}),
            )
        if tag == "if":
            _, c, th, el = s
            v = self.value(c, sc, binds)
            u1, u2 = self.ns.fresh("_"), self.ns.fresh("_")
            return Case(v, u1, self.comp(th, sc), u2, self.comp(el, sc))
        if tag == "handle":
            _, body, (vx, vbody), op_clauses = s
            vx2 = self.ns.fresh(vx if vx else "_")
            scv = {**sc, vx: vx2} if vx else sc
            clauses: dict[str, tuple[str, str, Term]] = {}
            for op, p, r, b, off in op_clauses:
                if op not in self.sig:
                    raise ParseError(f"unknown operation symbol {op!r}", self.src, off)
                if op in clauses:
                    raise ParseError(f"duplicate clause for {op!r}", self.src, off)
                p2 = self.ns.fresh(p if p else "_")
                r2 = self.ns.fresh(r)
                scb = {**sc, r: r2}
                if p:
                    scb[p] = p2
                clauses[op] = (p2, r2, self.comp(b, scb))
            return Handle(self.comp(body, sc), Handler(vx2, self.comp(vbody, scv), clauses))
        if tag == "do":
            _, op, arg, off = s
            if op not in self.sig:
                raise ParseError(f"unknown operation symbol {op!r}", self.src, off)
            return Do(op, self.value(arg, sc, binds))
        if tag == "assign":
            _, lhs, rhs = s
            rv = self.value(lhs, sc, binds)
            vv = self.value(rhs, sc, binds)
            return Assign(rv, vv)
        if tag == "deref":
            return Deref(self.value(s[1], sc, binds))
        if tag == "app":
            f = self.value(s[1], sc, binds)
            a = self.value(s[2], sc, binds)
            return App(f, a)
        if tag == "prim":
            _, op, l, r = s
            lv = self.value(l, sc, binds)
            rv = self.value(r, sc, binds)
            return App(Const(op), Pair(lv, rv))
        if tag == "and":
            _, a, b = s
            v = self.value(a, sc, binds)
            u1, u2 = self.ns.fresh("_"), self.ns.fresh("_")
            return Case(v, u1, self.comp(b, sc), u2, Return(sx.false_()))
        if tag == "or":
            _, a, b = s
            v = self.value(a, sc, binds)
            u1, u2 = self.ns.fresh("_"), self.ns.fresh("_")
            return Case(v, u1, Return(sx.true_()), u2, self.comp(b, sc))
        # Plain value in tail position: a trivial computation.
        return Return(self.value(s, sc, binds))

    # Value position: computations get named.
    def value(self, s: tuple, sc: dict[str, str], binds: list) -> Term:
        tag = s[0]
        if tag == "var":
            name = s[1]
            return Var(sc.get(name, name))
        if tag == "num":
            return Num(s[1])
        if tag == "true":
            return sx.true_()
        if tag == "false":
            return sx.false_()
        if tag == "unit":
            return UNIT_V
        if tag == "const":
            return Const(s[1])
        if tag == "memoise":
            return Const("memoise")
        if tag == "pair":
            return Pair(self.value(s[1], sc, binds), self.value(s[2], sc, binds))
        if tag == "inl":
            return Inl(self.value(s[1], sc, binds))
        if tag == "inr":
            return Inr(self.value(s[1], sc, binds))
        if tag == "cons":
            return Cons(self.value(s[1], sc, binds), self.value(s[2], sc, binds))
        if tag == "nil":
            return Nil()
        if tag == "list":
            items = [self.value(it, sc, binds) for it in s[1]]
            out: Term = Nil()
            for it in reversed(items):
                out = Cons(it, out)
            return out
        if tag == "fun":
            _, params, body = s
            return self._build_fun(params, body, sc)
        if tag == "rec":
            _, f, fty, p, body = s
            f2 = self.ns.fresh(f)
            p2 = self.ns.fresh(p if p else "_")
            scb = {**sc, f: f2}
            if p:
                scb[p] = p2
            return Rec(f2, p2, self.comp(body, scb), fty)
        if tag == "ann":
            return self._annotated(s[1], s[2], sc, binds)
        # Otherwise a computation in value position: name it, sharing the
        # caller's binding list so the result stays in flat let-normal form.
        h = self.head(s, sc, binds)
        if h.__class__ is Return:
            return h.value
        x = self.ns.fresh("t")
        binds.append((x, h))
        return Var(x)

    def _build_fun(self, params, body, sc) -> Term:
        (name, ty), rest = params[0], params[1:]
        p2 = self.ns.fresh(name if name else "_")
        sc2 = {**sc, name: p2} if name else sc
        inner = self.comp(body, sc2) if not rest else Return(self._build_fun(rest, body, sc2))
        return Lam(p2, inner, ty)

    def _annotated(self, inner: tuple, ty: sx.Type, sc, binds) -> Term:
        v = self.value(inner, sc, binds)
        cls = v.__class__
        if cls is Inl or cls is Inr:
            return cls(v.value, ty)
        if cls is Nil and isinstance(ty, sx.ListType):
            return Nil(ty.elem)
        if cls is Lam and isinstance(ty, sx.Arrow) and v.param_type is None:
            return Lam(v.param, v.body, ty.dom)
        if cls is Rec and v.fn_type is None:
            return Rec(v.fname, v.param, v.body, ty)
        return v


def _wrap(binds: list, body: Term) -> Term:
    for x, c in reversed(binds):
        body = Let(x, c, body)
    return body


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_program(src: str) -> tuple[Signature, Term]:
    """Parse a full `.fx` program: operation declarations plus one
    computation.  Returns the declared signature and the core term."""

    p = _Parser(src)
    sig, surface = p.parse_program()
    return sig, _Elab(sig, NameSupply(p.idents), src).run(surface)


def parse_term(src: str, sig: Signature | None = None) -> Term:
    """Parse a single computation against an ambient signature."""

    p = _Parser(src)
    surface = p.parse_comp()
    p.expect_end("term")
    return _Elab(sig or {}, NameSupply(p.idents), src).run(surface)

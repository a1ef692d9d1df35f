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

from dataclasses import dataclass

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
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


KEYWORDS = {
    "return", "let", "in", "case", "inl", "inr", "handle", "with", "do",
    "rec", "fun", "if", "then", "else", "true", "false", "letref",
    "operation", "val", "memoise",
}

_SYMBOLS = [
    ":=", "<-", "->", "::", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "+", "-", "!", "*",
]


@dataclass(slots=True)
class Token:
    kind: str  # NUM | IDENT | KW | SYM | EOF
    text: str
    line: int
    col: int


def tokenize(src: str) -> tuple[list[Token], set[str]]:
    toks: list[Token] = []
    idents: set[str] = set()
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if "0" <= c <= "9":  # not str.isdigit, which takes '²' and '٣' too
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            toks.append(Token("NUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            if word in KEYWORDS:
                toks.append(Token("KW", word, line, col))
            else:
                toks.append(Token("IDENT", word, line, col))
                idents.add(word)
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks, idents


# ---------------------------------------------------------------------------
# Surface tree -> parser
# ---------------------------------------------------------------------------
#
# Surface nodes are tagged tuples; the elaborator below consumes them.
# Anything computation-like may appear in a value position and gets
# let-named during elaboration.


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    # -- token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == "SYM" and t.text == s

    def at_kw(self, s: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == "KW" and t.text == s

    def expect_sym(self, s: str) -> Token:
        t = self.next()
        if t.kind != "SYM" or t.text != s:
            raise ParseError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_kw(self, s: str) -> Token:
        t = self.next()
        if t.kind != "KW" or t.text != s:
            raise ParseError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_ident(self) -> Token:
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t

    # -- types

    def parse_type(self) -> sx.Type:
        left = self._type_sum()
        if self.at_sym("->"):
            self.next()
            return sx.Arrow(left, self.parse_type())
        return left

    def _type_sum(self) -> sx.Type:
        left = self._type_prod()
        while self.at_sym("+"):
            self.next()
            left = sx.Sum(left, self._type_prod())
        return left

    def _type_prod(self) -> sx.Type:
        left = self._type_atom()
        while self.at_sym("*"):
            self.next()
            left = sx.Prod(left, self._type_atom())
        return left

    def _type_atom(self) -> sx.Type:
        t = self.next()
        if t.kind == "IDENT":
            if t.text == "Nat":
                return sx.NAT
            if t.text == "Unit":
                return sx.UNIT
            if t.text == "Bool":
                return sx.BOOL
            if t.text == "Ref":
                return sx.RefType(self._type_atom())
            if t.text == "List":
                return sx.ListType(self._type_atom())
            raise ParseError(f"unknown type name {t.text!r}", t.line, t.col)
        if t.kind == "SYM" and t.text == "(":
            ty = self.parse_type()
            self.expect_sym(")")
            return ty
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    # -- programs

    def parse_program(self) -> tuple[Signature, tuple]:
        sig: Signature = {}
        while self.at_kw("operation"):
            self.next()
            name = self.expect_ident()
            self.expect_sym(":")
            ty = self.parse_type()
            if not isinstance(ty, sx.Arrow):
                raise ParseError(
                    f"operation {name.text!r} needs an arrow type", name.line, name.col
                )
            a, b = ty.dom, ty.cod
            if name.text in sig:
                raise ParseError(
                    f"operation {name.text!r} declared twice", name.line, name.col
                )
            sig[name.text] = (a, b)
        body = self.parse_comp()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected {t.text!r} after program", t.line, t.col)
        return sig, body

    # -- computations

    def _clause_head_at(self, k: int) -> bool:
        """Does a handler clause head start k tokens ahead?

        Needed to tell sequencing `;` apart from the `;` that separates
        handler clauses: an expression statement is never followed by
        `->`, so the patterns below are unambiguous.
        """

        if self.at_kw("val", k):
            return True
        if self.at_kw("inr", k):
            # the right arm of a sum case
            if self.at_sym("(", k + 1) and self.at_sym(")", k + 2):
                return self.at_sym("->", k + 3)
            return self.peek(k + 1).kind == "IDENT" and self.at_sym("->", k + 2)
        if self.peek(k).kind != "IDENT":
            return False
        if self.at_sym("::", k + 1):
            # the cons arm of a list case
            return self.peek(k + 2).kind == "IDENT" and self.at_sym("->", k + 3)
        if self.at_sym("(", k + 1) and self.at_sym(")", k + 2):
            return self.peek(k + 3).kind == "IDENT" and self.at_sym("->", k + 4)
        if self.peek(k + 1).kind == "IDENT" and self.peek(k + 2).kind == "IDENT":
            return self.at_sym("->", k + 3)
        return False

    def parse_comp(self) -> tuple:
        first = self.parse_stmt()
        if not self.at_sym(";"):
            return first
        parts = [first]
        while self.at_sym(";") and not self._clause_head_at(1):
            self.next()
            parts.append(self.parse_stmt())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ("seq", p, out)
        return out

    def parse_stmt(self) -> tuple:
        t = self.peek()
        if t.kind == "KW":
            if t.text == "return":
                self.next()
                return ("return", self.parse_expr())
            if t.text == "let":
                return self._parse_let()
            if t.text == "letref":
                self.next()
                x = self.expect_ident().text
                self.expect_sym("=")
                e = self.parse_expr()
                self.expect_kw("in")
                return ("letref", x, e, self.parse_comp())
            if t.text == "case":
                return self._parse_case()
            if t.text == "if":
                self.next()
                c = self.parse_expr()
                self.expect_kw("then")
                th = self.parse_comp()
                self.expect_kw("else")
                el = self.parse_comp()
                return ("if", c, th, el)
            if t.text == "handle":
                return self._parse_handle()
        e = self.parse_expr()
        if self.at_sym(":="):
            self.next()
            return ("assign", e, self.parse_expr())
        return e

    def _parse_let(self) -> tuple:
        self.expect_kw("let")
        if self.at_sym("("):
            self.next()
            x = self.expect_ident().text
            self.expect_sym(",")
            y = self.expect_ident().text
            self.expect_sym(")")
            self.expect_sym("=")
            e = self.parse_expr()
            self.expect_kw("in")
            return ("split", x, y, e, self.parse_comp())
        x = self.expect_ident().text
        if self.at_sym("<-"):
            self.next()
            m = self.parse_comp()
            self.expect_kw("in")
            return ("bind", x, m, self.parse_comp())
        self.expect_sym("=")
        e = self.parse_expr()
        self.expect_kw("in")
        return ("bindv", x, e, self.parse_comp())

    def _parse_pat(self) -> str | None:
        """A clause binder: an identifier, `_`, or the unit pattern `()`.
        Returns None for patterns that bind nothing."""

        if self.at_sym("("):
            self.next()
            self.expect_sym(")")
            return None
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"expected a binder, found {t.text!r}", t.line, t.col)
        return None if t.text == "_" else t.text

    def _parse_case(self) -> tuple:
        self.expect_kw("case")
        scrut = self.parse_expr()
        self.expect_sym("{")
        if self.at_sym("["):
            self.next()
            self.expect_sym("]")
            self.expect_sym("->")
            nil_body = self.parse_comp()
            self.expect_sym(";")
            h = self.expect_ident().text
            self.expect_sym("::")
            tl = self.expect_ident().text
            self.expect_sym("->")
            cons_body = self.parse_comp()
            self.expect_sym("}")
            return ("caselist", scrut, nil_body, h, tl, cons_body)
        self.expect_kw("inl")
        xl = self._parse_pat()
        self.expect_sym("->")
        left = self.parse_comp()
        self.expect_sym(";")
        self.expect_kw("inr")
        xr = self._parse_pat()
        self.expect_sym("->")
        right = self.parse_comp()
        self.expect_sym("}")
        return ("case", scrut, xl, left, xr, right)

    def _parse_handle(self) -> tuple:
        self.expect_kw("handle")
        body = self.parse_comp()
        self.expect_kw("with")
        self.expect_sym("{")
        val_clause = None
        op_clauses: list[tuple[str, str | None, str, tuple, Token]] = []
        while True:
            if self.at_kw("val"):
                tok = self.next()
                x = self._parse_pat()
                self.expect_sym("->")
                b = self.parse_comp()
                if val_clause is not None:
                    raise ParseError("duplicate val clause", tok.line, tok.col)
                val_clause = (x, b)
            else:
                op = self.expect_ident()
                p = self._parse_pat()
                r = self.expect_ident().text
                self.expect_sym("->")
                b = self.parse_comp()
                op_clauses.append((op.text, p, r, b, op))
            if self.at_sym(";"):
                self.next()
                continue
            break
        self.expect_sym("}")
        if val_clause is None:
            raise ParseError("handler needs a val clause", self.peek().line, self.peek().col)
        return ("handle", body, val_clause, op_clauses)

    # -- expressions

    def parse_expr(self) -> tuple:
        return self._or()

    def _or(self) -> tuple:
        left = self._and()
        while self.at_sym("||"):
            self.next()
            left = ("or", left, self._and())
        return left

    def _and(self) -> tuple:
        left = self._eq()
        while self.at_sym("&&"):
            self.next()
            left = ("and", left, self._eq())
        return left

    def _eq(self) -> tuple:
        left = self._cons()
        if self.at_sym("="):
            self.next()
            return ("prim", "=", left, self._cons())
        return left

    def _cons(self) -> tuple:
        left = self._add()
        if self.at_sym("::"):
            self.next()
            return ("cons", left, self._cons())
        return left

    def _add(self) -> tuple:
        left = self._unary()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            left = ("prim", op, left, self._unary())
        return left

    def _unary(self) -> tuple:
        if self.at_sym("!"):
            self.next()
            return ("deref", self._atom())
        return self._app()

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("NUM", "IDENT"):
            return True
        if t.kind == "KW" and t.text in ("true", "false", "fun", "rec", "inl", "inr", "do", "memoise"):
            return True
        if t.kind == "SYM" and t.text in ("(", "["):
            return True
        return False

    def _app(self) -> tuple:
        left = self._atom()
        while self._starts_atom():
            left = ("app", left, self._atom())
        return left

    def _atom(self) -> tuple:
        t = self.peek()
        if t.kind == "NUM":
            self.next()
            return ("num", int(t.text))
        if t.kind == "IDENT":
            self.next()
            return ("var", t.text, t)
        if t.kind == "KW":
            if t.text == "true":
                self.next()
                return ("true",)
            if t.text == "false":
                self.next()
                return ("false",)
            if t.text == "memoise":
                self.next()
                return ("memoise",)
            if t.text in ("inl", "inr"):
                self.next()
                return (t.text, self._atom())
            if t.text == "do":
                self.next()
                op = self.expect_ident()
                return ("do", op.text, self._atom(), op)
            if t.text == "fun":
                return self._parse_fun()
            if t.text == "rec":
                return self._parse_rec()
        if t.kind == "SYM" and t.text == "(":
            self.next()
            if self.at_sym(")"):
                self.next()
                return ("unit",)
            # (+) / (-) / (=) as first-class constants
            if self.peek().kind == "SYM" and self.peek().text in ("+", "-", "=") and self.at_sym(")", 1):
                op = self.next().text
                self.next()
                return ("const", op)
            inner = self.parse_comp()
            if self.at_sym(","):
                self.next()
                snd = self.parse_comp()
                self.expect_sym(")")
                return ("pair", inner, snd)
            if self.at_sym(":"):
                self.next()
                ty = self.parse_type()
                self.expect_sym(")")
                return ("ann", inner, ty)
            self.expect_sym(")")
            return inner
        if t.kind == "SYM" and t.text == "[":
            self.next()
            if self.at_sym("]"):
                self.next()
                return ("nil",)
            items = [self.parse_comp()]
            while self.at_sym(","):
                self.next()
                items.append(self.parse_comp())
            self.expect_sym("]")
            return ("list", items)
        raise ParseError(f"unexpected {t.text!r}", t.line, t.col)

    def _parse_fun(self) -> tuple:
        self.expect_kw("fun")
        params: list[tuple[str | None, sx.Type | None]] = []
        while True:
            if self.at_sym("("):
                # () unit pattern, or (x : T)
                if self.at_sym(")", 1):
                    self.next()
                    self.next()
                    params.append((None, sx.UNIT))
                    continue
                self.next()
                x = self.expect_ident().text
                self.expect_sym(":")
                ty = self.parse_type()
                self.expect_sym(")")
                params.append((None if x == "_" else x, ty))
                continue
            if self.peek().kind == "IDENT":
                x = self.next().text
                params.append((None if x == "_" else x, None))
                continue
            break
        if not params:
            t = self.peek()
            raise ParseError("fun needs at least one parameter", t.line, t.col)
        self.expect_sym("->")
        return ("fun", params, self.parse_comp())

    def _parse_rec(self) -> tuple:
        self.expect_kw("rec")
        fty = None
        if self.at_sym("("):
            self.next()
            f = self.expect_ident().text
            self.expect_sym(":")
            fty = self.parse_type()
            self.expect_sym(")")
        else:
            f = self.expect_ident().text
        p = self._parse_pat()
        self.expect_sym("->")
        return ("rec", f, fty, p, self.parse_comp())


# ---------------------------------------------------------------------------
# Elaboration: surface tree -> fine-grain core
# ---------------------------------------------------------------------------


class _Elab:
    def __init__(self, sig: Signature, supply: NameSupply):
        self.sig = sig
        self.ns = supply

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
            for op, p, r, b, tok in op_clauses:
                if op not in self.sig:
                    raise ParseError(f"unknown operation symbol {op!r}", tok.line, tok.col)
                if op in clauses:
                    raise ParseError(f"duplicate clause for {op!r}", tok.line, tok.col)
                p2 = self.ns.fresh(p if p else "_")
                r2 = self.ns.fresh(r)
                scb = {**sc, r: r2}
                if p:
                    scb[p] = p2
                clauses[op] = (p2, r2, self.comp(b, scb))
            return Handle(self.comp(body, sc), Handler(vx2, self.comp(vbody, scv), clauses))
        if tag == "do":
            _, op, arg, tok = s
            if op not in self.sig:
                raise ParseError(f"unknown operation symbol {op!r}", tok.line, tok.col)
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
            v.ann = ty
        elif cls is Nil and isinstance(ty, sx.ListType):
            v.ann = ty.elem
        elif cls is Lam and isinstance(ty, sx.Arrow) and v.param_type is None:
            v.param_type = ty.dom
        elif cls is Rec and v.fn_type is None:
            v.fn_type = ty
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

    toks, idents = tokenize(src)
    p = _Parser(toks)
    sig, surface = p.parse_program()
    term = _Elab(sig, NameSupply(idents)).run(surface)
    return sig, term


def parse_term(src: str, sig: Signature | None = None) -> Term:
    """Parse a single computation against an ambient signature."""

    toks, idents = tokenize(src)
    p = _Parser(toks)
    surface = p.parse_comp()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected {t.text!r} after term", t.line, t.col)
    return _Elab(sig or {}, NameSupply(idents)).run(surface)

"""Abstract syntax for the fx language family.

Three nested languages share one AST:

  * the pure core: naturals, unit, pairs, sums, cons lists, first-class
    functions, general recursion, and the constants + - = on naturals;
  * the effect extension: operation invocation (``do``) and handlers;
  * the state extension: reference cells (``letref`` / ``!`` / ``:=``).

Terms are fine-grain call-by-value: eliminators only accept value
arguments and every intermediate computation is named by a ``let``.  The
parser (and the program builders in :mod:`fxlang.countlib`) enforce this
shape; the evaluators rely on it.

Booleans are not primitive.  ``Bool`` abbreviates ``Unit + Unit`` with
``true = inl ()`` and ``false = inr ()``; ``if`` is a case split.

Every generic walker (free variables, subterm iteration, handler
completion, alpha-equivalence and ``smallstep.subst``) is built on
:func:`children` and :func:`map_children`, so a new term form needs its
entry in each of their two tables plus its arms in the evaluators, the
type checker and the printer.  A new leaf that carries data also names
that field in ``_LEAF_DATA``, which :func:`alpha_eq` compares.

No term field is written after construction, so a node's free variables
never change.  They are kept on the node, in a slot declared on
:class:`Term` only, which is the one later write: :func:`free_vars`
computes them once per node, and ``smallstep.subst`` sets them on the
nodes it builds, by set arithmetic on the sets of the nodes they replace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type:
    __slots__ = ()

    def __str__(self) -> str:
        from fxlang import pprint

        return pprint.type_to_source(self)


@dataclass(frozen=True, slots=True)
class NatType(Type):
    pass


@dataclass(frozen=True, slots=True)
class UnitType(Type):
    pass


@dataclass(frozen=True, slots=True)
class Arrow(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True, slots=True)
class Prod(Type):
    fst: Type
    snd: Type


@dataclass(frozen=True, slots=True)
class Sum(Type):
    left: Type
    right: Type


@dataclass(frozen=True, slots=True)
class RefType(Type):
    elem: Type


@dataclass(frozen=True, slots=True)
class ListType(Type):
    elem: Type


NAT = NatType()
UNIT = UnitType()
BOOL = Sum(UNIT, UNIT)

POINT = Arrow(NAT, BOOL)
PREDICATE = Arrow(POINT, BOOL)

# Types of the arithmetic constants.  ``=`` lands in the encoded booleans.
CONST_TYPES: dict[str, Type] = {
    "+": Arrow(Prod(NAT, NAT), NAT),
    "-": Arrow(Prod(NAT, NAT), NAT),
    "=": Arrow(Prod(NAT, NAT), BOOL),
}


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    # A node's free variables, cached by `free_vars` or set by
    # `smallstep.subst`.  The slot is declared on the base class only, so
    # it is no subclass's field.
    __slots__ = ("_fv",)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from fxlang import pprint

        return pprint.to_source(self)


# -- value forms


@dataclass(eq=False, repr=False, slots=True)
class Var(Term):
    name: str


@dataclass(eq=False, repr=False, slots=True)
class Num(Term):
    value: int


@dataclass(eq=False, repr=False, slots=True)
class Const(Term):
    name: str  # '+', '-', '=' or the machine primitive 'memoise'


@dataclass(eq=False, repr=False, slots=True)
class UnitVal(Term):
    pass


@dataclass(eq=False, repr=False, slots=True)
class Lam(Term):
    param: str
    body: Term
    param_type: Optional[Type] = None


@dataclass(eq=False, repr=False, slots=True)
class Rec(Term):
    fname: str
    param: str
    body: Term
    fn_type: Optional[Type] = None  # must be an Arrow when checked


@dataclass(eq=False, repr=False, slots=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(eq=False, repr=False, slots=True)
class Inl(Term):
    value: Term
    ann: Optional[Type] = None  # the full sum type, when known


@dataclass(eq=False, repr=False, slots=True)
class Inr(Term):
    value: Term
    ann: Optional[Type] = None


@dataclass(eq=False, repr=False, slots=True)
class Nil(Term):
    ann: Optional[Type] = None  # element type, when known


@dataclass(eq=False, repr=False, slots=True)
class Cons(Term):
    head: Term
    tail: Term


@dataclass(eq=False, repr=False, slots=True)
class Loc(Term):
    """A store location.  Runtime-only: never occurs in source programs."""

    index: int


@dataclass(eq=False, repr=False, slots=True)
class Quote(Term):
    """A machine value lifted back into value-term position.

    Runtime-only.  A machine rule that computes a value (M-Const,
    M-Deref, M-Memo, M-Memo-Hit, M-Memo-Record) continues with
    ``return`` of that value, so a run stopped right after one shows that
    term.
    """

    mval: object


# -- computation forms


@dataclass(eq=False, repr=False, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(eq=False, repr=False, slots=True)
class Return(Term):
    value: Term


@dataclass(eq=False, repr=False, slots=True)
class Let(Term):
    name: str
    bound: Term
    body: Term


@dataclass(eq=False, repr=False, slots=True)
class Split(Term):
    pair: Term
    fst_name: str
    snd_name: str
    body: Term


@dataclass(eq=False, repr=False, slots=True)
class Case(Term):
    scrutinee: Term
    left_name: str
    left: Term
    right_name: str
    right: Term


@dataclass(eq=False, repr=False, slots=True)
class CaseList(Term):
    scrutinee: Term
    nil_body: Term
    head_name: str
    tail_name: str
    cons_body: Term


@dataclass(eq=False, repr=False, slots=True)
class Do(Term):
    op: str
    arg: Term


@dataclass(eq=False, repr=False, slots=True)
class Handle(Term):
    body: Term
    handler: "Handler"


@dataclass(eq=False, repr=False, slots=True)
class LetRef(Term):
    name: str
    init: Term
    body: Term


@dataclass(eq=False, repr=False, slots=True)
class Deref(Term):
    ref: Term


@dataclass(eq=False, repr=False, slots=True)
class Assign(Term):
    ref: Term
    value: Term


@dataclass(eq=False, repr=False, slots=True)
class Handler:
    """One success clause plus at most one clause per operation symbol."""

    val_name: str
    val_body: Term
    clauses: dict[str, tuple[str, str, Term]] = field(default_factory=dict)


# An effect signature maps operation symbols to (argument, result) types.
Signature = dict[str, tuple[Type, Type]]


# Shared literal pieces.  AST nodes are immutable by convention (see the
# module docstring), so sharing them across terms is safe.
UNIT_V = UnitVal()


def true_() -> Term:
    return Inl(UNIT_V, BOOL)


def false_() -> Term:
    return Inr(UNIT_V, BOOL)


def bool_(b: bool) -> Term:
    return true_() if b else false_()


VALUE_CLASSES = (Var, Num, Const, UnitVal, Lam, Rec, Pair, Inl, Inr, Nil, Cons, Loc, Quote)


def is_value(t: Term) -> bool:
    return isinstance(t, VALUE_CLASSES)


def as_value(t: Term) -> Term:
    """Unwrap the trivial computation around a program that is a value."""

    if t.__class__ is Return and is_value(t.value):
        return t.value
    return t


def as_function(t: Term) -> Term:
    """The ``fun`` or ``rec`` value a predicate term stands for, unwrapped
    as by `as_value`.  Anything else is a ValueError; the test reads the
    node's class only, so it neither typechecks nor walks the term."""

    t = as_value(t)
    cls = t.__class__
    if cls is Lam or cls is Rec:
        return t
    what = f"a {cls.__name__} node" if is_value(t) else "a computation"
    raise ValueError(f"a predicate must be a function value, not {what}")


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

# The two tables below are the only place that knows each term form's
# shape: which fields are subterms and which names the form binds over
# each of them.  Every generic walker reads them, through `children` and
# `map_children` or, in the loops of this module, directly.

_LEAVES = frozenset((Var, Num, Const, UnitVal, Nil, Loc, Quote))


def _handle_children(t: Handle) -> tuple:
    h = t.handler
    clauses = tuple((b, (p, r)) for p, r, b in h.clauses.values())
    return ((t.body, ()), (h.val_body, (h.val_name,))) + clauses


_CHILDREN = {
    **dict.fromkeys(_LEAVES, lambda t: ()),
    Lam: lambda t: ((t.body, (t.param,)),),
    Rec: lambda t: ((t.body, (t.fname, t.param)),),
    Pair: lambda t: ((t.fst, ()), (t.snd, ())),
    Inl: lambda t: ((t.value, ()),),
    Inr: lambda t: ((t.value, ()),),
    Cons: lambda t: ((t.head, ()), (t.tail, ())),
    App: lambda t: ((t.fn, ()), (t.arg, ())),
    Return: lambda t: ((t.value, ()),),
    Let: lambda t: ((t.bound, ()), (t.body, (t.name,))),
    Split: lambda t: ((t.pair, ()), (t.body, (t.fst_name, t.snd_name))),
    Case: lambda t: ((t.scrutinee, ()), (t.left, (t.left_name,)), (t.right, (t.right_name,))),
    CaseList: lambda t: (
        (t.scrutinee, ()),
        (t.nil_body, ()),
        (t.cons_body, (t.head_name, t.tail_name)),
    ),
    Do: lambda t: ((t.arg, ()),),
    Handle: _handle_children,
    LetRef: lambda t: ((t.init, ()), (t.body, (t.name,))),
    Deref: lambda t: ((t.ref, ()),),
    Assign: lambda t: ((t.ref, ()), (t.value, ())),
}


def _handle_map(t: Handle, f) -> Term:
    h = t.handler
    return Handle(
        f(t.body, ()),
        Handler(
            h.val_name,
            f(h.val_body, (h.val_name,)),
            {op: (p, r, f(b, (p, r))) for op, (p, r, b) in h.clauses.items()},
        ),
    )


_MAP_CHILDREN = {
    **dict.fromkeys(_LEAVES, lambda t, f: t),
    Lam: lambda t, f: Lam(t.param, f(t.body, (t.param,)), t.param_type),
    Rec: lambda t, f: Rec(t.fname, t.param, f(t.body, (t.fname, t.param)), t.fn_type),
    Pair: lambda t, f: Pair(f(t.fst, ()), f(t.snd, ())),
    Inl: lambda t, f: Inl(f(t.value, ()), t.ann),
    Inr: lambda t, f: Inr(f(t.value, ()), t.ann),
    Cons: lambda t, f: Cons(f(t.head, ()), f(t.tail, ())),
    App: lambda t, f: App(f(t.fn, ()), f(t.arg, ())),
    Return: lambda t, f: Return(f(t.value, ())),
    Let: lambda t, f: Let(t.name, f(t.bound, ()), f(t.body, (t.name,))),
    Split: lambda t, f: Split(
        f(t.pair, ()), t.fst_name, t.snd_name, f(t.body, (t.fst_name, t.snd_name))
    ),
    Case: lambda t, f: Case(
        f(t.scrutinee, ()),
        t.left_name,
        f(t.left, (t.left_name,)),
        t.right_name,
        f(t.right, (t.right_name,)),
    ),
    CaseList: lambda t, f: CaseList(
        f(t.scrutinee, ()),
        f(t.nil_body, ()),
        t.head_name,
        t.tail_name,
        f(t.cons_body, (t.head_name, t.tail_name)),
    ),
    Do: lambda t, f: Do(t.op, f(t.arg, ())),
    Handle: _handle_map,
    LetRef: lambda t, f: LetRef(t.name, f(t.init, ()), f(t.body, (t.name,))),
    Deref: lambda t, f: Deref(f(t.ref, ())),
    Assign: lambda t, f: Assign(f(t.ref, ()), f(t.value, ())),
}


def children(t: Term) -> tuple:
    """The immediate subterms of t in constructor order, each paired with
    the tuple of names t binds over it: ``((subterm, names), ...)``."""

    return _CHILDREN[t.__class__](t)


def map_children(t: Term, f) -> Term:
    """Rebuild t with each immediate subterm s replaced by ``f(s, names)``,
    where names are the binders t puts over s.

    f is called in constructor order.  Binder names, annotations and
    operation labels are kept; a leaf comes back as the same object.
    """

    return _MAP_CHILDREN[t.__class__](t, f)


_NO_FREE: frozenset[str] = frozenset()


def known_closed(t: Term) -> bool:
    """Is t closed, as far as its class and cached set tell without a
    walk?  A leaf other than a variable is; another node is when its set
    is cached and empty."""

    cls = t.__class__
    if cls in _LEAVES:
        return cls is not Var
    return not getattr(t, "_fv", True)


def free_vars(t: Term) -> frozenset[str]:
    """The variables that occur free in t.

    Each node's set is computed once, from its children's sets, and kept
    in the node's `_fv` slot; leaves are not cached.  Most nodes that
    ``smallstep.subst`` builds get their sets from it and are not walked.
    A parent whose computed set equals a child's keeps that child's
    object.  No recursion, so deep terms do not hit Python's limit.
    """

    cls = t.__class__
    if cls is Var:
        return frozenset((t.name,))
    if cls in _LEAVES:
        return _NO_FREE
    try:
        return t._fv
    except AttributeError:
        pass
    stack = [t]
    while stack:  # post-order: a node is done once its children are
        s = stack[-1]
        kids = _CHILDREN[s.__class__](s)
        n = len(stack)
        for c, _ in kids:
            if c.__class__ not in _LEAVES and not hasattr(c, "_fv"):
                stack.append(c)
        if len(stack) > n:
            continue
        stack.pop()
        out = _NO_FREE
        for c, names in kids:
            cc = c.__class__
            if cc is Var:
                fv = frozenset((c.name,))
            elif cc in _LEAVES:
                continue
            else:
                fv = c._fv
            if names and not fv.isdisjoint(names):
                fv = fv.difference(names)
            if not fv or fv <= out:
                continue
            out = fv if out <= fv else out | fv
        s._fv = out
    return t._fv


def rewrite(t: Term, cls: type, g) -> Term:
    """Replace every node of class cls, innermost first, by g(node), where
    node already has its own subterms rewritten.

    A node is rebuilt only when one of its children changed, and replaced
    only when g returns another node, so a term that g leaves alone comes
    back as the same object; every unchanged subterm is shared.  No
    recursion, so deep terms do not hit Python's limit.
    """

    nodes, parents = [t], [-1]
    on_path: set[int] = set()
    for i, s in enumerate(nodes):  # breadth-first: nodes grows while read
        sc = s.__class__
        if sc is cls:
            j = i
            while j >= 0 and j not in on_path:
                on_path.add(j)
                j = parents[j]
        elif sc in _LEAVES:
            continue
        for c, _ in _CHILDREN[sc](s):
            nodes.append(c)
            parents.append(i)
    # parents never decreases, so node i's children are the run of i in
    # it; ``new`` holds only the nodes that changed
    new: dict[int, Term] = {}
    for i in sorted(on_path, reverse=True):  # children before parents
        s = nodes[i]
        lo = bisect_left(parents, i)
        if any(j in new for j in range(lo, bisect_right(parents, i, lo))):
            k = iter(range(lo, len(nodes)))
            s = map_children(s, lambda c, _, k=k: new.get(next(k), c))
        if s.__class__ is cls:
            s = g(s)
        if s is not nodes[i]:
            new[i] = s
    return new.get(0, t)


# The data a leaf carries besides its class; annotations are not data.
_LEAF_DATA = {Num: "value", Const: "name", Loc: "index", Quote: "mval"}


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables.

    A bound variable stands for its binder's position: the number of
    binding nodes above it and its index among the names that node binds
    there, so a shadowing binder never shares a label with the one it
    hides.  Type annotations are ignored: the surface syntax only records
    them where the checker needs help, so two pipelines may legitimately
    place them differently.  No recursion, so deep terms do not hit
    Python's limit.
    """

    stack = [(a, b, {}, {}, 0)]
    while stack:
        a, b, ra, rb, depth = stack.pop()
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Var:
            if ra.get(a.name, a.name) != rb.get(b.name, b.name):
                return False
            continue
        if cls in _LEAVES:
            f = _LEAF_DATA.get(cls)
            if f is not None and getattr(a, f) != getattr(b, f):
                return False
            continue
        if cls is Do and a.op != b.op:
            return False
        ka, kb = _CHILDREN[cls](a), _CHILDREN[cls](b)
        if cls is Handle:  # pair clauses by operation, not by position
            ca, cb = a.handler.clauses, b.handler.clauses
            if ca.keys() != cb.keys():
                return False
            kb = kb[:2] + tuple((cb[op][2], cb[op][:2]) for op in ca)
        for (sa, na), (sb, nb) in zip(ka, kb):
            if na:
                la, lb = dict(ra), dict(rb)
                for i, (x, y) in enumerate(zip(na, nb)):
                    la[x] = lb[y] = (depth, i)
                stack.append((sa, sb, la, lb, depth + 1))
            else:
                stack.append((sa, sb, ra, rb, depth))
    return True


class NameSupply:
    """Hands out identifiers that are unique within one term.

    Reuses the requested base name when it is still free, otherwise
    appends a primed counter (``x``, ``x'1``, ``x'2``, ...).  Primes are
    identifier characters in the surface syntax, so elaborated terms stay
    printable and re-parseable.
    """

    __slots__ = ("used", "counts")

    def __init__(self, used: Optional[set[str]] = None) -> None:
        self.used: set[str] = set(used) if used else set()
        self.counts: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        k = self.counts.get(base, 0)
        while True:
            k += 1
            name = f"{base}'{k}"
            if name not in self.used:
                self.counts[base] = k
                self.used.add(name)
                return name


def subterms(t: Term):
    """Iterate over every node of a term, t itself included."""

    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        for c, _ in _CHILDREN[s.__class__](s):
            stack.append(c)


def uses_effects(t: Term) -> bool:
    """Does the term invoke or handle operations anywhere?

    Nodes are read in constructor order (pre-order, left to right), and
    the walk stops at the first ``do`` or ``handle``: on a counter
    applied to a predicate it answers inside the counter.  `inject` calls
    it on every run, so it is a hand-written loop: over `subterms` it
    measured about 3.5 times slower.
    """

    stack = [t]
    while stack:
        s = stack.pop()
        cls = s.__class__
        if cls is Do or cls is Handle:
            return True
        if cls in _LEAVES:
            continue
        kids = _CHILDREN[cls](s)
        i = len(kids)
        while i:  # last child first, so the first is read next
            i -= 1
            stack.append(kids[i][0])
    return False


_EFFECT_FORMS = frozenset((Do, Handle))
_REF_FORMS = frozenset((LetRef, Deref, Assign, Loc))


def language_level(t: Term) -> str:
    """Classify a term by the features it uses: 'base', 'handler',
    'base+memo', 'state', or 'handler+state' for the combination."""

    forms = set()
    memo = False
    for s in subterms(t):
        forms.add(s.__class__)
        if s.__class__ is Const and s.name == "memoise":
            memo = True
    eff = not forms.isdisjoint(_EFFECT_FORMS)
    if not forms.isdisjoint(_REF_FORMS):
        return "handler+state" if eff else "state"
    if eff:
        return "handler"
    return "base+memo" if memo else "base"


def complete_handler(h: Handler, sig: Signature) -> Handler:
    """Fill in missing operation clauses with explicit forwarding.

    Each inserted clause re-performs the operation and feeds the answer to
    the resumption, so an outer handler gets the chance to interpret it.
    Already-total handlers come back unchanged (the same object), which
    also makes the operation idempotent.
    """

    missing = [op for op in sig if op not in h.clauses]
    if not missing:
        return h
    clauses = dict(h.clauses)
    for op in missing:
        p, r, x = f"{op}.p", f"{op}.r", f"{op}.x"
        clauses[op] = (p, r, Let(x, Do(op, Var(p)), App(Var(r), Var(x))))
    return Handler(h.val_name, h.val_body, clauses)


def complete_handlers(t: Term, sig: Signature) -> Term:
    """Apply the forwarding completion to every handler inside a term.
    A term whose handlers are all total comes back as the same object."""

    def complete(node: Handle) -> Handle:
        h = complete_handler(node.handler, sig)
        return node if h is node.handler else Handle(node.body, h)

    return rewrite(t, Handle, complete)

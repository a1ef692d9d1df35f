import dataclasses
import itertools
import random

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import syntax as sx
from fxlang.acceptance import memoise_to_identity
from fxlang.decompile import reify
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
from fxlang.smallstep import evaluate
from fxlang.syntax import (
    BOOL,
    Const,
    Do,
    Handle,
    Handler,
    Let,
    NAT,
    Return,
    UNIT,
    UNIT_V,
    Var,
    alpha_eq,
    children,
    complete_handler,
    complete_handlers,
    free_vars,
    language_level,
    map_children,
    subterms,
)
from termeq import same


def test_alpha_equivalence():
    a = parse_term("fun (x : Nat) -> x + 1")
    b = parse_term("fun (y : Nat) -> y + 1")
    c = parse_term("fun (y : Nat) -> y + 2")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


def test_free_vars():
    t = parse_term("fun (x : Nat) -> x + y")
    assert free_vars(t) == {"y"}


def test_free_vars_are_cached_on_the_node_in_no_subclass_field():
    t = parse_term("fun (x : Nat) -> y + z")
    assert free_vars(t) == {"y", "z"}
    assert free_vars(t) is free_vars(t)
    forms = [c for c in sx._CHILDREN if "_fv" in c.__slots__]
    assert forms == []


def test_complete_handler_inserts_forwarding():
    sig = {"Branch": (UNIT, BOOL), "Ask": (UNIT, NAT)}
    h = Handler("x", Return(Var("x")), {})
    done = complete_handler(h, sig)
    assert set(done.clauses) == {"Branch", "Ask"}
    p, r, body = done.clauses["Branch"]
    # { l p r -> let x <- do l p in r x }
    assert isinstance(body, Let) and isinstance(body.bound, Do)
    assert body.bound.op == "Branch"


def test_complete_handler_idempotent():
    sig = {"Branch": (UNIT, BOOL)}
    h = Handler("x", Return(Var("x")), {})
    once = complete_handler(h, sig)
    twice = complete_handler(once, sig)
    assert twice is once


def test_complete_handler_empty_signature():
    h = Handler("x", Return(Var("x")), {})
    assert complete_handler(h, {}) is h


def test_complete_handlers_walks_terms():
    sig, term = parse_program("""
operation Branch : Unit -> Bool
operation Ask : Unit -> Nat
handle do Ask () with {val x -> return x; Ask () r -> r 1}
""")
    done = complete_handlers(term, sig)
    assert set(done.handler.clauses) == {"Branch", "Ask"}


def test_complete_handlers_deep_term():
    # 5,000 lets above a handler: the rewrite must not recurse per level,
    # and handler-free subterms come back shared
    sig = {"Branch": (UNIT, BOOL)}
    term = Handle(Return(Var("x")), Handler("x", Return(Var("x")), {}))
    for i in range(5000):
        term = Let(f"u{i}", Return(UNIT_V), term)
    done = complete_handlers(term, sig)
    assert done.bound is term.bound
    while done.__class__ is Let:
        done = done.body
    assert set(done.handler.clauses) == {"Branch"}


def test_language_levels():
    assert language_level(parse_term("return 1")) == "base"
    assert language_level(parse_term("letref x = 1 in !x")) == "state"
    assert language_level(parse_term("memoise (fun () -> return [true])")) == "base+memo"
    sig, t = parse_program("operation B : Unit -> Bool\ndo B ()")
    assert language_level(t) == "handler"
    sig2, t2 = parse_program(
        "operation B : Unit -> Bool\nletref x = 1 in do B ()"
    )
    assert language_level(t2) == "handler+state"


def test_traversal_tables_cover_every_term_form():
    forms = {
        c for c in vars(sx).values()
        if isinstance(c, type) and issubclass(c, sx.Term) and c is not sx.Term
    }
    assert len(forms) == 24
    assert set(sx._CHILDREN) == forms
    assert set(sx._MAP_CHILDREN) == forms


def _traversal_corpus():
    for name, desc in sorted(cl.catalog().items()):
        yield desc.build(3)
    for seed in range(200):
        yield random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)


def _copy(t, _names):
    return map_children(t, _copy)


def test_map_children_rebuilds_alpha_equal_terms():
    for term, _ in _traversal_corpus():
        assert alpha_eq(map_children(term, lambda c, _: c), term)
        assert alpha_eq(_copy(term, ()), term)
        for s in subterms(term):
            calls = []
            rebuilt = map_children(s, lambda c, names: calls.append((c, names)) or c)
            kids = children(s)
            # f runs in constructor order and sees the names children reports
            assert [(id(c), n) for c, n in calls] == [(id(c), n) for c, n in kids]
            assert [(id(c), n) for c, n in children(rebuilt)] == [(id(c), n) for c, n in kids]
            if not kids:
                assert rebuilt is s


def test_memoise_to_identity():
    term, sig, _ = cl.compose("bergercount", "odd", 4)

    def memoises(t):
        return [s for s in subterms(t) if s.__class__ is Const and s.name == "memoise"]

    assert memoises(term)
    ident = memoise_to_identity(term)
    assert not memoises(ident)
    assert mc.run_machine(ident, sig).value == mc.run_machine(term, sig).value == 8


# -- alpha-equivalence


def _curried(x, y, z, body):
    return sx.Lam(x, Return(sx.Lam(y, Return(sx.Lam(z, Return(Var(body)))))))


def test_alpha_eq_tells_a_shadowing_binder_from_the_one_it_hides():
    # built directly: the parser would rename the shadowing binder
    a = _curried("x", "x", "y", "x")  # fun x -> return (fun x -> return (fun y -> return x))
    b = _curried("x", "x", "y", "y")
    assert not alpha_eq(a, b) and not alpha_eq(b, a)
    assert alpha_eq(a, _curried("u", "v", "w", "v"))
    assert alpha_eq(b, _curried("u", "u", "u", "u"))
    # they differ: applied to 1 2 3, a returns 2 and b returns 3
    for t, want in ((a, 2), (b, 3)):
        apply_g = sx.App(Var("g"), sx.Num(3))
        call = Let("f", sx.App(t, sx.Num(1)), Let("g", sx.App(Var("f"), sx.Num(2)), apply_g))
        out, _, _ = evaluate(call)
        assert out.value.value == want


def test_alpha_eq_pairs_handler_clauses_by_operation():
    sig = "operation A : Unit -> Nat\noperation B : Unit -> Nat\n"
    body = "handle return 0 with {val x -> return x; "
    _, ab = parse_program(sig + body + "A () r -> r 1; B () k -> k 2}")
    _, ba = parse_program(sig + body + "B () s -> s 2; A () q -> q 1}")
    _, swapped = parse_program(sig + body + "A () r -> r 2; B () k -> k 1}")
    _, fewer = parse_program(sig + body + "A () r -> r 1}")
    assert list(ab.handler.clauses) != list(ba.handler.clauses)
    assert alpha_eq(ab, ba) and alpha_eq(ba, ab)
    assert not alpha_eq(ab, swapped)
    assert not alpha_eq(ab, fewer) and not alpha_eq(fewer, ab)


def test_alpha_eq_ignores_annotations():
    ident = Return(Var("x"))
    pairs = [
        (sx.Lam("x", ident, NAT), sx.Lam("x", ident)),
        (sx.Rec("f", "x", ident, sx.Arrow(NAT, NAT)), sx.Rec("f", "x", ident)),
        (sx.Inl(UNIT_V, BOOL), sx.Inl(UNIT_V)),
        (sx.Inr(UNIT_V, BOOL), sx.Inr(UNIT_V)),
        (sx.Nil(NAT), sx.Nil()),
    ]
    for a, b in pairs:
        assert alpha_eq(a, b) and alpha_eq(b, a)
    assert alpha_eq(parse_term("fun (x : Nat) -> return x"), parse_term("fun y -> return y"))


def test_alpha_eq_tells_a_bound_variable_from_a_free_one_of_the_same_name():
    assert not alpha_eq(parse_term("fun x -> return x"), parse_term("fun y -> return x"))
    assert not alpha_eq(parse_term("fun y -> return x"), parse_term("fun x -> return x"))
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(Var("x"), Var("x"))


def test_alpha_eq_compares_leaf_data_and_operations():
    assert not alpha_eq(sx.Num(1), sx.Num(2))
    assert not alpha_eq(Const("+"), Const("-"))
    assert not alpha_eq(sx.Loc(0), sx.Loc(1))
    assert not alpha_eq(sx.Quote(1), sx.Quote(2)) and alpha_eq(sx.Quote(1), sx.Quote(1))
    assert not alpha_eq(Do("A", UNIT_V), Do("B", UNIT_V))
    assert not alpha_eq(UNIT_V, sx.Nil())


# The fields of each term form that hold the names it binds; a Handle
# keeps its binders in its handler.
_BINDER_FIELDS = {
    sx.Lam: ("param",),
    sx.Rec: ("fname", "param"),
    sx.Let: ("name",),
    sx.Split: ("fst_name", "snd_name"),
    sx.Case: ("left_name", "right_name"),
    sx.CaseList: ("head_name", "tail_name"),
    sx.LetRef: ("name",),
}


def _renamed(t, env, fresh):
    """A copy of t in which every binder has a new name no other binder has."""

    if t.__class__ is Var:
        return Var(env.get(t.name, t.name))
    ren = {x: f"{x}~{next(fresh)}" for _, names in children(t) for x in names}
    new = map_children(
        t, lambda c, names: _renamed(c, {**env, **{x: ren[x] for x in names}}, fresh)
    )
    if new.__class__ is Handle:
        h = new.handler
        clauses = {op: (ren[p], ren[r], b) for op, (p, r, b) in h.clauses.items()}
        return Handle(new.body, Handler(ren[h.val_name], h.val_body, clauses))
    fields = _BINDER_FIELDS.get(new.__class__, ())
    return dataclasses.replace(new, **{f: ren[getattr(new, f)] for f in fields})


def _changed(leaf, scope):
    """A different leaf in place of ``leaf``, under the binders ``scope``."""

    cls = leaf.__class__
    if cls is Var:
        others = [x for x in scope if x != leaf.name]
        return Var(others[-1] if others else leaf.name + "~free")
    if cls is sx.Num:
        return sx.Num(leaf.value + 1)
    if cls is Const:
        return Const("-" if leaf.name == "+" else "+")
    if cls is sx.UnitVal:
        return sx.Nil()
    if cls is sx.Nil:
        return UNIT_V
    raise AssertionError(f"no mutation for {cls.__name__}")


def _mutant(t, k):
    """t with its k-th leaf (in constructor order) changed."""

    leaves = itertools.count()

    def go(s, scope):
        if children(s):
            return map_children(s, lambda c, names: go(c, scope + names))
        return _changed(s, scope) if next(leaves) == k else s

    return go(t, ())


def _alpha_corpus():
    for name, desc in sorted(cl.catalog().items()):
        yield desc.build(3)[0]
    for seed in range(500):
        yield random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)[0]


def test_alpha_eq_on_renamed_copies_and_one_leaf_mutants():
    rng = random.Random(0)
    checked = 0
    for term in _alpha_corpus():
        copy = _renamed(term, {}, itertools.count())
        old = {x for s in subterms(term) for _, names in children(s) for x in names}
        new = {x for s in subterms(copy) for _, names in children(s) for x in names}
        assert old.isdisjoint(new)
        assert alpha_eq(copy, term) and alpha_eq(term, copy)
        n_leaves = sum(1 for s in subterms(term) if not children(s))
        for k in {0, n_leaves - 1, rng.randrange(n_leaves)}:
            mutant = _mutant(term, k)
            assert not alpha_eq(mutant, term) and not alpha_eq(term, mutant), k
            assert not alpha_eq(mutant, copy)
            checked += 1
    assert checked > 1_000


def test_alpha_eq_on_a_5000_cell_list_does_not_recurse():
    a, b = mc.VNIL, mc.VNIL
    for i in range(5000):
        a, b = mc.VCons(i, a), mc.VCons(i, b)
    assert alpha_eq(reify(a), reify(a))
    assert alpha_eq(reify(a), reify(b))
    assert not alpha_eq(reify(a), reify(mc.VCons(5000, b.tail)))
    assert not alpha_eq(reify(a), reify(b.tail))


def test_same_compares_slotted_classes_without_slots_by_class():
    assert same(sx.UnitVal(), sx.UnitVal())
    assert not same(sx.UnitVal(), sx.Nil())
    assert same(sx.Nil(), sx.Nil()) and not same(sx.Nil(), sx.Nil(NAT))

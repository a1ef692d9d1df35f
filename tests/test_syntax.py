from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import syntax as sx
from fxlang.acceptance import memoise_to_identity
from fxlang.gen import random_program
from fxlang.parser import parse_program, parse_term
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

from random import Random

import pytest

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import trees as tr
from fxlang.acceptance import memoise_to_identity
from fxlang.errors import FuelExhausted
from fxlang.parser import parse_program, parse_term
from fxlang.pprint import program_to_source, render_mval, to_source
from fxlang.smallstep import evaluate, NormalValue
from fxlang.syntax import App, Handle, Num, complete_handlers, subterms


def mrun(term, sig=None, fuel=10**7):
    return mc.run_machine(term, sig, fuel)


def test_points_denote_their_vectors():
    from fxlang.syntax import Num

    q0 = cl.as_value(cl.get("q0").build()[0])
    q1 = cl.as_value(cl.get("q1").build()[0])
    for k in range(4):
        assert mc.mval_to_bool(mrun(App(q0, Num(k))).value)
    # q1 is <true, false, false, ...>
    assert mc.mval_to_bool(mrun(App(q1, Num(0))).value) is True
    for k in (1, 2, 5):
        assert mc.mval_to_bool(mrun(App(q1, Num(k))).value) is False


def test_q2_diverges_beyond_index_one():
    from fxlang.syntax import Num

    q2 = cl.as_value(cl.get("q2").build()[0])
    assert mc.mval_to_bool(mrun(App(q2, Num(0))).value) is True
    assert mc.mval_to_bool(mrun(App(q2, Num(1))).value) is False
    with pytest.raises(FuelExhausted):
        mrun(App(q2, Num(2)), fuel=10_000)


def test_odd_on_example_points():
    odd2, _ = cl.build_predicate("odd", 2)
    for point_name, want in (("q0", False), ("q1", True), ("q2", True)):
        pt = cl.as_value(cl.get(point_name).build()[0])
        res = mrun(App(odd2, pt))
        assert mc.mval_to_bool(res.value) is want


def test_toss_result():
    term, sig = cl.get("toss").build(None)
    res = mrun(term, sig)
    assert render_mval(res.value) == "[true, false]"


def test_cross_implementation_agreement():
    rng = Random(77)
    counters = ["naivecount", "lazycount", "bergercount",
                "effcount", "effcount_rep", "effcount_miss"]
    for trial in range(12):
        n = rng.randrange(1, 6)
        tree = tr.random_standard_tree(rng, n)
        pred = tr.tree_to_predicate(tree)
        want = tree.brute_force_count(n)
        for impl in counters:
            got = cl.run_on_predicate(impl, pred, n).result
            assert got == want, (impl, n, got, want)
        assert cl.run_on_predicate("effsearch", pred, n).result == want


def test_agreement_on_class_compatible_examples():
    # each counter against the catalogue predicates inside its class
    cases = {
        "I0": (2, 2), "I1": (1, 1), "T0": (2, 4), "T1": (2, 4),
        "I2": (1, 1), "T2": (2, 4), "constfalse": (3, 0), "odd": (4, 8),
    }
    for pred_name, (n, want) in cases.items():
        pred = cl.get(pred_name)
        for impl_name in ("naivecount", "lazycount", "bergercount",
                          "effcount", "effcount_rep", "effcount_miss"):
            impl = cl.get(impl_name)
            if not cl.class_within(pred.class_at(n), impl.accepts):
                continue
            got = cl.run_report(impl_name, pred_name, n).result
            assert got == want, (impl_name, pred_name, got, want)


def test_effcount_handler_shape_is_pinned():
    # The exact-step formula depends on this clause structure: any edit
    # that adds or removes a transition must show up here first.
    from fxlang.syntax import App, Case, Const, Do, Handle, Lam, Let, Pair, Return, Var

    term = cl.as_value(cl.get("effcount").build()[0])
    assert isinstance(term, Lam)
    body = term.body
    assert isinstance(body, Handle)
    assert isinstance(body.body, App) and isinstance(body.body.arg, Lam)
    assert isinstance(body.body.arg.body, Do)
    h = body.handler
    assert isinstance(h.val_body, Case)
    assert isinstance(h.val_body.left, Return) and h.val_body.left.value.value == 1
    p, r, clause = h.clauses["Branch"]
    assert isinstance(clause, Let) and isinstance(clause.bound, App)
    assert clause.bound.fn.name == r
    inner = clause.body
    assert isinstance(inner, Let) and isinstance(inner.bound, App)
    add = inner.body
    assert isinstance(add, App) and isinstance(add.fn, Const) and add.fn.name == "+"
    assert isinstance(add.arg, Pair)
    assert {add.arg.fst.name, add.arg.snd.name} == {clause.name, inner.name}


def test_effcount_on_constant_true():
    # one empty point satisfies the constant-true predicate
    assert cl.run_report("effcount", "T0", 0).result == 1


def test_naivecount_on_constant_true():
    assert cl.run_report("naivecount", "T0", 3).result == 8


def test_bestshot_returns_satisfying_point():
    # evaluate the chosen point at every index, then check it satisfies
    pred, bits = cl.build_predicate("odd", 2)
    counter, _ = cl.get("bestshot").build(2)
    res = mrun(App(cl.as_value(counter), pred))
    point_v = res.value
    from fxlang.syntax import Num, Quote

    values = []
    for i in range(2):
        out = mrun(App(Quote(point_v), Num(i)))
        values.append(mc.mval_to_bool(out.value))
    assert values.count(True) % 2 == 1  # an odd-parity point


def test_bestshot_is_cheap_until_sampled():
    pred, _ = cl.build_predicate("odd", 8)
    counter, _ = cl.get("bestshot").build(8)
    res = mrun(App(cl.as_value(counter), pred))
    assert res.ticks < 40  # no search yet


def test_lazycount_on_false_constant_time():
    ticks = {cl.run_report("lazycount", "constfalse", n).ticks for n in range(2, 13)}
    assert len(ticks) == 1


def test_hughes_list_append_law():
    # toConsList (concat f g) equals toConsList f ++ toConsList g
    rng = Random(99)
    for _ in range(100):
        xs = [rng.randrange(10) for _ in range(rng.randrange(4))]
        ys = [rng.randrange(10) for _ in range(rng.randrange(4))]
        fx = "".join(f"{v} :: " for v in xs)
        gy = "".join(f"{v} :: " for v in ys)
        src = f"""
let f = (fun (l : List Nat) -> return ({fx}l)) in
let g = (fun (l : List Nat) -> return ({gy}l)) in
let cat = (fun (l : List Nat) -> let t <- g l in f t) in
cat ([] : List Nat)
"""
        res = mrun(parse_term(src))
        got = [v for v in mc.mval_list(res.value)]
        assert got == xs + ys


def test_searcher_points_total_on_standard_predicates():
    term, sig, _ = cl.compose("effsearch", "odd", 3)
    res = mrun(term, sig)
    points = mc.mval_list(res.value)
    assert len(points) == 4
    from fxlang.syntax import Num, Quote

    for pv in points:
        bits = [
            mc.mval_to_bool(mrun(App(Quote(pv), Num(i))).value) for i in range(3)
        ]
        assert sum(bits) % 2 == 1


def test_queens_eager_tree_is_full():
    pred, bits = cl.build_predicate("queens_eager", 2)
    tree = tr.extract_tree(pred, fuel=10**7)
    assert bits == 4
    assert tree.classify(4) is tr.Classification.N_STANDARD
    assert len(tree.leaves()) == 16


def test_queens_counts_match_between_variants():
    for n in (1, 2, 3):
        fail = cl.run_report("effcount_miss", "queens", n).result
        eager = cl.run_report("effcount", "queens_eager", n).result
        assert fail == eager


def test_lint_rejects_branch_handling_predicate():
    sig = {"Branch": (cl.get("effcount").build()[1]["Branch"])}
    pred = parse_term(
        """
fun (q : Nat -> Bool) ->
  handle q 0 with {val x -> return x; Branch () r -> r true}
""",
        cl.get("effcount").build()[1],
    )
    with pytest.raises(cl.LintError):
        cl.run_on_predicate("effcount", pred, 1)


def test_compose_builds_runnable_closed_terms():
    term, sig, bits = cl.compose("effcount", "odd", 3)
    from fxlang.syntax import free_vars
    from fxlang.typecheck import typecheck_program

    assert not free_vars(term)
    assert bits == 3
    typecheck_program(sig, term)


def test_counter_results_match_smallstep():
    # Def 5.8(ii): counting verified through both semantics
    for impl, pred, n, want in (
        ("effcount", "odd", 2, 2),
        ("naivecount", "odd", 2, 2),
        ("effcount_rep", "I2", 1, 1),
        ("effcount_miss", "I0", 2, 2),
    ):
        term, sig, _ = cl.compose(impl, pred, n)
        res = mrun(term, sig)
        out, _, _ = evaluate(term, sig, fuel=10**6)
        assert isinstance(out, NormalValue)
        assert res.value == out.value.value == want


def test_register_rejects_duplicate_names():
    before = cl.catalog()
    with pytest.raises(ValueError, match="already registered"):
        cl._register(cl.get("effcount"))
    assert cl.catalog() == before


def test_build_shares_one_term_per_size():
    for name, desc in cl.catalog().items():
        assert desc.build(2) is desc.build(2), name
        if desc.takes_n:
            # the cache is keyed on the source text, and the searchers'
            # text does not depend on n
            differ = desc.source(2) != desc.source(3)
            assert (desc.build(2)[0] is not desc.build(3)[0]) == differ, name
        else:
            assert desc.build(2) is desc.build(None), name


def test_build_rejects_negative_sizes():
    for desc in cl.catalog().values():
        with pytest.raises(ValueError, match="at least 0, not -1"):
            desc.build(-1)


def test_shared_terms_survive_every_consumer():
    # Every consumer of a built term leaves the cached one as it was.
    n = 2
    programs = cl.catalog()
    before = {name: to_source(d.build(n)[0]) for name, d in programs.items()}
    tree_pred = tr.tree_to_predicate(tr.random_standard_tree(Random(5), n))
    for name, desc in programs.items():
        term, sig = desc.build(n)
        complete_handlers(term, sig)
        stripped = memoise_to_identity(term)
        if desc.kind == "predicate":
            pred, _ = cl.build_predicate(name, n)
            tr.extract_tree(pred, fuel=10**7)
            cl.run_report("effcount_rep", name, n)
        elif desc.kind == "selector":  # returns a point, not a count
            mrun(App(cl.as_value(stripped), cl.as_value(tree_pred)))
        elif desc.kind in ("counter", "searcher"):
            cl.run_report(name, "odd", n)
            cl.run_on_predicate(name, tree_pred, n)
            mrun(App(cl.as_value(stripped), cl.as_value(tree_pred)), sig)
        elif desc.kind == "point":
            mrun(App(cl.as_value(term), Num(0)))
        elif name != "bottom":
            mrun(term, sig)
    assert {name: to_source(d.build(n)[0]) for name, d in programs.items()} == before


def test_building_completes_no_catalog_term():
    # Every catalog program's handlers are total over its own signature,
    # so completing it when it is built prints the same program, and
    # completing the program, raw or built, returns that same object.
    completed = 0
    for name, desc in cl.catalog().items():
        sizes = range(3 if name.startswith("queens") else 6) if desc.takes_n else [None]
        for n in sizes:
            raw_sig, raw = parse_program(desc.source(n) if desc.takes_n else desc.source)
            term, sig = desc.build(n)
            assert program_to_source(sig, term) == program_to_source(raw_sig, raw), (name, n)
            if sig:
                assert complete_handlers(raw, sig) is raw, (name, n)
                assert complete_handlers(term, sig) is term, (name, n)
                completed += any(s.__class__ is Handle for s in subterms(term))
    assert completed > 0


# A predicate with a handler of its own, for Oops only: the counter's
# Branch must be forwarded through it, which completion adds.
_PARTIAL_HANDLER_PRED = (
    "operation Branch : Unit -> Bool\n"
    "operation Oops : Unit -> Bool\n"
    "fun (q : Nat -> Bool) -> handle (let a <- q 0 in let b <- q 1 in"
    " if a then return b else do Oops ())"
    " with {val x -> return x; Oops () r -> r true}"
)


@pytest.mark.parametrize("impl, want", [
    ("effcount", (3, 79, 104)),
    ("effsearch", (3, 112, 153)),
    ("effcount_rep", (3, 341, 428)),
])
def test_a_predicates_partial_handler_forwards_the_counters_operation(impl, want):
    _, pred = parse_program(_PARTIAL_HANDLER_PRED)
    [h] = [s.handler for s in subterms(pred) if s.__class__ is Handle]
    assert "Branch" not in h.clauses
    rep = cl.run_on_predicate(impl, pred, 2)
    assert (rep.result, rep.ticks, rep.envops) == want

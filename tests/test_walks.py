"""The one-pass predicate walks: `uses_effects`, `language_level` and the
lint in `countlib`'s predicate completion against per-node definitions,
and how often a `trees` predicate's nodes are read: never to extract it,
since extraction only runs it, and at most once each to count it.  The
lint names the first operation of the counter's signature, in signature
order, that any handler of the predicate handles, whatever order the
walk meets the handlers in."""

import itertools
from collections import Counter
from random import Random

import pytest

from fxlang import countlib as cl
from fxlang import syntax as sx
from fxlang import trees as tr
from fxlang.gen import random_program
from fxlang.parser import parse_term
from fxlang.syntax import (
    App,
    Assign,
    Const,
    Deref,
    Do,
    Handle,
    Handler,
    LetRef,
    Loc,
    Return,
    Var,
    as_value,
    complete_handlers,
    subterms,
)
from termeq import same


# -- the per-node definitions the one-pass walks replace


def old_uses_effects(t):
    for s in subterms(t):
        cls = s.__class__
        if cls is Do or cls is Handle:
            return True
    return False


def old_language_level(t):
    has_eff = False
    has_ref = False
    has_memo = False
    for s in subterms(t):
        cls = s.__class__
        if cls is Do or cls is Handle:
            has_eff = True
        elif cls in (LetRef, Deref, Assign, Loc):
            has_ref = True
        elif cls is Const and s.name == "memoise":
            has_memo = True
    if has_eff and has_ref:
        return "handler+state"
    if has_ref:
        return "state"
    if has_eff:
        return "handler"
    if has_memo:
        return "base+memo"
    return "base"


def old_lint(pred, sig):
    """Complete the predicate's handlers, or reject the first signature
    operation that any of its handlers handles."""

    handled = {op for s in subterms(pred) if s.__class__ is Handle for op in s.handler.clauses}
    for op in sig:
        if op in handled:
            raise cl.LintError(f"predicate handles the distinguished operation {op!r}")
    return complete_handlers(pred, sig)


def lint_outcome(lint, t, sig):
    try:
        return lint(t, sig)
    except cl.LintError as e:
        return str(e)


def assert_walks_agree(t, sig):
    assert sx.uses_effects(t) == old_uses_effects(t)
    assert sx.language_level(t) == old_language_level(t)
    got, want = lint_outcome(cl._complete_predicate, t, sig), lint_outcome(old_lint, t, sig)
    if isinstance(want, str):  # the LintError's message
        assert got == want
    else:
        assert same(got, want)


def test_walks_agree_on_the_catalog():
    effcount_sig = cl.get("effcount").build(3)[1]
    for name, desc in cl.catalog().items():
        term, sig = desc.build(3)
        assert_walks_agree(term, sig or effcount_sig)


@pytest.mark.parametrize("effects, refs", list(itertools.product((False, True), repeat=2)))
def test_walks_agree_on_generated_programs(effects, refs):
    for seed in range(1000):
        term, sig = random_program(seed, effects=effects, refs=refs)
        assert_walks_agree(term, sig)
        for op in sig:
            assert_walks_agree(term, {op: sig[op]})


def test_a_location_leaf_alone_makes_a_term_stateful():
    t = Handle(Return(Loc(0)), Handler("x", Return(Var("x"))))
    assert sx.language_level(t) == old_language_level(t) == "handler+state"
    assert sx.uses_effects(t) and old_uses_effects(t)


_BRANCH = cl.get("effcount").build(1)[1]["Branch"]
_BRANCH_OOPS = {"Branch": _BRANCH, "Oops": _BRANCH}


def test_a_branch_handler_under_lets_is_rejected_by_both():
    pred = parse_term(
        """
fun (q : Nat -> Bool) ->
  let a <- q 0 in
  let b <- q 1 in
  handle q 2 with {val x -> return x; Branch () r -> r true}
""",
        _BRANCH_OOPS,
    )
    for lint in (cl._complete_predicate, old_lint):
        with pytest.raises(cl.LintError, match="'Branch'"):
            lint(pred, {"Branch": _BRANCH})
    assert_walks_agree(pred, {"Branch": _BRANCH})


def test_a_handler_of_another_operation_passes_both():
    pred = parse_term(
        "fun (q : Nat -> Bool) -> handle q 0 with {val x -> return x; Oops () r -> r true}",
        _BRANCH_OOPS,
    )
    cl._complete_predicate(pred, {"Branch": _BRANCH})
    old_lint(pred, {"Branch": _BRANCH})
    assert_walks_agree(pred, {"Branch": _BRANCH})


def test_uses_effects_answers_inside_the_counter(monkeypatch):
    # constructor order: the counter is read before the predicate
    pred = tr.tree_to_predicate(tr.random_standard_tree(Random(0), 6))
    counter = as_value(cl.get("effcount").build(6)[0])
    own = {id(s) for s in subterms(pred)}
    reads = count_reads(monkeypatch, own)
    assert sx.uses_effects(App(counter, pred))
    assert not reads


# -- how often a `trees` predicate's own nodes are read


def count_reads(monkeypatch, own):
    """Count `_CHILDREN` calls on the nodes whose ids are in ``own``."""

    reads = Counter()
    for cls, f in list(sx._CHILDREN.items()):

        def counted(t, f=f):
            if id(t) in own:
                reads[id(t)] += 1
            return f(t)

        monkeypatch.setitem(sx._CHILDREN, cls, counted)
    return reads


def test_a_counter_without_operations_does_not_read_the_predicate(monkeypatch):
    pred, _ = cl.build_predicate("odd", 3)
    reads = count_reads(monkeypatch, {id(s) for s in subterms(pred)})
    term, sig, _ = cl.compose("naivecount", "odd", 3)
    assert not sig
    assert term.arg is pred  # the very predicate object
    assert not reads


def test_a_tree_predicate_is_not_read_to_extract_and_read_once_to_count(monkeypatch):
    tree = tr.random_standard_tree(Random(0), 10)
    pred = tr.tree_to_predicate(tree)
    occurrences = Counter(id(s) for s in subterms(pred))  # `()` is one shared node
    reads = count_reads(monkeypatch, occurrences)
    assert tr.extract_tree(pred) == tree
    assert not reads  # the run alone: no walk of the predicate
    assert cl.run_on_predicate("effcount", pred, 10).result == tree.count_true(10)
    assert reads
    assert all(reads[i] <= occurrences[i] for i in reads)  # the lint walk only

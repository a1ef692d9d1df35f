"""The one-pass predicate walks: `uses_effects`, `language_level` and
`lint_handles_ops` against their earlier per-node definitions, and how
often a `trees` predicate's nodes are read to extract and to count it."""

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
    subterms,
)


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


def old_lint_handles_ops(pred, ops):
    for s in subterms(pred):
        if s.__class__ is Handle:
            for op in ops:
                if op in s.handler.clauses:
                    raise cl.LintError(f"predicate handles the distinguished operation {op!r}")


def lint_outcome(lint, t, ops):
    try:
        lint(t, ops)
    except cl.LintError as e:
        return str(e)
    return "passed"


def assert_walks_agree(t, ops):
    assert sx.uses_effects(t) == old_uses_effects(t)
    assert sx.language_level(t) == old_language_level(t)
    assert lint_outcome(cl.lint_handles_ops, t, ops) == lint_outcome(old_lint_handles_ops, t, ops)


def test_walks_agree_on_the_catalog():
    effcount_ops = tuple(cl.get("effcount").build(3)[1])
    for name, desc in cl.catalog().items():
        term, sig = desc.build(3)
        assert_walks_agree(term, tuple(sig) or effcount_ops)


@pytest.mark.parametrize("effects, refs", list(itertools.product((False, True), repeat=2)))
def test_walks_agree_on_generated_programs(effects, refs):
    for seed in range(1000):
        term, sig = random_program(seed, effects=effects, refs=refs)
        assert_walks_agree(term, tuple(sig))
        for op in sig:
            assert_walks_agree(term, (op,))


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
    for lint in (cl.lint_handles_ops, old_lint_handles_ops):
        with pytest.raises(cl.LintError, match="'Branch'"):
            lint(pred, ("Branch",))
    assert_walks_agree(pred, ("Branch",))


def test_a_handler_of_another_operation_passes_both():
    pred = parse_term(
        "fun (q : Nat -> Bool) -> handle q 0 with {val x -> return x; Oops () r -> r true}",
        _BRANCH_OOPS,
    )
    cl.lint_handles_ops(pred, ("Branch",))
    old_lint_handles_ops(pred, ("Branch",))
    assert_walks_agree(pred, ("Branch",))


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


def test_a_tree_predicate_is_read_once_to_extract_and_once_to_count(monkeypatch):
    tree = tr.random_standard_tree(Random(0), 10)
    pred = tr.tree_to_predicate(tree)
    occurrences = Counter(id(s) for s in subterms(pred))  # `()` is one shared node
    reads = count_reads(monkeypatch, occurrences)
    assert tr.extract_tree(pred) == tree
    assert reads
    assert all(reads[i] <= occurrences[i] for i in reads)
    reads.clear()
    assert cl.run_on_predicate("effcount", pred, 10).result == tree.count_true(10)
    assert reads
    assert all(reads[i] <= occurrences[i] for i in reads)  # the lint walk only

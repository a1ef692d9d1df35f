import re
from collections import Counter
from itertools import count, product
from pathlib import Path
from random import Random

import pytest

from fxlang import countlib as cl
from fxlang import machine as mc
from fxlang import trees as tr
from fxlang.parser import parse_term
from fxlang.pprint import to_source
from fxlang.syntax import (
    App,
    Arrow,
    BOOL,
    Case,
    Lam,
    Let,
    NAT,
    Num,
    Return,
    UNIT,
    Var,
    bool_,
    complete_handlers,
    free_vars,
    subterms,
)
from termeq import same

GOLDEN = Path(__file__).resolve().parent / "golden"


def extract(name, n=None, **kw):
    pred, bits = cl.build_predicate(name, n)
    return tr.extract_tree(pred, **kw), bits


def at(path):
    """The address that prints as ``path``: "ε", "f", "t", "tf", ...  The
    root is 1, and the digits after its leading 1 are the responses,
    0 for false and 1 for true."""

    return int("1" + ("" if path == "ε" else path.replace("f", "0").replace("t", "1")), 2)


def test_identity_predicate_tree():
    tree, _ = extract("I0", 1)
    labels = tree.labels()
    assert labels[at("ε")] == tr.Query(0)
    assert labels[at("t")] == tr.Answer(True)
    assert labels[at("f")] == tr.Answer(False)
    assert tree.classify(1) is tr.Classification.N_STANDARD


def test_constant_true_tree():
    tree, _ = extract("T0", 0)
    assert tree.labels() == {at("ε"): tr.Answer(True)}
    assert tree.classify(0) is tr.Classification.N_STANDARD


def test_repeated_query_tree():
    tree, _ = extract("I2", 1)
    # ?0 repeats along the true path; one false leaf is unreachable
    assert tree.labels()[at("ε")] == tr.Query(0)
    assert tree.labels()[at("t")] == tr.Query(0)
    kind, reason = tree.classify_detail(1)
    assert kind is tr.Classification.N_PREDICATE
    assert "repeated query 0" in reason


def test_odd_trees_are_standard():
    for n in range(1, 6):
        tree, _ = extract("odd", n)
        assert tree.classify(n) is tr.Classification.N_STANDARD
        assert len(tree.nodes) == 2 ** (n + 1) - 1
        assert len(tree.leaves()) == 2 ** n
        assert tree.count_true(n) == 2 ** (n - 1)


def test_sequencing_predicate_is_literally_standard():
    # queries each index exactly once per path, so the literal reading of
    # the standardness conditions accepts it
    tree, _ = extract("T1", 2)
    assert tree.classify(2) is tr.Classification.N_STANDARD


def test_empty_tree_is_neither():
    assert tr.DecisionTree().classify(1) is tr.Classification.NEITHER


# The two-pass classification that the one walk replaced: a pass over
# every node in dict order, then a walk from the root with a set of the
# queries on each path and a count of the domain.  It is the reference for
# the walk's agreement tests.  It finds children and depths by the
# numbering's arithmetic alone: 2a and 2a + 1 under a, at one more than
# the depth of a.


def depth(addr):
    return len(bin(addr)) - 3  # the digits after "0b1"


def old_classify_detail(tree, n):
    C = tr.Classification
    if not tree.nodes or tree.partial:
        return C.NEITHER, "tree is empty or partial"
    for addr, node in tree.nodes.items():
        if node.label.__class__ is tr.Query:
            if node.label.index >= n:
                return C.NEITHER, f"query {node.label.index} out of range at {tr.addr_str(addr)}"
            for b in (1, 0):
                if 2 * addr + b not in tree.nodes:
                    return C.NEITHER, f"missing child under {tr.addr_str(addr)}"
        else:
            for b in (1, 0):
                if 2 * addr + b in tree.nodes:
                    return C.NEITHER, f"answer at {tr.addr_str(addr)} is not a leaf"
    reason = old_standard_defect(tree, n)
    if reason is None:
        return C.N_STANDARD, None
    return C.N_PREDICATE, reason


def old_standard_defect(tree, n):
    stack = [(1, frozenset())]
    while stack:
        addr, seen = stack.pop()
        node = tree.nodes.get(addr)
        if node is None:
            return f"address {tr.addr_str(addr)} missing"
        if node.label.__class__ is tr.Query:
            k = node.label.index
            if k in seen:
                return f"repeated query {k}"
            if depth(addr) >= n:
                return f"query below depth {n}"
            s2 = seen | {k}
            stack.append((2 * addr + 1, s2))
            stack.append((2 * addr, s2))
        elif depth(addr) != n:
            return f"answer at depth {depth(addr)}, not {n}"
    if len(tree.nodes) != 2 ** (n + 1) - 1:
        return f"domain has {len(tree.nodes)} nodes, not {2 ** (n + 1) - 1}"
    return None


def catalog_trees():
    """Every catalog predicate's tree at n up to 6 (queens up to 2), with
    no depth bound, a bound of 1 and a bound of 2 * bits + 2."""

    for name, desc in cl.catalog().items():
        if desc.kind != "predicate":
            continue
        for n in range(desc.min_n, (2 if name.startswith("queens") else 6) + 1):
            pred, bits = cl.build_predicate(name, n)
            for bound in (None, 1, 2 * bits + 2):
                yield f"{name}@{n}/{bound}", tr.extract_tree(pred, depth_bound=bound), bits


def test_classify_gives_the_reference_kind_and_reason_on_every_extracted_tree():
    # extract_tree inserts nodes false branch first, the walk's own order,
    # so even the reason a tree is neither is the reference's
    seen = Counter()
    for key, tree, bits in catalog_trees():
        for m in range(bits + 2):
            got = tree.classify_detail(m)
            assert got == old_classify_detail(tree, m), (key, m)
            seen[got[0]] += 1
    assert all(seen[kind] for kind in tr.Classification)


def test_classify_gives_the_reference_kind_on_random_trees():
    # random trees are inserted true branch first, so only the reason a
    # tree is neither may name another node than the reference's
    rng = Random(21)
    seen = Counter()
    for i in range(300):
        n = rng.randrange(1, 7)
        tree = (tr.random_standard_tree if i % 2 else tr.random_predicate_tree)(rng, n)
        leaves = tree.leaves()
        flipped = tree.flip_leaf(leaves[rng.randrange(len(leaves))])
        for t in (tree, flipped):
            for m in (n - 1, n, n + 1):
                kind, reason = t.classify_detail(m)
                old_kind, old_reason = old_classify_detail(t, m)
                assert kind is old_kind, (i, m)
                if kind is not tr.Classification.NEITHER:
                    assert reason == old_reason, (i, m)
                seen[kind] += 1
    assert all(seen[kind] for kind in tr.Classification)


def test_a_map_without_a_root_is_neither():
    tree = tr.DecisionTree({at("t"): tr.TreeNode(tr.Answer(True))})
    assert tree.classify_detail(1) == (tr.Classification.NEITHER, "address ε missing")


def test_a_standard_tree_with_an_orphan_node_is_neither():
    tree, _ = extract("I0", 1)
    assert tree.classify(1) is tr.Classification.N_STANDARD
    tree.nodes[at("tft")] = tr.TreeNode(tr.Answer(False))  # its parent is absent
    assert tree.classify_detail(1) == (
        tr.Classification.NEITHER, "1 of 4 nodes unreachable from ε"
    )


def test_eval_point_examples():
    odd2, _ = extract("odd", 2)
    assert odd2.eval_point((True, False)) is True
    assert odd2.eval_point((True, True)) is False
    t0, _ = extract("T0", 0)
    assert t0.eval_point(()) is True


def test_eval_point_agrees_with_machine_exhaustively():
    rng = Random(11)
    for trial in range(50):
        n = rng.randrange(1, 7)
        tree = tr.random_standard_tree(rng, n)
        pred = tr.tree_to_predicate(tree)
        extracted = tr.extract_tree(pred)
        for pt in product((False, True), repeat=n):
            direct = mc.run_machine(App(pred, cl.as_value(cl.point_term(list(pt)))), {})
            assert extracted.eval_point(pt) == mc.mval_to_bool(direct.value)


def test_count_true_examples():
    odd3, _ = extract("odd", 3)
    assert odd3.count_true(3) == 4
    all_true = tr.DecisionTree()
    all_true.nodes[at("ε")] = tr.TreeNode(tr.Query(0))
    for b in "tf":
        all_true.nodes[at(b)] = tr.TreeNode(tr.Query(1))
        for c in "tf":
            all_true.nodes[at(b + c)] = tr.TreeNode(tr.Answer(True))
    assert all_true.count_true(2) == 4


def test_count_true_matches_brute_force():
    rng = Random(12)
    tree = tr.random_standard_tree(rng, 8)
    assert tree.count_true(8) == tree.brute_force_count(8)


def test_count_true_rejects_nonstandard():
    tree, _ = extract("I2", 1)
    with pytest.raises(ValueError):
        tree.count_true(1)


def test_flip_leaf():
    tree, _ = extract("I0", 1)
    flipped = tree.flip_leaf(at("t"))
    assert flipped.labels()[at("t")] == tr.Answer(False)
    assert flipped.count_true(1) == 0
    assert flipped.flip_leaf(at("t")).labels() == tree.labels()
    with pytest.raises(ValueError):
        tree.flip_leaf(at("ε"))  # a query node


def test_flip_leaf_changes_count_by_one():
    rng = Random(13)
    for _ in range(30):
        n = rng.randrange(1, 7)
        tree = tr.random_standard_tree(rng, n)
        leaves = tree.leaves()
        leaf = leaves[rng.randrange(len(leaves))]
        flipped = tree.flip_leaf(leaf)
        assert abs(tree.brute_force_count(n) - flipped.brute_force_count(n)) == 1


def test_tree_to_predicate_roundtrip_standard():
    rng = Random(14)
    for _ in range(100):
        n = rng.randrange(1, 6)
        tree = tr.random_standard_tree(rng, n)
        back = tr.extract_tree(tr.tree_to_predicate(tree))
        assert back.labels() == tree.labels()


def test_tree_to_predicate_roundtrip_general():
    rng = Random(15)
    for _ in range(50):
        tree = tr.random_predicate_tree(rng, 3)
        back = tr.extract_tree(tr.tree_to_predicate(tree))
        assert back.labels() == tree.labels()


@pytest.mark.parametrize("make, golden", [
    (tr.random_standard_tree, "standard_n3_predicate.txt"),
    (tr.random_predicate_tree, "general_n3_predicate.txt"),
])
def test_compiled_predicate_golden(make, golden):
    # pins the binder names, and so every printed compiled tree
    pred = tr.tree_to_predicate(make(Random(0), 3))
    assert to_source(pred) + "\n" == (GOLDEN / golden).read_text()


# The compiler before its leaves and query applications were shared: a
# fresh node for every occurrence.  It is the reference for the shared
# compiler's output, which must print, compare and run the same.


def old_tree_to_predicate(tree):
    bs = (f"b'{k}" if k else "b" for k in count())
    us = (f"_'{k}" if k else "_" for k in count())

    def emit(addr):
        node = tree.nodes[addr]
        if node.label.__class__ is tr.Answer:
            return Return(bool_(node.label.result))
        b = next(bs)
        return Let(
            b,
            App(Var("q"), Num(node.label.index)),
            Case(Var(b), next(us), emit(2 * addr + 1), next(us), emit(2 * addr)),
        )

    return Lam("q", emit(1), Arrow(NAT, BOOL))


def random_trees(seed, number, nmax):
    """``number`` random trees, standard and general in turn, at n in
    1..nmax."""

    rng = Random(seed)
    for i in range(number):
        n = rng.randrange(1, nmax + 1)
        make = tr.random_standard_tree if i % 2 else tr.random_predicate_tree
        yield n, make(rng, n)


def test_shared_compiler_agrees_with_the_fresh_node_reference():
    for n, tree in random_trees(27, 200, 8):
        pred, ref = tr.tree_to_predicate(tree), old_tree_to_predicate(tree)
        assert same(pred, ref), n
        assert to_source(pred) == to_source(ref), n
        assert tr.extract_tree(pred) == tree, n


def test_a_compiled_standard_tree_holds_three_fresh_nodes_per_query():
    # a query node costs its Let, Case and bound Var; the leaves, `q` and
    # one `q k` per index are shared, so the term is a graph whose
    # unfolding is the reference's tree
    for n in range(1, 12):
        tree = tr.random_standard_tree(Random(n), n)
        pred = tr.tree_to_predicate(tree)
        distinct = {id(s) for s in subterms(pred)}
        assert len(distinct) <= 3 * (2 ** n - 1) + 2 * n + 8, n
        occurrences = sum(1 for _ in subterms(pred))
        assert occurrences == sum(1 for _ in subterms(old_tree_to_predicate(tree))), n


def distinct_labels(tree):
    return len({id(node.label) for node in tree.nodes.values()})


def test_trees_share_their_labels():
    # two answers and one query per index, however many nodes
    for n, tree in random_trees(28, 40, 8):
        assert distinct_labels(tree) <= n + 2, n
        leaves = tree.leaves()
        flipped = tree.flip_leaf(leaves[len(leaves) // 2])
        assert distinct_labels(flipped) <= n + 2, n
        assert distinct_labels(tr.extract_tree(tr.tree_to_predicate(tree))) <= n + 2, n
    for n in range(1, 7):
        odd, _ = extract("odd", n)
        assert len(odd.nodes) == 2 ** (n + 1) - 1
        assert distinct_labels(odd) <= n + 2, n


# Compiled predicates share subterms, so the term walkers meet one object
# at several positions.


def test_completion_completes_a_shared_handler_at_each_position():
    sig = _FLIP_OOPS
    partial = parse_term("handle do Flip () with { val x -> return x; Flip () r -> r true }", sig)
    closed = Return(bool_(True))
    term = Let("a", partial, Let("c", closed, Let("d", partial, closed)))
    done = complete_handlers(term, sig)
    want = complete_handlers(partial, sig)
    assert want is not partial
    for handle in (done.bound, done.body.body.bound):
        assert handle is not partial
        assert same(handle, want)
        assert set(handle.handler.clauses) == {"Flip", "Oops"}
    assert done.body.bound is closed and done.body.body.body is closed
    assert same(partial, parse_term(
        "handle do Flip () with { val x -> return x; Flip () r -> r true }", sig
    ))  # the shared input is not written


def test_free_vars_of_a_shared_open_call_under_two_parents():
    call = App(Var("q"), Num(0))
    inner = Lam("q", call, Arrow(NAT, BOOL))
    assert free_vars(inner) == frozenset()
    outer = Let("f", Return(inner), call)
    assert free_vars(outer) == frozenset({"q"})
    assert free_vars(call) == frozenset({"q"})
    assert free_vars(inner) == frozenset()
    assert free_vars(tr.tree_to_predicate(tr.random_standard_tree(Random(3), 5))) == frozenset()


def test_effcount_pays_each_edge_of_a_shared_predicate_once():
    for n in range(1, 8):
        tree = tr.random_standard_tree(Random(100 + n), n)
        pred = tr.tree_to_predicate(tree)
        steps = tr.extract_tree(pred).total_steps()
        rep = cl.run_on_predicate("effcount", pred, n)
        ref = cl.run_on_predicate("effcount", old_tree_to_predicate(tree), n)
        assert rep.ticks == steps + 11 * 2 ** n - 6, n
        assert (rep.result, rep.ticks, rep.envops) == (ref.result, ref.ticks, ref.envops), n
        assert rep.result == tree.count_true(n), n


def test_compiled_predicates_are_pure():
    from fxlang.syntax import language_level

    rng = Random(16)
    tree = tr.random_standard_tree(rng, 4)
    assert language_level(tr.tree_to_predicate(tree)) == "base"


def test_divergent_branch_is_partial():
    pred = parse_term(
        "fun (q : Nat -> Bool) -> let a <- q 0 in "
        "if a then (rec (f : Unit -> Bool) u -> f u) () else return false"
    )
    tree = tr.extract_tree(pred, fuel=2_000)
    assert tree.partial.get(at("t")) == "fuel"
    assert tree.labels()[at("f")] == tr.Answer(False)
    assert tree.classify(1) is tr.Classification.NEITHER


def test_depth_bound_flags_partial():
    pred = parse_term(
        "fun (q : Nat -> Bool) -> (rec (go : Nat -> Bool) i -> let _ <- q 0 in go 0) 0"
    )
    tree = tr.extract_tree(pred, fuel=100_000, depth_bound=3)
    assert tree.is_partial()
    assert any(v == "depth" for v in tree.partial.values())


def test_unhandled_operation_branch_absent():
    sig = {"Oops": (UNIT, BOOL)}
    pred = parse_term("fun (q : Nat -> Bool) -> do Oops ()", sig)
    tree = tr.extract_tree(pred)
    assert tree.partial.get(at("ε")) == "unhandled"
    assert not tree.nodes


_FLIP_OOPS = {"Flip": (UNIT, BOOL), "Oops": (UNIT, BOOL)}


@pytest.mark.parametrize("body, want", [
    (  # a query under a handler whose resumption runs twice
        "handle (let b <- q 0 in let c <- do Flip () in if b then return c else q 1) "
        "with { val x -> return x; Flip () r -> "
        "let t <- r true in let f <- r false in return f }",
        "ε ?0 3 | f ?1 7 | t !false 15 | ff ?1 6 | ft ?1 6 "
        "| fff !false 2 | fft !true 2 | ftf !false 2 | ftt !true 2",
    ),
    (  # Oops is forwarded to the bottom of the continuation
        "handle (let b <- q 0 in if b then do Oops () else do Flip ()) "
        "with { val x -> return x; Flip () r -> r true }",
        "ε ?0 3 | f !true 5 | t unexplored:unhandled",
    ),
    (  # a resumption resumed outside its handler
        "let k <- handle (let b <- do Flip () in return (fun (u : Unit) -> q 0)) "
        "with { val x -> return x; Flip () r -> "
        "return (fun (u : Unit) -> let g <- r true in g ()) } in k ()",
        "ε ?0 13 | f !false 0 | t !true 0",
    ),
])
def test_handler_level_probes_pin_their_timed_trees(body, want):
    pred = parse_term("fun (q : Nat -> Bool) -> " + body, _FLIP_OOPS)
    tree = tr.extract_tree(complete_handlers(pred, _FLIP_OOPS))
    assert " | ".join(tree.to_text(timed=True).splitlines()) == want


def test_stateful_predicates_rejected():
    pred = parse_term("fun (q : Nat -> Bool) -> letref c = 0 in q 0")
    with pytest.raises(ValueError, match="stateful"):
        tr.extract_tree(pred)


def test_a_stateful_run_is_rejected_at_its_address():
    # `q 0` is answered before any cell is allocated: the false branch
    # is a leaf, the true branch allocates
    pred = parse_term(
        "fun (q : Nat -> Bool) -> let b <- q 0 in "
        "if b then (letref c = 0 in return true) else return false"
    )
    with pytest.raises(ValueError, match=r"^no decision tree for stateful predicates, at t$"):
        tr.extract_tree(pred)


def test_a_letref_that_no_run_reaches_does_not_stop_extraction():
    pred = parse_term(
        "fun (q : Nat -> Bool) -> if 1 = 2 then (letref c = 0 in return true) else q 0"
    )
    twin = parse_term("fun (q : Nat -> Bool) -> if 1 = 2 then return true else q 0")
    # the same labels and the same ticks on every edge
    assert tr.extract_tree(pred).to_text(timed=True) == tr.extract_tree(twin).to_text(timed=True)


def test_a_predicate_that_is_a_computation_is_rejected():
    # well typed, but a computation that returns the function, not a value
    pred = parse_term("let k = 0 in fun (q : Nat -> Bool) -> q k")
    for run in (lambda: tr.extract_tree(pred), lambda: cl.run_on_predicate("effcount", pred, 1)):
        with pytest.raises(ValueError, match="^a predicate must be a function value"):
            run()


def test_a_predicate_that_is_not_a_function_is_rejected():
    # a constant-time class test, before any run
    pred = parse_term("3")
    for run in (lambda: tr.extract_tree(pred), lambda: cl.run_on_predicate("effcount", pred, 1)):
        with pytest.raises(ValueError, match="^a predicate must be a function value, not a Num"):
            run()


@pytest.mark.parametrize("branch, what", [
    ("return 3", "answers 3, not a boolean"),
    ("q ()", "queries (), not a numeral"),
])
def test_an_ill_typed_branch_names_its_address(branch, what):
    pred = parse_term(f"fun (q : Nat -> Bool) -> let b <- q 0 in if b then {branch} else return true")
    with pytest.raises(ValueError, match=rf"^the predicate {re.escape(what)}, at t$"):
        tr.extract_tree(pred)


@pytest.mark.parametrize("impl", ["effcount", "effsearch"])
def test_a_non_boolean_answer_names_the_counter(impl):
    # the counter's case on the answer is stuck; the error names the counter
    pred = parse_term("fun (q : Nat -> Bool) -> return 3")
    with pytest.raises(ValueError, match=rf"^{impl} is stuck on the predicate: case on a non-sum$"):
        cl.run_on_predicate(impl, pred, 1)


def test_projections_align():
    tree, _ = extract("odd", 3)
    labs = tree.labels()
    steps = tree.steps()
    assert set(labs) == set(steps) == set(tree.nodes)
    assert all(s >= 0 for s in steps.values())


def test_text_format():
    tree, _ = extract("I0", 1)
    text = tree.to_text(timed=True)
    lines = text.splitlines()
    assert lines[0].startswith("ε ?0 ")
    assert any(line.startswith("t !true") for line in lines)
    untimed = tree.to_text(timed=False)
    assert untimed.splitlines()[0] == "ε ?0"


def test_dot_format():
    tree, _ = extract("I0", 1)
    dot = tree.to_dot()
    assert "shape=circle" in dot and "shape=box" in dot
    assert dot.startswith("digraph")


# The numbering against the paths it spells.  ``path_of`` reads an
# address's responses off its binary digits, as the tuple of booleans
# that addressed the node before; trees printed and walked in the
# (depth, path) order of those tuples, False before True.


def path_of(addr):
    responses = []
    while addr > 1:
        responses.append(addr & 1 == 1)
        addr >>= 1
    return tuple(reversed(responses))


def old_addr_str(path):
    return "".join("t" if b else "f" for b in path) if path else "ε"


def numbered_trees():
    """Random standard and general trees at n up to 6, and the extracted
    trees of odd and queens."""

    rng = Random(31)
    for i in range(60):
        n = rng.randrange(1, 7)
        yield f"random {i} n={n}", (tr.random_standard_tree if i % 2 else tr.random_predicate_tree)(rng, n)
    for name, n in [("odd", n) for n in range(1, 7)] + [("queens", 1), ("queens", 2)]:
        yield f"{name}@{n}", extract(name, n)[0]


def test_addresses_are_in_the_old_depth_then_path_order():
    for key, tree in numbered_trees():
        old_order = sorted(tree.nodes, key=lambda a: (len(path_of(a)), path_of(a)))
        assert tree.addresses() == old_order, key
        assert tree.leaves() == [a for a in old_order if tree.nodes[a].label.__class__ is tr.Answer], key
        assert [tr.addr_str(a) for a in tree.addresses()] == [old_addr_str(path_of(a)) for a in old_order], key


def test_addr_str_is_one_to_one_onto_path_strings():
    printed = set()
    for d in range(9):
        at_depth = range(1 << d, 2 << d)  # every address at depth d, in order
        words = ["".join(w) or "ε" for w in product("ft", repeat=d)]
        assert [tr.addr_str(a) for a in at_depth] == words, d
        assert [at(w) for w in words] == list(at_depth), d
        assert all(tr.addr_str(a) == old_addr_str(path_of(a)) for a in at_depth), d
        printed.update(words)
    assert len(printed) == 2 ** 9 - 1


@pytest.mark.parametrize("pred, sig, kw, want", [
    (  # the depth bound: both children of each query at the bound
        None, None, dict(depth_bound=1),
        "ε ?0|f ?1|t ?1|ff unexplored:depth|ft unexplored:depth|tf unexplored:depth|tt unexplored:depth",
    ),
    (  # the true branch runs out of fuel
        "fun (q : Nat -> Bool) -> let a <- q 0 in "
        "if a then (rec (f : Unit -> Bool) u -> f u) () else return false",
        None, dict(fuel=2_000),
        "ε ?0|f !false|t unexplored:fuel",
    ),
    (  # an unhandled operation, on two branches at two depths
        "fun (q : Nat -> Bool) -> let a <- q 0 in if a then do Oops () "
        "else (let b <- q 1 in if b then do Oops () else return true)",
        {"Oops": (UNIT, BOOL)}, {},
        "ε ?0|f ?1|ff !true|t unexplored:unhandled|ft unexplored:unhandled",
    ),
])
def test_partial_addresses_print_as_paths(pred, sig, kw, want):
    term = cl.build_predicate("odd", 3)[0] if pred is None else parse_term(pred, sig)
    tree = tr.extract_tree(term, **kw)
    assert "|".join(tree.to_text(timed=False).splitlines()) == want
    assert {tr.addr_str(a) for a in tree.partial} == {
        line.split()[0] for line in want.split("|") if "unexplored" in line
    }

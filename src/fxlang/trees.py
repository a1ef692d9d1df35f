"""Decision-tree semantics for black-box predicates.

A predicate of type (Nat -> Bool) -> Bool is probed by applying it to a
free variable bound to a sentinel machine value.  The machine stops when
it tries to apply the sentinel: that application is a query node, its
argument the queried index.  Each query is explored twice by restarting
the stopped configuration with `return true` / `return false`; the
persistent machine makes the restart free.  A run that completes yields
an answer leaf.

Trees are finite maps from addresses (tuples of booleans: the path of
responses from the root) to nodes.  Every node carries the label and
the number of machine transitions on the edge targeting it, so one
extraction produces the untimed and timed views at once.

Labels and terms are immutable, so the trees and predicates built here
share them: a tree's nodes hold two `Answer` labels and one `Query` per
index, and a compiled predicate reuses its leaves and its query
applications.  A tree or a predicate is long-lived, and each object it
holds is one more for Python's cyclic collector to visit; sharing keeps
that count near the number of distinct labels and subterms, not the
number of nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, count, product
from random import Random
from typing import Optional

from fxlang import machine as mc
from fxlang.errors import StuckError
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
    Term,
    Var,
    as_function,
    bool_,
    language_level,
)

Addr = tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class Query:
    index: int

    def __str__(self) -> str:
        return f"?{self.index}"


@dataclass(frozen=True, slots=True)
class Answer:
    result: bool

    def __str__(self) -> str:
        return f"!{'true' if self.result else 'false'}"


Label = Query | Answer

# The two answer labels, shared by every tree; queries are shared within
# one tree (see `_query`).
_ANSWERS = {True: Answer(True), False: Answer(False)}


def _query(queries: dict[int, Query], k: int) -> Query:
    """The one `Query(k)` held in ``queries``, made on first use."""

    q = queries.get(k)
    if q is None:
        q = queries[k] = Query(k)
    return q


@dataclass(slots=True)
class TreeNode:
    label: Label
    steps: int = 0


class Classification(enum.Enum):
    N_STANDARD = "n-standard"
    N_PREDICATE = "n-predicate"
    NEITHER = "neither"


def addr_str(addr: Addr) -> str:
    return "".join("t" if b else "f" for b in addr) if addr else "ε"


@dataclass(slots=True)
class DecisionTree:
    """Finite map from addresses to nodes, prefix-closed, answers at the
    leaves.  ``partial`` records addresses whose exploration failed and
    why ('fuel', 'depth', 'unhandled')."""

    nodes: dict[Addr, TreeNode] = field(default_factory=dict)
    partial: dict[Addr, str] = field(default_factory=dict)

    # -- projections

    def labels(self) -> dict[Addr, Label]:
        return {a: n.label for a, n in self.nodes.items()}

    def steps(self) -> dict[Addr, int]:
        return {a: n.steps for a, n in self.nodes.items()}

    def total_steps(self) -> int:
        return sum(n.steps for n in self.nodes.values())

    def is_partial(self) -> bool:
        return bool(self.partial)

    def addresses(self) -> list[Addr]:
        return sorted(self.nodes, key=lambda a: (len(a), a))

    # -- classification (structure of the label map alone)

    def classify(self, n: int) -> Classification:
        kind, _ = self.classify_detail(n)
        return kind

    def classify_detail(self, n: int) -> tuple[Classification, Optional[str]]:
        """The class of the tree at n, and why it is not n-standard.

        One walk from the root, false branch first: the order in which
        `extract_tree` inserts nodes.  It returns neither at the first
        node that breaks a rooted, prefix-closed n-predicate tree, keeps
        the first n-standard defect, and counts the nodes it reached to
        find orphans.  A query at depth n or more needs no check: its
        path holds n + 1 queries below n, so one of them repeats.
        """

        nodes = self.nodes
        if not nodes or self.partial:
            return Classification.NEITHER, "tree is empty or partial"
        defect = None
        reached = 0
        path: list[int] = []  # the queries above the node popped last
        stack: list[Addr] = [()]
        while stack:
            addr = stack.pop()
            node = nodes.get(addr)
            if node is None:  # only the root is pushed unchecked
                return Classification.NEITHER, "address ε missing"
            reached += 1
            depth = len(addr)
            del path[depth:]
            label = node.label
            if label.__class__ is Query:
                k = label.index
                if k >= n:
                    return Classification.NEITHER, f"query {k} out of range at {addr_str(addr)}"
                t, f = addr + (True,), addr + (False,)
                if t not in nodes or f not in nodes:
                    return Classification.NEITHER, f"missing child under {addr_str(addr)}"
                if defect is None and k in path:
                    defect = f"repeated query {k}"
                path.append(k)
                stack.append(t)
                stack.append(f)
            elif addr + (True,) in nodes or addr + (False,) in nodes:
                return Classification.NEITHER, f"answer at {addr_str(addr)} is not a leaf"
            elif defect is None and depth != n:
                defect = f"answer at depth {depth}, not {n}"
        if reached != len(nodes):
            unreached = len(nodes) - reached
            return Classification.NEITHER, f"{unreached} of {len(nodes)} nodes unreachable from ε"
        if defect is None:
            return Classification.N_STANDARD, None
        return Classification.N_PREDICATE, defect

    # -- semantics

    def eval_point(self, point) -> bool:
        """The answer this tree gives on a semantic point (indexable by
        query index)."""

        addr: Addr = ()
        while True:
            node = self.nodes.get(addr)
            if node is None:
                raise KeyError(f"path fell off the tree at {addr_str(addr)}")
            if node.label.__class__ is Answer:
                return node.label.result
            addr = addr + (bool(point[node.label.index]),)

    def count_true(self, n: int) -> int:
        """Number of true leaves; equals the point count on n-standard
        trees."""

        kind = self.classify(n)
        if kind is not Classification.N_STANDARD:
            raise ValueError(f"count_true needs an n-standard tree, got {kind.value}")
        return sum(
            1
            for node in self.nodes.values()
            if node.label.__class__ is Answer and node.label.result
        )

    def brute_force_count(self, n: int) -> int:
        """Count satisfying points by walking the tree on all 2^n points:
        the independent oracle for any n-predicate tree."""

        return sum(1 for pt in product((False, True), repeat=n) if self.eval_point(pt))

    def flip_leaf(self, addr: Addr) -> "DecisionTree":
        node = self.nodes.get(addr)
        if node is None or node.label.__class__ is not Answer:
            raise ValueError(f"{addr_str(addr)} is not an answer leaf")
        nodes = dict(self.nodes)
        nodes[addr] = TreeNode(_ANSWERS[not node.label.result], node.steps)
        return DecisionTree(nodes, dict(self.partial))

    def leaves(self) -> list[Addr]:
        return [a for a in self.addresses() if self.nodes[a].label.__class__ is Answer]

    # -- rendering

    def to_text(self, timed: bool = True) -> str:
        lines = []
        for addr in self.addresses():
            node = self.nodes[addr]
            if timed:
                lines.append(f"{addr_str(addr)} {node.label} {node.steps}")
            else:
                lines.append(f"{addr_str(addr)} {node.label}")
        for addr in sorted(self.partial, key=lambda a: (len(a), a)):
            lines.append(f"{addr_str(addr)} unexplored:{self.partial[addr]}")
        return "\n".join(lines)

    def to_dot(self, timed: bool = False) -> str:
        out = ["digraph tree {"]
        for addr in self.addresses():
            node = self.nodes[addr]
            name = addr_str(addr)
            shape = "circle" if node.label.__class__ is Query else "box"
            out.append(f'  "{name}" [label="{node.label}", shape={shape}];')
            if addr:
                parent = addr_str(addr[:-1])
                lbl = "t" if addr[-1] else "f"
                if timed:
                    lbl += f" ({node.steps})"
                out.append(f'  "{parent}" -> "{name}" [label="{lbl}"];')
        out.append("}")
        return "\n".join(out)

    def __eq__(self, other):
        return isinstance(other, DecisionTree) and self.labels() == other.labels()


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


# The two responses to a query, and the two leaves of a compiled
# predicate.  Terms are never written, so every fork and every compiled
# predicate shares them.
_RETURN_TRUE = Return(bool_(True))
_RETURN_FALSE = Return(bool_(False))


def extract_tree(
    pred: Term, fuel: int = 1_000_000, depth_bound: Optional[int] = None
) -> DecisionTree:
    """Run the probe on a predicate and materialise its decision tree.

    ``fuel`` bounds the transitions of each edge segment; a branch that
    exhausts it is recorded as unexplored (the tree is partial there),
    matching the reading of divergence as undefinedness.  ``depth_bound``
    caps the address length explored.

    A predicate's handlers must already be complete (see
    `syntax.complete_handlers`): an operation no handler catches makes its
    branch unexplored ('unhandled').  Stateful predicates are rejected:
    with reference cells there is no canonical tree to assign.  So is a
    predicate that is not a ``fun`` or ``rec`` value, and one that queries
    a non-numeral or answers a non-boolean, at the address where it does.
    """

    pred = as_function(pred)
    if "state" in language_level(pred):
        raise ValueError("no decision tree for stateful predicates")
    probe = mc.VSentinel()
    st0 = mc.MachineState(App(pred, Var(probe.name)), {probe.name: probe}, mc.PURE_CONT)
    tree = DecisionTree()
    queries: dict[int, Query] = {}
    stack: list[tuple[Addr, mc.MachineState]] = [((), st0)]
    while stack:
        addr, st = stack.pop()
        kind = mc.drive(st, fuel)
        if kind == "query":
            k = st.out
            if k.__class__ is not int:
                raise ValueError(
                    f"the predicate queries {k!r}, not a numeral, at {addr_str(addr)}"
                )
            tree.nodes[addr] = TreeNode(_query(queries, k), st.ticks)
            if depth_bound is not None and len(addr) >= depth_bound:
                tree.partial[addr + (True,)] = "depth"
                tree.partial[addr + (False,)] = "depth"
                continue
            stack.append((addr + (True,), st.fork(_RETURN_TRUE)))
            stack.append((addr + (False,), st.fork(_RETURN_FALSE)))
        elif kind == "value":
            try:
                answer = mc.mval_to_bool(st.out)
            except StuckError:
                raise ValueError(
                    f"the predicate answers {st.out!r}, not a boolean, at {addr_str(addr)}"
                ) from None
            tree.nodes[addr] = TreeNode(_ANSWERS[answer], st.ticks)
        elif kind == "op":
            tree.partial[addr] = "unhandled"
        else:  # fuel
            tree.partial[addr] = "fuel"
    return tree


# ---------------------------------------------------------------------------
# Compilation back to a predicate
# ---------------------------------------------------------------------------


def tree_to_predicate(tree: DecisionTree) -> Term:
    """A pure predicate term whose extracted untimed tree is exactly the
    input: the tree structure mirrored by nested conditionals.

    The term is a graph, not a tree: every leaf is `_RETURN_TRUE` or
    `_RETURN_FALSE`, and every query of index k applies one shared
    ``q k`` node, so a query costs three fresh nodes and a leaf none.
    It prints, runs and compares as the tree it unfolds to.
    """

    if tree.partial:
        raise ValueError("cannot compile a partial tree")
    # The k-th binder of each kind is named as a name supply would:
    # b, b'1, b'2, ... and _, _'1, _'2, ...
    bs = chain(("b",), (f"b'{k}" for k in count(1)))
    us = chain(("_",), (f"_'{k}" for k in count(1)))
    q = Var("q")
    calls: dict[int, App] = {}  # index k -> the shared ``q k``

    def emit(addr: Addr) -> Term:
        node = tree.nodes.get(addr)
        if node is None:
            raise ValueError(f"missing node at {addr_str(addr)}")
        label = node.label
        if label.__class__ is Answer:
            return _RETURN_TRUE if label.result else _RETURN_FALSE
        k = label.index
        call = calls.get(k)
        if call is None:
            call = calls[k] = App(q, Num(k))
        b = next(bs)
        return Let(
            b,
            call,
            Case(
                Var(b),
                next(us),
                emit(addr + (True,)),
                next(us),
                emit(addr + (False,)),
            ),
        )

    return Lam("q", emit(()), Arrow(NAT, BOOL))


# ---------------------------------------------------------------------------
# Random trees (test corpora)
# ---------------------------------------------------------------------------


def random_standard_tree(rng: Random, n: int) -> DecisionTree:
    """A uniformly shaped n-standard tree: fresh query order per path,
    random answers."""

    tree = DecisionTree()
    queries: dict[int, Query] = {}

    def go(addr: Addr, remaining: tuple[int, ...]):
        if len(addr) == n:
            tree.nodes[addr] = TreeNode(_ANSWERS[rng.random() < 0.5])
            return
        k = remaining[rng.randrange(len(remaining))]
        rest = tuple(i for i in remaining if i != k)
        tree.nodes[addr] = TreeNode(_query(queries, k))
        go(addr + (True,), rest)
        go(addr + (False,), rest)

    go((), tuple(range(n)))
    return tree


def random_predicate_tree(rng: Random, n: int) -> DecisionTree:
    """A random total n-predicate tree, possibly with repeated and
    missing queries (the general class).  Each node above depth n + 2 is
    an answer leaf with probability 1/4; every node at that depth is
    one."""

    tree = DecisionTree()
    queries: dict[int, Query] = {}

    def go(addr: Addr):
        if len(addr) >= n + 2 or rng.random() < 0.25:
            tree.nodes[addr] = TreeNode(_ANSWERS[rng.random() < 0.5])
            return
        tree.nodes[addr] = TreeNode(_query(queries, rng.randrange(n)))
        go(addr + (True,))
        go(addr + (False,))

    go(())
    return tree

"""Decision-tree semantics for black-box predicates.

A predicate of type (Nat -> Bool) -> Bool is probed by applying it to a
free variable bound to a sentinel machine value.  The machine stops when
it tries to apply the sentinel: that application is a query node, its
argument the queried index.  Each query is explored twice by restarting
the stopped configuration with `return true` / `return false`; the
persistent machine makes the restart free.  A run that completes yields
an answer leaf.

Trees are finite maps from addresses to nodes.  An address is the path
of responses from the root, numbered as the nodes of an implicit binary
heap (Williams, "Algorithm 232: Heapsort", CACM 1964): the root is 1,
and node ``a`` has the false child ``2a`` and the true child ``2a + 1``.
So the depth of ``a`` is ``a.bit_length() - 1``, its parent is
``a >> 1`` and its last response is ``a & 1``, and the binary digits of
``a`` after the leading 1 spell the path (printed ``f``/``t``, root
``ε``).  Sorted order is print order: shallower nodes first, and within
one depth the false branch before the true one.  Every node carries the
label and the number of machine transitions on the edge targeting it,
so one extraction produces the untimed and timed views at once.

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
)

# A path of responses from the root: 1 is the root, 2a and 2a + 1 are
# the false and true children of a.
Addr = int


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


_PATH_CHARS = str.maketrans("01", "ft")


def addr_str(addr: Addr) -> str:
    """The path to ``addr`` as its responses from the root: ``ε``, ``f``,
    ``t``, ``ff``, ..."""

    return bin(addr)[3:].translate(_PATH_CHARS) if addr > 1 else "ε"


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
        return sorted(self.nodes)

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
        stack: list[Addr] = [1]
        while stack:
            addr = stack.pop()
            node = nodes.get(addr)
            if node is None:  # only the root is pushed unchecked
                return Classification.NEITHER, "address ε missing"
            reached += 1
            depth = addr.bit_length() - 1
            del path[depth:]
            f = addr << 1  # the false child; f | 1 is the true one
            label = node.label
            if label.__class__ is Query:
                k = label.index
                if k >= n:
                    return Classification.NEITHER, f"query {k} out of range at {addr_str(addr)}"
                if f | 1 not in nodes or f not in nodes:
                    return Classification.NEITHER, f"missing child under {addr_str(addr)}"
                if defect is None and k in path:
                    defect = f"repeated query {k}"
                path.append(k)
                stack.append(f | 1)
                stack.append(f)
            elif f | 1 in nodes or f in nodes:
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

        nodes = self.nodes
        addr = 1
        while True:
            node = nodes.get(addr)
            if node is None:
                raise KeyError(f"path fell off the tree at {addr_str(addr)}")
            label = node.label
            if label.__class__ is Answer:
                return label.result
            addr = addr << 1 | 1 if point[label.index] else addr << 1

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
        for addr in sorted(self.partial):
            lines.append(f"{addr_str(addr)} unexplored:{self.partial[addr]}")
        return "\n".join(lines)

    def to_dot(self, timed: bool = False) -> str:
        out = ["digraph tree {"]
        for addr in self.addresses():
            node = self.nodes[addr]
            name = addr_str(addr)
            shape = "circle" if node.label.__class__ is Query else "box"
            out.append(f'  "{name}" [label="{node.label}", shape={shape}];')
            if addr > 1:
                parent = addr_str(addr >> 1)
                lbl = "t" if addr & 1 else "f"
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
    caps the depth explored.

    A predicate's handlers must already be complete (see
    `syntax.complete_handlers`): an operation no handler catches makes its
    branch unexplored ('unhandled').  A run that allocates a reference
    cell is rejected, at its address: with state there is no canonical
    tree to assign.  So is a predicate that is not a ``fun`` or ``rec``
    value, and one that queries a non-numeral or answers a non-boolean, at
    the address where it does.  A ``letref`` that no run reaches stops
    nothing.
    """

    pred = as_function(pred)
    probe = mc.VSentinel()
    st0 = mc.MachineState(App(pred, Var(probe.name)), {probe.name: probe}, mc.PURE_CONT)
    tree = DecisionTree()
    queries: dict[int, Query] = {}
    stack: list[tuple[Addr, mc.MachineState]] = [(1, st0)]
    while stack:
        addr, st = stack.pop()
        kind = mc.drive(st, fuel)
        if st.store:  # only M-Alloc adds a cell
            raise ValueError(f"no decision tree for stateful predicates, at {addr_str(addr)}")
        if kind == "query":
            k = st.out
            if k.__class__ is not int:
                raise ValueError(
                    f"the predicate queries {k!r}, not a numeral, at {addr_str(addr)}"
                )
            tree.nodes[addr] = TreeNode(_query(queries, k), st.ticks)
            f = addr << 1
            if depth_bound is not None and addr.bit_length() > depth_bound:  # depth >= bound
                tree.partial[f | 1] = "depth"
                tree.partial[f] = "depth"
                continue
            stack.append((f | 1, st.fork(_RETURN_TRUE)))
            stack.append((f, st.fork(_RETURN_FALSE)))
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
                emit(addr << 1 | 1),
                next(us),
                emit(addr << 1),
            ),
        )

    return Lam("q", emit(1), Arrow(NAT, BOOL))


# ---------------------------------------------------------------------------
# Random trees (test corpora)
# ---------------------------------------------------------------------------


def random_standard_tree(rng: Random, n: int) -> DecisionTree:
    """A uniformly shaped n-standard tree: fresh query order per path,
    random answers."""

    tree = DecisionTree()
    queries: dict[int, Query] = {}
    leaf = 1 << n  # the first address at depth n

    def go(addr: Addr, remaining: tuple[int, ...]):
        if addr >= leaf:
            tree.nodes[addr] = TreeNode(_ANSWERS[rng.random() < 0.5])
            return
        k = remaining[rng.randrange(len(remaining))]
        rest = tuple(i for i in remaining if i != k)
        tree.nodes[addr] = TreeNode(_query(queries, k))
        go(addr << 1 | 1, rest)
        go(addr << 1, rest)

    go(1, tuple(range(n)))
    return tree


def random_predicate_tree(rng: Random, n: int) -> DecisionTree:
    """A random total n-predicate tree, possibly with repeated and
    missing queries (the general class).  Each node above depth n + 2 is
    an answer leaf with probability 1/4; every node at that depth is
    one."""

    tree = DecisionTree()
    queries: dict[int, Query] = {}
    leaf = 1 << (n + 2)  # the first address at depth n + 2

    def go(addr: Addr):
        if addr >= leaf or rng.random() < 0.25:
            tree.nodes[addr] = TreeNode(_ANSWERS[rng.random() < 0.5])
            return
        tree.nodes[addr] = TreeNode(_query(queries, rng.randrange(n)))
        go(addr << 1 | 1)
        go(addr << 1)

    go(1)
    return tree

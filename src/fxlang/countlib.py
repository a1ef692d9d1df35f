"""The object-language program library.

Every program here is a closed, typechecked term of the interpreted
language: the example points and predicates, the counting and searching
algorithms (naive enumeration, the Hilbert-choice lazy counter, the
effect-handler counters and searcher, the memoising Berger-style
counter), and the n-queens predicates.

Programs are written in the surface syntax with host-side splicing for
the parameter n; the handler-based counters mirror their published
shapes clause for clause, since the exact machine-step accounting of the
plain effectful counter is pinned by the acceptance suite.

A descriptor records what each program is (point / predicate / counter /
searcher) and - for predicates - the class of its decision tree;
counters dually record the widest predicate class they count correctly.
The language features a program needs are not recorded: its `level` is
read from the program itself.  It holds the program as source: a string,
or a function from n to a string.  `build` parses each source text once
per process, so each (program, n) at most once, completes its handlers
against its own signature, and hands every caller the same term.
Sharing is safe: no term is written after `parse_program` returns,
`complete_handler` copies a handler's clauses before adding to them,
and the machine tests no term or handler for identity.

Running a counter on a predicate checks and completes the predicate's
own handlers, against the counter's signature, in one walk; a counter
with no operations does not walk the predicate at all.  A predicate
without a handler (every compiled tree) comes back as the same object.
The machine then runs the composed term with no signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from fxlang import machine as mc
from fxlang.errors import StuckError
from fxlang.parser import parse_program, parse_term
from fxlang.syntax import (
    App,
    Handle,
    Signature,
    Term,
    as_function,
    as_value,
    complete_handler,
    complete_handlers,
    language_level,
    rewrite,
)
from fxlang.typecheck import typecheck_program

# Predicate classes, narrowest to widest.
N_STANDARD = "n-standard"
AT_MOST_ONCE = "at-most-once"
GENERAL = "general"

_CLASS_ORDER = {N_STANDARD: 0, AT_MOST_ONCE: 1, GENERAL: 2}


def class_within(pred_class: str, accepted: str) -> bool:
    return _CLASS_ORDER[pred_class] <= _CLASS_ORDER[accepted]


class LintError(Exception):
    pass


def _complete_predicate(pred: Term, sig: Signature) -> Term:
    """The predicate with its handlers completed against a counter's
    signature, in one walk.  A predicate may not handle the counter's
    distinguished operations, since it must forward them outward: the
    `LintError` names the first such operation in signature order.  A
    predicate with no handler comes back as the same object."""

    handled: set[str] = set()

    def complete(node: Handle) -> Handle:
        handled.update(node.handler.clauses)
        return Handle(node.body, complete_handler(node.handler, sig))

    pred = rewrite(pred, Handle, complete)
    for op in sig:
        if op in handled:
            raise LintError(f"predicate handles the distinguished operation {op!r}")
    return pred


@dataclass(slots=True)
class ProgramDescriptor:
    name: str
    kind: str  # 'point' | 'predicate' | 'counter' | 'searcher' | 'selector' | 'program'
    source: str | Callable[[int], str]  # the program, or its template in n
    input_class: Optional[str] = None  # predicates: the class of their tree
    accepts: Optional[str] = None  # counters: widest class counted correctly
    bits: Optional[Callable[[Optional[int]], int]] = None  # predicate arity in bits
    summary: str = ""

    @property
    def takes_n(self) -> bool:
        return callable(self.source)

    @property
    def level(self) -> str:
        """The language features the program uses (see
        `syntax.language_level`), read from the program at n = 0."""

        return language_level(self.build(0)[0])

    def build(self, n: Optional[int] = None) -> tuple[Term, Signature]:
        """The program at size n (fixed programs ignore n) and its
        signature.  Every caller gets the same term: do not write to it."""

        if n is not None and n < 0:
            raise ValueError(f"size parameter n must be at least 0, not {n}")
        if not self.takes_n:
            return _parse(self.source)
        if n is None:
            raise ValueError(f"{self.name} needs a size parameter n")
        return _parse(self.source(n))

    def class_at(self, n: Optional[int]) -> Optional[str]:
        """The predicate's class when embedded at size n.

        A fixed-arity standard predicate (say, one that always queries
        exactly index 0) stops being n-standard when embedded in a wider
        space: indices beyond its natural arity, ``bits(None)``, go
        unqueried, which is the at-most-once class.
        """

        if self.input_class != N_STANDARD or self.takes_n:
            return self.input_class
        return N_STANDARD if self.bits(n) == self.bits(None) else AT_MOST_ONCE

    @property
    def min_n(self) -> int:
        """The least size a predicate embeds at: its arity if fixed."""

        return 0 if self.takes_n else self.bits(None)


@cache
def _parse(src: str) -> tuple[Term, Signature]:
    # Calls `parse_program` through this module's binding, so a wrapper
    # installed on `countlib.parse_program` sees every parse.
    sig, term = parse_program(src)
    return (complete_handlers(term, sig) if sig else term), sig


_REGISTRY: dict[str, ProgramDescriptor] = {}


def _register(desc: ProgramDescriptor) -> ProgramDescriptor:
    if desc.name in _REGISTRY:
        raise ValueError(f"program {desc.name!r} is already registered")
    _REGISTRY[desc.name] = desc
    return desc


def catalog() -> dict[str, ProgramDescriptor]:
    return dict(_REGISTRY)


def get(name: str, *kinds: str) -> ProgramDescriptor:
    """The catalog entry ``name``, which must be of one of ``kinds`` if
    any are given."""

    desc = _REGISTRY.get(name)
    if desc is None:
        raise ValueError(f"unknown program {name!r}; see `fx list` for the catalog")
    if kinds and desc.kind not in kinds:
        raise ValueError(f"{name} is not a {' or '.join(kinds)}")
    return desc


# ---------------------------------------------------------------------------
# Example points and predicates
# ---------------------------------------------------------------------------

_DIVERGE = "(rec (loop : Unit -> Bool) u -> loop u) ()"

_register(ProgramDescriptor(
    "q0", "point",
    "fun (_ : Nat) -> true",
    summary="the all-true point",
))
_register(ProgramDescriptor(
    "q1", "point",
    "fun (i : Nat) -> i = 0",
    summary="true at index 0, false elsewhere",
))
_register(ProgramDescriptor(
    "q2", "point",
    (
        "fun (i : Nat) -> if i = 0 then return true else "
        f"(if i = 1 then return false else {_DIVERGE})"
    ),
    summary="(true, false), diverging beyond index 1",
))
_register(ProgramDescriptor(
    "bottom", "program",
    _DIVERGE,
    summary="the diverging computation",
))

_PRED = "(q : Nat -> Bool)"

_register(ProgramDescriptor(
    "T0", "predicate",
    f"fun {_PRED} -> true",
    input_class=N_STANDARD, bits=lambda n: n or 0,
    summary="constant true, no queries (0-standard)",
))
_register(ProgramDescriptor(
    "T1", "predicate",
    f"fun {_PRED} -> q 1; q 0; true",
    input_class=N_STANDARD, bits=lambda n: n or 2,
    summary="constant true after querying 1 then 0",
))
_register(ProgramDescriptor(
    "T2", "predicate",
    f"fun {_PRED} -> q 0; q 0; true",
    input_class=GENERAL, bits=lambda n: n or 2,
    summary="constant true, queries index 0 twice",
))
_register(ProgramDescriptor(
    "I0", "predicate",
    f"fun {_PRED} -> q 0",
    input_class=AT_MOST_ONCE, bits=lambda n: n or 1,
    summary="the identity predicate on bit 0",
))
_register(ProgramDescriptor(
    "I1", "predicate",
    f"fun {_PRED} -> let b <- q 0 in if b then return true else return false",
    input_class=AT_MOST_ONCE, bits=lambda n: n or 1,
    summary="identity on bit 0 via a conditional",
))
_register(ProgramDescriptor(
    "I2", "predicate",
    f"fun {_PRED} -> q 0 && q 0",
    input_class=GENERAL, bits=lambda n: n or 1,
    summary="identity on bit 0, queried twice",
))
_register(ProgramDescriptor(
    "constfalse", "predicate",
    f"fun {_PRED} -> false",
    input_class=N_STANDARD, bits=lambda n: n or 0,
    summary="constant false, no queries",
))


def _odd_src(n: int) -> str:
    idxs = "[" + ", ".join(str(i) for i in range(n)) + "]" if n else "([] : List Nat)"
    return f"""
fun {_PRED} ->
  let map = (rec (map : (Nat -> Bool) -> List Nat -> List Bool) f -> fun (l : List Nat) ->
      case l {{[] -> ([] : List Bool); h :: t -> let b <- f h in let r <- map f t in b :: r}}) in
  let fold = (rec (fold : (Bool -> Bool -> Bool) -> Bool -> List Bool -> Bool) g -> fun (acc : Bool) -> fun (l : List Bool) ->
      case l {{[] -> return acc; h :: t -> let acc2 <- g acc h in fold g acc2 t}}) in
  let xor = (fun (a : Bool) (b : Bool) ->
      if a then (if b then return false else return true) else return b) in
  let bs <- map q {idxs} in
  fold xor false bs
"""


_register(ProgramDescriptor(
    "odd", "predicate",
    _odd_src,
    input_class=N_STANDARD, bits=lambda n: n,
    summary="true on points with an odd number of true bits",
))


# ---------------------------------------------------------------------------
# The coin-toss enumeration (handlers warm-up)
# ---------------------------------------------------------------------------

_register(ProgramDescriptor(
    "toss", "program",
    """
operation Branch : Unit -> Bool
# Toss outcomes encoded as booleans: Heads = true, Tails = false.
let append = (rec (app : List Bool -> List Bool -> List Bool) l -> fun (l2 : List Bool) ->
    case l {[] -> return l2; h :: t -> let r <- app t l2 in h :: r}) in
let toss = (fun (_ : Unit) -> if do Branch () then return true else return false) in
handle toss () with {
  val x -> return [x];
  Branch () r -> let heads <- r true in let tails <- r false in append heads tails
}
""",
    summary="enumerates both coin-toss outcomes: [Heads, Tails]",
))


# ---------------------------------------------------------------------------
# Pure counters: naive enumeration, deferred choice, their combination
# ---------------------------------------------------------------------------
#
# Points are built by bit-testing a numeral counter.  With only +, - and
# = available, testbit walks a precomputed descending powers-of-two list,
# stripping bits above the wanted index; a <= b is encoded as a - b = 0
# under truncated subtraction.


def _pows_literal(n: int) -> str:
    if n == 0:
        return "([] : List Nat)"
    return "[" + ", ".join(str(2 ** j) for j in range(n - 1, -1, -1)) + "]"


# Bit i of the counter is the coefficient of 2^(n-1-i): testing index i
# strips the i higher-significance powers and stops, so low indices (the
# ones read first) are the cheap ones.
def _testbit_prelude(n: int) -> str:
    return f"""
  let pows = {_pows_literal(n)} in
  let testbit = (rec (tb : (List Nat * Nat) * (Nat * Nat) -> Bool) a ->
      let (sw, ji) = a in
      let (ps, rem) = sw in
      let (j, i) = ji in
      case ps {{
        [] -> return false;
        p :: rest ->
          if p - rem = 0 then
            (if j = i then return true else tb ((rest, rem - p), (j + 1, i)))
          else
            (if j = i then return false else tb ((rest, rem), (j + 1, i)))
      }}) in
"""


def _point_of(counter: str) -> str:
    return f"(fun (i : Nat) -> testbit ((pows, {counter}), (0, i)))"


def _naive_body(n: int) -> str:
    # The enumeration loop shared by naivecount (standalone) and lazycount.
    return f"""
  let loop = (rec (loop : Nat -> Nat -> Nat) c -> fun (acc : Nat) ->
      if c = {2 ** n} then return acc
      else
        let b <- pred {_point_of("c")} in
        let acc2 <- (if b then acc + 1 else return acc) in
        loop (c + 1) acc2) in
  loop 0 0
"""


def _naivecount_src(n: int) -> str:
    return f"fun (pred : (Nat -> Bool) -> Bool) ->{_testbit_prelude(n)}{_naive_body(n)}"


_register(ProgramDescriptor(
    "naivecount", "counter",
    _naivecount_src,
    accepts=GENERAL,
    summary="applies the predicate to all 2^n points in turn",
))


def _bestshot_point(n: int, pred: str) -> str:
    # The deferred point shared by bestshot (standalone) and lazycount.
    # It is returned immediately; all searching happens when the point is
    # sampled.  If some point satisfies pred, the first such point (in
    # counter order) is returned; otherwise point 0.
    return f"""return (fun (i : Nat) ->
    (rec (find : Nat -> Bool) c ->
        if c = {2 ** n} then testbit ((pows, 0), (0, i))
        else
          let b <- {pred} {_point_of("c")} in
          if b then testbit ((pows, c), (0, i)) else find (c + 1)) 0)"""


def _bestshot_src(n: int) -> str:
    return f"""
fun (pred : (Nat -> Bool) -> Bool) ->{_testbit_prelude(n)}
  {_bestshot_point(n, "pred")}
"""


_register(ProgramDescriptor(
    "bestshot", "selector",
    _bestshot_src,
    accepts=GENERAL,
    summary="deferred choice: a satisfying point if one exists",
))


def _lazycount_src(n: int) -> str:
    # if pred (bestshot pred) then naivecount pred else 0
    return f"""
fun (pred : (Nat -> Bool) -> Bool) ->{_testbit_prelude(n)}
  let bestshot = (fun (p : (Nat -> Bool) -> Bool) ->
    {_bestshot_point(n, "p")}) in
  let witness <- bestshot pred in
  let any <- pred witness in
  if any then{_naive_body(n)}
  else return 0
"""


_register(ProgramDescriptor(
    "lazycount", "counter",
    _lazycount_src,
    accepts=GENERAL,
    summary="tests a best-shot point first; constant time on empty predicates",
))


# ---------------------------------------------------------------------------
# The effectful counters
# ---------------------------------------------------------------------------

_EFFCOUNT_SRC = """
operation Branch : Unit -> Bool
fun (pred : (Nat -> Bool) -> Bool) ->
  handle pred (fun (_ : Nat) -> do Branch ()) with {
    val x -> if x then return 1 else return 0;
    Branch () r -> let xtrue <- r true in let xfalse <- r false in xtrue + xfalse
  }
"""

_register(ProgramDescriptor(
    "effcount", "counter",
    _EFFCOUNT_SRC,
    accepts=N_STANDARD,
    summary="one generic point, resumed twice per query; n-independent",
))


_POW2 = """
  let pow2 = (rec (pow2 : Nat -> Nat) k ->
      if k = 0 then return 1 else let h <- pow2 (k - 1) in h + h) in
"""


def _effcount_miss_src(n: int) -> str:
    return f"""
operation Branch : Unit -> Bool
fun (pred : (Nat -> Bool) -> Bool) ->{_POW2}
  let h <- handle pred (fun (_ : Nat) -> do Branch ()) with {{
    val x -> return (fun (d : Nat) -> if x then pow2 ({n} - d) else return 0);
    Branch () r -> return (fun (d : Nat) ->
        let g1 <- r true in let xt <- g1 (d + 1) in
        let g2 <- r false in let xf <- g2 (d + 1) in
        xt + xf)
  }} in
  h 0
"""


_register(ProgramDescriptor(
    "effcount_miss", "counter",
    _effcount_miss_src,
    accepts=AT_MOST_ONCE,
    summary="depth-passing handler; scales leaves by the unexplored subtree",
))


# Balanced n-key maps as nested pairs with option-boolean leaves.  The
# shape is fixed per n, so lookup and add are generated as straight-line
# descents: O(log n) machine steps, one comparison per level.


def _map_type(lo: int, hi: int) -> str:
    if hi - lo == 1:
        return "(Unit + Bool)"
    mid = (lo + hi) // 2
    return f"({_map_type(lo, mid)} * {_map_type(mid, hi)})"


def _map_empty(lo: int, hi: int) -> str:
    if hi - lo == 1:
        return "(inl () : Unit + Bool)"
    mid = (lo + hi) // 2
    return f"({_map_empty(lo, mid)}, {_map_empty(mid, hi)})"


def _map_lookup_body(lo: int, hi: int, mvar: str) -> str:
    if hi - lo == 1:
        return f"return {mvar}"
    mid = (lo + hi) // 2
    l, r = f"l{lo}x{hi}", f"r{lo}x{hi}"
    return (
        f"let ({l}, {r}) = {mvar} in "
        f"if i + 1 - {mid} = 0 then ({_map_lookup_body(lo, mid, l)}) "
        f"else ({_map_lookup_body(mid, hi, r)})"
    )


def _map_add_body(lo: int, hi: int, mvar: str) -> str:
    if hi - lo == 1:
        return "return (inr b : Unit + Bool)"
    mid = (lo + hi) // 2
    l, r = f"l{lo}x{hi}", f"r{lo}x{hi}"
    return (
        f"let ({l}, {r}) = {mvar} in "
        f"if i + 1 - {mid} = 0 then (let sub <- ({_map_add_body(lo, mid, l)}) in return (sub, {r})) "
        f"else (let sub <- ({_map_add_body(mid, hi, r)}) in return ({l}, sub))"
    )


def _effcount_rep_src(n: int) -> str:
    if n == 0:
        mt, empty = "Unit", "()"
        lookup = "(fun (i : Nat) -> fun (m : Unit) -> return (inl () : Unit + Bool))"
        add = "(fun (i : Nat) -> fun (b : Bool) -> fun (m : Unit) -> return ())"
    else:
        mt, empty = _map_type(0, n), _map_empty(0, n)
        lookup = f"(fun (i : Nat) -> fun (m : {mt}) -> {_map_lookup_body(0, n, 'm')})"
        add = f"(fun (i : Nat) -> fun (b : Bool) -> fun (m : {mt}) -> {_map_add_body(0, n, 'm')})"
    return f"""
operation Branch : Nat -> Bool
fun (pred : (Nat -> Bool) -> Bool) ->{_POW2}
  let lookup = {lookup} in
  let add = {add} in
  let h <- handle pred (fun (i : Nat) -> do Branch i) with {{
    val x -> return (fun (s : {mt} * Nat) ->
        let (m, d) = s in
        if x then pow2 ({n} - d) else return 0);
    Branch i r -> return (fun (s : {mt} * Nat) ->
        let (m, d) = s in
        let ans <- lookup i m in
        case ans {{
          inl _ ->
            let g1 <- r true in
            let m1 <- add i true m in
            let xt <- g1 (m1, d + 1) in
            let g2 <- r false in
            let m2 <- add i false m in
            let xf <- g2 (m2, d + 1) in
            xt + xf;
          inr a -> let g <- r a in g s
        }})
  }} in
  h ({empty}, 0)
"""


_register(ProgramDescriptor(
    "effcount_rep", "counter",
    _effcount_rep_src,
    accepts=GENERAL,
    summary="memoises answers in a balanced map and scales unexplored "
            "subtrees; counts any predicate",
))


# ---------------------------------------------------------------------------
# Generic search
# ---------------------------------------------------------------------------

_SEARCH_HEAD = """
operation Branch : Nat -> Bool
fun (pred : (Nat -> Bool) -> Bool) ->
"""


def _effsearch_src(n: int) -> str:
    # Difference-list results: constant-time concatenation.
    return _SEARCH_HEAD + """
  let f <- handle pred (fun (i : Nat) -> do Branch i) with {
    val x -> return (fun (q : Nat -> Bool) ->
        if x then return (fun (xs : List (Nat -> Bool)) -> return (q :: xs))
        else return (fun (xs : List (Nat -> Bool)) -> return xs));
    Branch i r -> return (fun (q : Nat -> Bool) ->
        let g1 <- r true in
        let xt <- g1 (fun (j : Nat) -> if i = j then return true else q j) in
        let g2 <- r false in
        let xf <- g2 (fun (j : Nat) -> if i = j then return false else q j) in
        return (fun (xs : List (Nat -> Bool)) -> let rest <- xf xs in xt rest))
  } in
  let hl <- f (fun (j : Nat) -> (rec (loop : Unit -> Bool) u -> loop u) ()) in
  hl ([] : List (Nat -> Bool))
"""


def _effsearch_cons_src(n: int) -> str:
    # Plain cons lists: concatenation is linear in its first operand.
    return _SEARCH_HEAD + """
  let append = (rec (app : List (Nat -> Bool) -> List (Nat -> Bool) -> List (Nat -> Bool)) l -> fun (l2 : List (Nat -> Bool)) ->
      case l {[] -> return l2; h :: t -> let r2 <- app t l2 in h :: r2}) in
  let f <- handle pred (fun (i : Nat) -> do Branch i) with {
    val x -> return (fun (q : Nat -> Bool) ->
        if x then return (q :: ([] : List (Nat -> Bool))) else return ([] : List (Nat -> Bool)));
    Branch i r -> return (fun (q : Nat -> Bool) ->
        let g1 <- r true in
        let xt <- g1 (fun (j : Nat) -> if i = j then return true else q j) in
        let g2 <- r false in
        let xf <- g2 (fun (j : Nat) -> if i = j then return false else q j) in
        append xt xf)
  } in
  f (fun (j : Nat) -> (rec (loop : Unit -> Bool) u -> loop u) ())
"""


_register(ProgramDescriptor(
    "effsearch", "searcher",
    _effsearch_src,
    accepts=N_STANDARD,
    summary="materialises satisfying points as difference lists",
))
_register(ProgramDescriptor(
    "effsearch_cons", "searcher",
    _effsearch_cons_src,
    accepts=N_STANDARD,
    summary="effsearch with plain cons-list concatenation (the slow contrast)",
))


# ---------------------------------------------------------------------------
# The memoising pruned counter
# ---------------------------------------------------------------------------
#
# A pure-language counter with one extra primitive, memoise, providing
# call-by-need thunks.  For each subtree it first constructs a lazy "best
# shot" at the leftmost solution; where the predicate rejects the best
# shot the whole subtree is skipped, and where it succeeds the counting
# walk starts at that solution and works rightward.


def _berger_prelude(n: int) -> str:
    return f"""
  let len = (rec (len : List Bool -> Nat) l ->
      case l {{[] -> return 0; h :: t -> let m <- len t in m + 1}}) in
  let nth = (rec (nth : Nat -> List Bool -> Bool) i -> fun (l : List Bool) ->
      case l {{[] -> return false; h :: t -> if i = 0 then return h else nth (i - 1) t}}) in
  let snoc = (rec (snoc : List Bool -> Bool -> List Bool) l -> fun (b : Bool) ->
      case l {{[] -> return [b]; h :: t -> let r <- snoc t b in h :: r}}) in
  let tab = (rec (tab : Nat -> (Nat -> Bool) -> List Bool) i -> fun (f : Nat -> Bool) ->
      if i = {n} then return ([] : List Bool)
      else let b <- f i in let r <- tab (i + 1) f in b :: r) in
"""


def _berger_src(n: int) -> str:
    # bs2 start: the leftmost solution list extending start (or a dead
    # end); candidates index lazily into the memoised search.
    return f"""
fun (pred : (Nat -> Bool) -> Bool) ->{_berger_prelude(n)}
  let bs2 = (rec (bs2 : List Bool -> List Bool) start ->
      let k <- len start in
      if k = {n} then return start
      else
        let start_t <- snoc start true in
        let mf <- memoise (fun () -> bs2 start_t) in
        let k2 <- len start_t in
        let cand = (fun (i : Nat) ->
            let within = i + 1 - k2 = 0 in
            if within then nth i start_t
            else let full <- mf () in nth i full) in
        let b <- pred cand in
        if b then tab 0 cand
        else let start_f <- snoc start false in bs2 start_f) in
  let bestshot1 = (fun (start : List Bool) ->
      let k <- len start in
      let mf <- memoise (fun () -> bs2 start) in
      return (fun (i : Nat) ->
          let within = i + 1 - k = 0 in
          if within then nth i start
          else let full <- mf () in nth i full)) in
  let count1 = (rec (count1 : List Bool -> Nat -> Nat) start -> fun (acc : Nat) ->
      let k <- len start in
      if k = {n} then
        (let b <- pred (fun (i : Nat) -> nth i start) in
         if b then acc + 1 else return acc)
      else
        let f <- bestshot1 start in
        let b <- pred f in
        if b then
          (let leftmost <- tab 0 f in
           let count2 = (rec (count2 : List Bool -> Nat -> Nat) s2 -> fun (a2 : Nat) ->
               let k2 <- len s2 in
               if k2 = {n} then a2 + 1
               else
                 let b2 <- nth k2 leftmost in
                 let s2b <- snoc s2 b2 in
                 let a3 <- count2 s2b a2 in
                 if b2 then (let s2f <- snoc s2 false in count1 s2f a3) else return a3) in
           count2 start acc)
        else return acc) in
  count1 ([] : List Bool) 0
"""


_register(ProgramDescriptor(
    "bergercount", "counter",
    _berger_src,
    accepts=GENERAL,
    summary="memoised leftmost-solution pruning; fast on fail-fast predicates",
))


# ---------------------------------------------------------------------------
# n-queens predicates
# ---------------------------------------------------------------------------
#
# Boards are points in B^(n*n): bit i*n+j means a queen on row i, column
# j.  The fail-fast variant reads bits in index order and rejects at the
# first violated constraint, so along any path each bit is read at most
# once; the eager variant always reads the whole board first (making it
# n^2-standard) and validates afterwards.


def _queens_checks(n: int) -> str:
    return """
  let conflict = (rec (cf : List Nat -> Nat -> Nat -> Nat -> Bool) placed -> fun (k : Nat) -> fun (i : Nat) -> fun (j : Nat) ->
      case placed {
        [] -> return false;
        c :: rest ->
          if c = j then return true
          else
            let dr = i - k in
            let dc = (j - c) + (c - j) in
            if dr = dc then return true else cf rest (k + 1) i j
      }) in
  let snocn = (rec (snocn : List Nat -> Nat -> List Nat) l -> fun (c : Nat) ->
      case l {[] -> return [c]; h :: t -> let r <- snocn t c in h :: r}) in
"""


def _queens_go(n: int, reader: str) -> str:
    # One scan over the board, row by row; `reader` names the bit source.
    return f"""
  let go = (rec (go : Nat -> Nat -> List Nat -> Bool) base -> fun (i : Nat) -> fun (placed : List Nat) ->
      if i = {n} then return true
      else
        let scan = (rec (scan : Nat -> Unit + Nat -> Bool) j -> fun (found : Unit + Nat) ->
            if j = {n} then
              (case found {{
                inl _ -> return false;
                inr c -> let p2 <- snocn placed c in go (base + {n}) (i + 1) p2
              }})
            else
              let b <- {reader} (base + j) in
              if b then
                (case found {{
                  inl _ ->
                    let cl <- conflict placed 0 i j in
                    if cl then return false else scan (j + 1) (inr j : Unit + Nat);
                  inr _ -> return false
                }})
              else scan (j + 1) found) in
        scan 0 (inl () : Unit + Nat)) in
"""


def _queens_failfast_src(n: int) -> str:
    return (
        f"fun {_PRED} ->"
        + _queens_checks(n)
        + _queens_go(n, "q")
        + "  go 0 0 ([] : List Nat)\n"
    )


def _queens_eager_src(n: int) -> str:
    nn = n * n
    return (
        f"fun {_PRED} ->"
        + _queens_checks(n)
        + f"""
  let build = (rec (build : Nat -> List Bool) idx ->
      if idx = {nn} then return ([] : List Bool)
      else let b <- q idx in let rest <- build (idx + 1) in b :: rest) in
  let nthb = (rec (nthb : Nat -> List Bool -> Bool) i -> fun (l : List Bool) ->
      case l {{[] -> return false; h :: t -> if i = 0 then return h else nthb (i - 1) t}}) in
  let bits <- build 0 in
  let q2 = (fun (i : Nat) -> nthb i bits) in
"""
        + _queens_go(n, "q2")
        + "  go 0 0 ([] : List Nat)\n"
    )


_register(ProgramDescriptor(
    "queens", "predicate",
    _queens_failfast_src,
    input_class=AT_MOST_ONCE, bits=lambda n: n * n,
    summary="n-queens board validity, rejecting at the first violation",
))
_register(ProgramDescriptor(
    "queens_eager", "predicate",
    _queens_eager_src,
    input_class=N_STANDARD, bits=lambda n: n * n,
    summary="n-queens board validity after reading the whole board",
))


# ---------------------------------------------------------------------------
# Composition and reporting
# ---------------------------------------------------------------------------


def build_predicate(pred_name: str, n: Optional[int]) -> tuple[Term, int]:
    """A predicate term and its arity in bits."""

    desc = get(pred_name, "predicate")
    k = desc.min_n
    if n is not None and 0 <= n < k:  # `build` rejects a negative n
        raise ValueError(f"{pred_name} reads {k} bit{'s' * (k != 1)}; "
                         f"n must be at least {k}, not {n}")
    term, _ = desc.build(n)
    return as_value(term), desc.bits(n)


def _apply(impl_name: str, pred_term: Term, bits: int) -> tuple[Term, Signature]:
    """A counter or searcher built at ``bits`` applied to a predicate, and
    its signature.  The term is complete: the counter was completed when
    built, and the predicate's own handlers are linted and completed here
    against the counter's signature, in one walk of the predicate when
    the counter has operations and in none when it has none."""

    counter_term, sig = get(impl_name, "counter", "searcher").build(bits)
    if sig:
        pred_term = _complete_predicate(pred_term, sig)
    return App(as_value(counter_term), pred_term), sig


def compose(impl_name: str, pred_name: str, n: Optional[int]) -> tuple[Term, Signature, int]:
    """Apply a counter/searcher to a predicate: the closed program to run.

    The counter is built at the predicate's arity in bits (the queens
    predicate on an n by n board is a predicate on n^2 bits).  Predicates
    are linted against handling the counter's operations.
    """

    pred_term, bits = build_predicate(pred_name, n)
    term, sig = _apply(impl_name, pred_term, bits)
    return term, sig, bits


@dataclass(slots=True)
class StepReport:
    """One benchmark row: who ran, on what, and what it cost."""

    impl: str
    pred: str
    n: int
    result: object
    ticks: int
    envops: int


def run_report(
    impl_name: str, pred_name: str, n: Optional[int], fuel: int = mc.DEFAULT_FUEL
) -> StepReport:
    """Run one counter x predicate cell and report the exact meters.

    Searchers report the length of the returned list as their result.
    """

    term, sig, bits = compose(impl_name, pred_name, n)
    return _report(impl_name, pred_name, n if n is not None else bits, term, fuel)


def run_on_predicate(
    impl_name: str, pred_term: Term, bits: int, fuel: int = mc.DEFAULT_FUEL
) -> StepReport:
    """Run a counter or searcher on a caller-supplied predicate term.

    The predicate is not typechecked, so one that sticks the machine
    inside the counter, such as a predicate that answers a numeral, is
    a one-line `ValueError` that names the counter."""

    term, sig = _apply(impl_name, as_function(pred_term), bits)
    try:
        return _report(impl_name, "<custom>", bits, term, fuel)
    except StuckError as exc:
        raise ValueError(f"{impl_name} is stuck on the predicate: {exc}") from None


def _report(impl_name, pred_label, n, term, fuel) -> StepReport:
    res = mc.run_machine(term, None, fuel)  # `_apply` made it complete
    result = res.value
    if get(impl_name).kind == "searcher":
        result = len(mc.mval_list(result))
    elif result.__class__ is not int:
        raise StuckError(f"counter returned a non-numeral: {result!r}")
    return StepReport(impl_name, pred_label, n, result, res.ticks, res.envops)


def point_term(bits: list[bool]) -> Term:
    """A syntactic point with the given bit values (false off the end)."""

    body = "false"
    for i in range(len(bits) - 1, -1, -1):
        lit = "true" if bits[i] else "false"
        body = f"if i = {i} then return {lit} else ({body})"
    return parse_term(f"fun (i : Nat) -> {body}")


def validate_catalog(n_small: int = 3) -> None:
    """Typecheck every catalog entry (at a small n for the templated
    ones) and check that its language level does not depend on n."""

    for name, desc in _REGISTRY.items():
        term, sig = desc.build(n_small)
        lvl = language_level(term)
        if lvl != desc.level:
            raise AssertionError(f"{name}: level {desc.level} at n = 0, {lvl} at n = {n_small}")
        typecheck_program(sig, term)

"""Machine/small-step agreement on random programs beyond the fixed-seed
corpus: Hypothesis draws the seeds, and every outcome must match."""

from pathlib import Path

import pytest

from fxlang import acceptance as ac
from fxlang import machine as mc
from fxlang.gen import random_program
from fxlang.parser import parse_program
from fxlang.syntax import (
    NAT,
    UNIT,
    UNIT_V,
    Do,
    Handle,
    Handler,
    Let,
    Num,
    Pair,
    Return,
    Split,
    Var,
)

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as hs


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=hs.integers(10_000, 1_000_000), effects=hs.booleans(), refs=hs.booleans())
def test_machine_agrees_with_smallstep_beyond_fixed_seeds(seed, effects, refs):
    # the same value up to alpha-equivalence, the same unhandled
    # operation, or both out of fuel at 2,000 reductions
    term, sig = random_program(seed, effects=effects, refs=refs)
    _, problem = ac.agreement(term, sig, (2_000, 600_000))
    assert problem is None


def test_a_diverging_program_runs_out_of_fuel_on_both_semantics():
    path = Path(__file__).resolve().parent.parent / "programs" / "diverge.fx"
    sig, term = parse_program(path.read_text(encoding="utf-8"))
    assert ac.agreement(term, sig, (2_000, 600_000)) == ("fuel", None)


def test_a_handled_body_that_rebinds_a_name_the_handler_reads():
    # Built from constructors, since the parser renames binders apart and
    # `gen` numbers every name.  The handled body rebinds `x`, which the
    # Op clause reads from the handler closure's environment: the answer
    # is the outer `x`, 1.  A machine that let the body extend that
    # environment in place would answer the inner one, 2.
    sig = {"Op": (UNIT, NAT)}
    handler = Handler("v", Return(Var("v")), {"Op": ("q", "r", Return(Var("x")))})
    body = Split(Var("p"), "x", "z", Do("Op", UNIT_V))
    term = Let("p", Return(Pair(Num(2), Num(3))), Let("x", Return(Num(1)), Handle(body, handler)))
    assert ac.agreement(term, sig, (2_000, 600_000)) == ("value", None)
    assert mc.run_machine(term, sig).value == 1

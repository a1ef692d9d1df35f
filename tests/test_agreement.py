"""Machine/small-step agreement on random programs beyond the fixed-seed
corpus: Hypothesis draws the seeds, and every outcome must match."""

import pytest

from fxlang import machine as mc
from fxlang.decompile import reify
from fxlang.errors import FuelExhausted
from fxlang.gen import random_program
from fxlang.smallstep import NormalOp, evaluate
from fxlang.syntax import alpha_eq

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as hs


SS_FUEL = 2_000
MACHINE_FUEL = 600_000


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(seed=hs.integers(10_000, 1_000_000), effects=hs.booleans(), refs=hs.booleans())
def test_machine_agrees_with_smallstep_beyond_fixed_seeds(seed, effects, refs):
    # the same value up to alpha-equivalence, the same unhandled
    # operation, or both out of fuel
    term, sig = random_program(seed, effects=effects, refs=refs)
    try:
        normal, _, _ = evaluate(term, sig, fuel=SS_FUEL)
    except FuelExhausted:
        normal = None
    # a run never has fewer ticks than reductions, so when small-step
    # needs SS_FUEL reductions or more the machine needs as many ticks
    try:
        res = mc.run_machine(term, sig, fuel=SS_FUEL if normal is None else MACHINE_FUEL)
    except FuelExhausted:
        res = None
    if normal is None or res is None:
        assert normal is None and res is None
    elif isinstance(normal, NormalOp):
        assert isinstance(res.outcome, mc.FinalUnhandledOp) and res.outcome.op == normal.op
    else:
        assert isinstance(res.outcome, mc.FinalValue)
        assert alpha_eq(reify(res.outcome.value), normal.value)

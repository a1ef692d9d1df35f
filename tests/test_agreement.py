"""Machine/small-step agreement on random programs beyond the fixed-seed
corpus: Hypothesis draws the seeds, and every outcome must match."""

from pathlib import Path

import pytest

from fxlang import acceptance as ac
from fxlang.gen import random_program
from fxlang.parser import parse_program

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

"""Print -> parse -> typecheck -> alpha_eq on random programs beyond the
fixed-seed corpus: Hypothesis draws the seeds."""

import pytest

from fxlang.gen import random_program
from fxlang.parser import parse_program
from fxlang.pprint import program_to_source
from fxlang.syntax import alpha_eq
from fxlang.typecheck import typecheck_program

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as hs


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(seed=hs.integers(20_000, 1_000_000), effects=hs.booleans(), refs=hs.booleans())
def test_printed_program_parses_typechecks_and_is_alpha_equal(seed, effects, refs):
    term, sig = random_program(seed, effects=effects, refs=refs)
    src = program_to_source(sig, term)
    sig2, again = parse_program(src)
    typecheck_program(sig2, again)
    assert sig2 == sig and alpha_eq(term, again), src

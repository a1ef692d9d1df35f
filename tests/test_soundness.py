"""Type-soundness surrogate: random well-typed closed programs never get
stuck.  Evaluation ends in a value, an operation no handler surrounds, or
runs out of fuel; a StuckError is an interpreter bug."""

from fxlang.errors import FuelExhausted
from fxlang.gen import random_program
from fxlang.machine import run_machine
from fxlang.smallstep import NormalValue, evaluate
from fxlang.typecheck import typecheck_program


def test_random_corpus_never_sticks():
    outcomes = {"value": 0, "op": 0, "fuel": 0}
    for seed in range(500):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)
        typecheck_program(sig, term)
        try:
            out, _, _ = evaluate(term, sig, fuel=10_000)  # raises StuckError on a bug
        except FuelExhausted:
            outcomes["fuel"] += 1
            continue
        outcomes["value" if isinstance(out, NormalValue) else "op"] += 1
    assert sum(outcomes.values()) == 500
    assert outcomes["value"] > 300  # the corpus is dominated by finished runs


def test_machine_handles_whole_corpus():
    for seed in range(500):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)
        try:
            run_machine(term, sig, fuel=100_000)
        except FuelExhausted:
            pass

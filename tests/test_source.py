"""Checks on the package source itself.

Invariants must hold under ``python -O``, which strips ``assert``
statements, so `src/fxlang/` raises its errors explicitly and writes no
``assert``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fxlang"


def asserts_in(source: str) -> list[int]:
    """The line numbers of the ``assert`` statements in ``source``."""

    return [n.lineno for n in ast.walk(ast.parse(source)) if n.__class__ is ast.Assert]


def test_no_assert_statement_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "machine.py" in {p.name for p in modules}
    found = [f"{p.name}:{n}" for p in modules for n in asserts_in(p.read_text(encoding="utf-8"))]
    assert found == []


def test_asserts_in_finds_every_assert():
    src = "def f(x):\n    assert x\n    if x:\n        assert x > 1, 'big'\n"
    assert asserts_in(src) == [2, 4]

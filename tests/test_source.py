"""Checks on the package source itself.

Invariants must hold under ``python -O``, which strips ``assert``
statements, so `src/fxlang/` raises its errors explicitly and writes no
``assert``.  The package is a library: it does not retune the process's
cyclic garbage collector, so a gain in collector time has to come from
allocating fewer long-lived objects.
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


GC_TUNING = frozenset(("disable", "freeze", "set_threshold"))


def gc_tuning_calls(source: str) -> list[int]:
    """The line numbers of the calls to ``gc.disable``, ``gc.freeze`` or
    ``gc.set_threshold`` in ``source``, through any ``import gc as ...``
    alias or ``from gc import ...`` name."""

    tree = ast.parse(source)
    modules, names = {"gc"}, set()
    for n in ast.walk(tree):
        if n.__class__ is ast.Import:
            modules.update(a.asname or a.name for a in n.names if a.name == "gc")
        elif n.__class__ is ast.ImportFrom and n.module == "gc":
            names.update(a.asname or a.name for a in n.names if a.name in GC_TUNING)
    found = []
    for n in ast.walk(tree):
        if n.__class__ is not ast.Call:
            continue
        f = n.func
        if (f.__class__ is ast.Attribute and f.attr in GC_TUNING
                and f.value.__class__ is ast.Name and f.value.id in modules) or (
                f.__class__ is ast.Name and f.id in names):
            found.append(n.lineno)
    return sorted(found)


def test_the_package_does_not_tune_the_garbage_collector():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "trees.py" in {p.name for p in modules}
    found = [f"{p.name}:{n}" for p in modules for n in gc_tuning_calls(p.read_text(encoding="utf-8"))]
    assert found == []


def test_gc_tuning_calls_finds_every_planted_call():
    src = (
        "import gc\nimport gc as g\nfrom gc import freeze, set_threshold as st\n"
        "gc.disable()\ng.freeze()\nfreeze()\nst(0)\n"
        "gc.collect()\ngc.enable()\ngc.get_threshold()\nx.disable()\n"
    )
    assert gc_tuning_calls(src) == [4, 5, 6, 7]

"""The wall-clock harness in perfbench/ reaches into fxlang by name.

`run.py`'s `import_fxlang` names the modules, `tracing.py`'s
`entry_points` the functions a traced run wraps, and `grid_check` reads
programs/grid.spec through `bench`.  A rename in fxlang that breaks one
of them fails here, not only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

from fxlang import countlib as cl
from fxlang.errors import FuelExhausted

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """run.py and tracing.py loaded from perfbench/, and run.py's `fx`
    namespace built from the fxlang modules this process already has."""

    # run.py puts perfbench/ on sys.path; perfbench/ gets no bytecode
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = [name for name in ("tracing", "workloads") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        tracing = sys.modules["tracing"]
        # import_fxlang first drops every fxlang module from sys.modules;
        # given none to drop, it reuses the modules already imported
        monkeypatch.setattr(run, "sys", SimpleNamespace(modules={}))
        yield SimpleNamespace(run=run, tracing=tracing, fx=run.import_fxlang())
    finally:
        for name in loaded:
            sys.modules.pop(name, None)


def test_the_harness_namespace_holds_the_imported_modules(harness):
    modules = [m for m in vars(harness.fx).values() if isinstance(m, ModuleType)]
    assert len(modules) == 11
    assert all(m is sys.modules[m.__name__] for m in modules)
    assert harness.fx.cl is cl and harness.fx.FuelExhausted is FuelExhausted


def test_the_tracer_restores_every_entry_point(harness):
    fx, tracing = harness.fx, harness.tracing
    sites = [(owner, attr) for owner, attr, _, _ in tracing.entry_points(fx)]
    sites.append((fx.mc, "run_machine"))
    before = [getattr(owner, attr) for owner, attr in sites]
    untraced = cl.run_report("effcount", "odd", 3)
    tracer = tracing.Tracer()
    tracer.install(fx)
    try:
        during = [getattr(owner, attr) for owner, attr in sites]
        traced = cl.run_report("effcount", "odd", 3)
    finally:
        tracer.restore()
    assert all(d is not b for d, b in zip(during, before))
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(sites, before))
    assert (traced.result, traced.ticks, traced.envops) == (
        untraced.result, untraced.ticks, untraced.envops)
    assert "machine.handler" in {span[tracing.NAME] for span in tracer.spans}


def test_the_harness_grid_check_reads_the_grid_spec(harness):
    assert harness.run.grid_check(harness.fx) is True

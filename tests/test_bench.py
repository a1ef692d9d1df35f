import re
from dataclasses import fields

import pytest

from fxlang import bench as bn
from fxlang import countlib as cl
from fxlang.cli import main


def small_spec(**kw):
    base = dict(
        impls=["effcount", "naivecount"],
        preds=[("odd", ""), ("I2", "")],
        nmin=2,
        nmax=4,
    )
    base.update(kw)
    return bn.BenchSpec(**base)


def test_csv_deterministic():
    a = bn.grid_csv(bn.run_grid(small_spec()))
    b = bn.grid_csv(bn.run_grid(small_spec()))
    assert a == b
    assert a.splitlines()[0] == bn.CSV_HEADER


def test_class_mismatch_rows_are_skipped():
    rows = bn.run_grid(small_spec())
    skipped = [r for r in rows if r.impl == "effcount" and r.pred == "I2"]
    assert skipped and all(r.status.startswith("skipped:") for r in skipped)
    assert "general" in skipped[0].status


def test_ticks_monotone_in_n():
    rows = bn.run_grid(small_spec(impls=["effcount"], preds=[("odd", "")], nmax=7))
    ticks = [r.ticks for r in rows if r.status == "ok"]
    assert ticks == sorted(ticks) and len(ticks) == 6


def test_embedded_standard_predicates_gate_correctly():
    # T0 is only 0-standard; at n >= 1 the plain effectful counter must skip it
    rows = bn.run_grid(small_spec(impls=["effcount", "effcount_miss"],
                                  preds=[("T0", "")], nmin=1, nmax=3))
    eff = [r for r in rows if r.impl == "effcount"]
    miss = [r for r in rows if r.impl == "effcount_miss"]
    assert all(r.status.startswith("skipped:") for r in eff)
    assert all(r.status == "ok" and r.count == 2 ** r.n for r in miss)


def test_queens_variant_resolution_and_cap():
    rows = bn.run_grid(
        small_spec(
            impls=["effcount_miss"],
            preds=[("queens", "failfast")],
            nmin=4,
            nmax=6,
        )
    )
    by_n = {r.n: r for r in rows}
    assert by_n[4].status == "ok" and by_n[4].count == 2
    assert by_n[5].status == "ok" and by_n[5].count == 10
    assert by_n[6].status.startswith("skipped:over size cap")

    # the eager variant reads the whole board: capped much earlier
    rows = bn.run_grid(
        small_spec(
            impls=["effcount"],
            preds=[("queens", "eager")],
            nmin=2,
            nmax=3,
        )
    )
    by_n = {r.n: r for r in rows}
    assert by_n[2].status == "ok" and by_n[2].count == 0
    assert by_n[3].status == "ok" and by_n[3].count == 0
    rows = bn.run_grid(
        small_spec(impls=["effcount"], preds=[("queens", "eager")], nmin=5, nmax=6)
    )
    assert all(r.status.startswith("skipped:over size cap") for r in rows)


def test_size_caps_follow_the_counters_level():
    # fuel = 1 stops every row that runs, so only the caps tell rows apart:
    # 14 for a handler-level counter, 12 for a base-level one
    caps = {"naivecount": 12, "lazycount": 12, "bergercount": 12,
            "effcount": 14, "effcount_rep": 14, "effcount_miss": 14,
            "effsearch": 14, "effsearch_cons": 14}
    rows = bn.run_grid(small_spec(impls=list(caps), preds=[("odd", "")],
                                  nmin=12, nmax=15, fuel=1))
    assert len(rows) == 32
    for r in rows:
        want = "skipped:over size cap" if r.n > caps[r.impl] else "fuel"
        assert r.status == want, (r.impl, r.n, r.status)


def test_derived_columns_recomputed():
    rows = bn.run_grid(small_spec(impls=["effcount"], preds=[("odd", "")], nmax=5))
    line = [r for r in rows if r.n == 5][0].csv()
    parts = line.split(",")
    ticks, per2n = int(parts[5]), float(parts[7])
    assert abs(per2n - ticks / 32) < 1e-9


def test_spec_file_parsing():
    text = """
# comment
impls = effcount, naivecount
preds = odd, queens:eager
nmin = 2
nmax = 5
reps = 2
"""
    spec = bn.parse_spec_file(text)
    assert spec.impls == ["effcount", "naivecount"]
    assert spec.preds == [("odd", ""), ("queens", "eager")]
    assert spec.nmin == 2 and spec.nmax == 5 and spec.reps == 2


def test_repetitions_check_determinism():
    rows = bn.run_grid(small_spec(impls=["effcount"], preds=[("odd", "")],
                                  nmax=4, reps=3))
    assert all(r.status == "ok" for r in rows)


def test_nondeterministic_ticks_raise(monkeypatch):
    real = cl.run_report
    calls = []

    def drifting(impl, pred, n, fuel):
        rep = real(impl, pred, n, fuel)
        calls.append(rep)
        rep.ticks += len(calls) - 1
        return rep

    monkeypatch.setattr(cl, "run_report", drifting)
    spec = small_spec(impls=["effcount"], preds=[("odd", "")], nmax=2, reps=2)
    with pytest.raises(RuntimeError, match="nondeterministic tick count"):
        bn.run_grid(spec)


@pytest.mark.parametrize("settings, message", [
    (dict(fuel=0), "fuel must be at least 1, not 0"),
    (dict(nmin=-1), "nmin must be at least 0, not -1"),
    (dict(nmin=3, nmax=1), "nmax must be at least nmin (3), not 1"),
    (dict(reps=0), "reps must be at least 1, not 0"),
])
def test_a_bench_spec_is_checked_when_it_is_built(settings, message):
    with pytest.raises(ValueError) as exc:
        bn.BenchSpec(["effcount"], [("odd", "")], **settings)
    assert str(exc.value) == message


def test_fields_spec_keys_and_bench_flags_are_one_set(tmp_path, monkeypatch, capsys):
    names = {f.name for f in fields(bn.BenchSpec)}
    text = ("impls = effcount\npreds = odd:eager\nnmin = 3\nnmax = 4\n"
            "fuel = 99\nreps = 2\nout = x.csv\n")
    assert {line.split(" = ")[0] for line in text.splitlines()} == names
    assert bn.parse_spec_file(text) == bn.BenchSpec(
        ["effcount"], [("odd", "eager")], nmin=3, nmax=4, fuel=99, reps=2, out="x.csv")

    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert set(re.findall(r"--(\w+)", capsys.readouterr().out)) - {"help", "spec"} == names

    # every flag replaces the file's key of the same name
    spec_file = tmp_path / "all.spec"
    spec_file.write_text(text)
    built = []
    monkeypatch.setattr(bn, "run_grid", lambda spec: built.append(spec) or [])
    out = str(tmp_path / "y.csv")
    assert main(["bench", "--spec", str(spec_file), "--impls", "naivecount",
                 "--preds", "constfalse", "--nmin", "1", "--nmax", "2", "--fuel", "5",
                 "--reps", "3", "--out", out]) == 0
    assert built == [bn.BenchSpec(["naivecount"], [("constfalse", "")],
                                  nmin=1, nmax=2, fuel=5, reps=3, out=out)]

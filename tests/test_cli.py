import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from fxlang import countlib as cl
from fxlang.cli import main

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_run_toss(tmp_path):
    code, out, _ = run_cli("run", str(PROGRAMS / "toss.fx"))
    assert code == 0
    assert out.splitlines()[0] == "[true, false]"


def test_run_value_exit_codes(tmp_path):
    f = tmp_path / "ok.fx"
    f.write_text("return (1 + 1)\n")
    code, out, _ = run_cli("run", str(f))
    assert code == 0 and out.splitlines()[0] == "2"

    bad = tmp_path / "bad.fx"
    bad.write_text("return (\n")
    code, _, err = run_cli("run", str(bad))
    assert code == 1 and "bad.fx" in err

    illtyped = tmp_path / "illtyped.fx"
    illtyped.write_text("1 + true\n")
    code, _, err = run_cli("run", str(illtyped))
    assert code == 1

    unhandled = tmp_path / "unhandled.fx"
    unhandled.write_text("operation Branch : Unit -> Bool\ndo Branch ()\n")
    code, _, err = run_cli("run", str(unhandled))
    assert code == 2 and "Branch" in err

    code, _, err = run_cli("run", str(PROGRAMS / "diverge.fx"), "--fuel", "500")
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (("run", str(PROGRAMS / "diverge.fx"), "--fuel", "500"),
     "fuel exhausted after 500 transitions"),
    (("run", str(PROGRAMS / "diverge.fx"), "--fuel", "500", "--semantics", "smallstep"),
     "fuel exhausted after 500 reductions"),
    (("run", str(PROGRAMS / "diverge.fx"), "--fuel", "500", "--trace"),
     "fuel exhausted after 500 transitions"),
    (("run", str(PROGRAMS / "diverge.fx"), "--fuel", "5", "--trace", "--semantics", "smallstep"),
     "fuel exhausted after 5 reductions"),
    (("count", "--impl", "naivecount", "--pred", "odd", "-n", "2", "--fuel", "10"),
     "fuel exhausted after 10 transitions"),
])
def test_fuel_exhaustion_is_one_line_and_exit_3(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 3 and err == message + "\n"
    if "--trace" in argv:  # the transitions fired before the fuel ran out
        assert len(out.splitlines()) == int(argv[3])
    else:
        assert out == ""


def test_semantics_agree(tmp_path):
    f = tmp_path / "p.fx"
    f.write_text("let (a, b) = (3, 4) in a + b\n")
    c1, out1, _ = run_cli("run", str(f))
    c2, out2, _ = run_cli("run", str(f), "--semantics", "smallstep")
    assert c1 == c2 == 0
    assert out1.splitlines()[0] == "7" and out2.splitlines()[0] == "7"


@pytest.mark.parametrize("flags, meters", [
    ((), "ticks: 24  envOps: 23"),
    (("--semantics", "smallstep"), "reductions: 17"),
])
def test_run_cells_pins_value_and_meters(flags, meters):
    code, out, err = run_cli("run", str(PROGRAMS / "cells.fx"), *flags)
    assert (code, out, err) == (0, "12\n" + meters + "\n", "")


def test_smallstep_runs_a_long_list_that_mentions_a_variable_at_its_end(tmp_path):
    f = tmp_path / "long.fx"
    f.write_text("let x <- return 7 in return [" + "0, " * 899 + "x]\n")
    code, out, _ = run_cli("run", str(f), "--semantics", "smallstep")
    assert code == 0
    assert out.splitlines()[0] == "0 :: " * 899 + "7 :: []"


def test_run_memoised_rec_thunk(tmp_path):
    f = tmp_path / "memo.fx"
    f.write_text("let f = memoise (rec (g : Unit -> Nat) u -> return 7) in f ()\n")
    for semantics in ("machine", "smallstep"):
        code, out, _ = run_cli("run", str(f), "--semantics", semantics)
        assert code == 0 and out.splitlines()[0] == "7"


def test_tree_command():
    code, out, _ = run_cli("tree", "--pred", "I0", "-n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ε ?0"
    assert set(lines[1:3]) == {"t !true", "f !false"}
    assert lines[3] == "classification: 1-standard"

    code, out, _ = run_cli("tree", "--pred", "I2", "-n", "1")
    assert "not n-standard (repeated query 0)" in out

    code, out, _ = run_cli("tree", "--pred", "odd", "-n", "3")
    assert len([l for l in out.splitlines() if not l.startswith("classification")]) == 15
    assert "3-standard" in out


def test_tree_dot_format():
    code, out, _ = run_cli("tree", "--pred", "I0", "-n", "1", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_count_command():
    code, out, _ = run_cli("count", "--impl", "effcount", "--pred", "odd", "-n", "4")
    assert code == 0
    assert "8" in out.splitlines()[0]


def test_list_command():
    # pins every catalog entry's level, which is read from its program
    code, out, err = run_cli("list")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "list.txt").read_text()


def test_bench_command(tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        "bench", "--impls", "effcount", "--preds", "odd",
        "--nmin", "2", "--nmax", "4", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("impl,pred,variant,n,count")
    assert len(lines) == 4


def test_bench_spec_file():
    # ticks and envOps are the cost model: the grid must not move
    code, out, _ = run_cli("bench", "--spec", str(PROGRAMS / "grid.spec"))
    assert code == 0
    assert out == (PROGRAMS.parent / "perfbench" / "grid.csv").read_text()


def test_bench_spec_file_with_out_writes_the_file(tmp_path):
    out = tmp_path / "grid.csv"
    code, stdout, err = run_cli("bench", "--spec", str(PROGRAMS / "grid.spec"), "--out", str(out))
    assert code == 0 and err == ""
    assert stdout == f"wrote 42 rows to {out}\n"
    assert out.read_bytes() == (PROGRAMS.parent / "perfbench" / "grid.csv").read_bytes()


def test_bench_flag_replaces_the_spec_files_key():
    code, from_spec, err = run_cli("bench", "--spec", str(PROGRAMS / "grid.spec"), "--nmax", "3")
    assert code == 0 and err == ""
    code, from_flags, err = run_cli("bench", "--impls", "effcount,naivecount,lazycount",
                                    "--preds", "odd,constfalse", "--nmin", "2", "--nmax", "3")
    assert code == 0 and err == ""
    assert from_spec == from_flags and len(from_spec.splitlines()) == 13


def test_trace_flag(tmp_path):
    f = tmp_path / "t.fx"
    f.write_text("let x <- return 1 in x + x\n")
    code, out, _ = run_cli("run", str(f), "--trace")
    assert code == 0
    assert "rule=M-Let" in out and "rule=M-RetCont" in out


def test_check_command(tmp_path):
    f = tmp_path / "p.fx"
    f.write_text("return (2, true)\n")
    code, out, _ = run_cli("check", str(f))
    assert code == 0 and "ok" in out


def test_trace_golden_pure(tmp_path):
    # a pure run prints depth 0 and ends before the bottom M-RetHandler
    f = tmp_path / "t.fx"
    f.write_text("let x <- return 1 in x + x\n")
    code, out, err = run_cli("run", str(f), "--trace")
    assert code == 0 and err == ""
    assert out == (
        "tick=1 rule=M-Let comp=Return depth(k)=0\n"
        "tick=2 rule=M-RetCont comp=App depth(k)=0\n"
        "tick=3 rule=M-Const comp=Return depth(k)=0\n"
    )


@pytest.mark.parametrize("name", ["toss", "fold"])
def test_trace_golden(name):
    code, out, err = run_cli("run", str(PROGRAMS / f"{name}.fx"), "--trace")
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}_trace.txt").read_text()


RUNNABLE = sorted(p.name for p in PROGRAMS.glob("*.fx") if p.name != "diverge.fx")


@pytest.mark.parametrize("name", RUNNABLE)
def test_run_golden(name):
    # the value and both meters of every example that terminates
    code, out, err = run_cli("run", str(PROGRAMS / name))
    assert code == 0 and err == ""
    assert out == (GOLDEN / name.replace(".fx", "_run.txt")).read_text()


@pytest.mark.parametrize("name", RUNNABLE)
def test_run_ticks_match_the_trace(name):
    # `fx run` fuses lets and a trace never does: both must count alike
    code, out, _ = run_cli("run", str(PROGRAMS / name))
    assert code == 0
    ticks = int(out.splitlines()[-1].split()[1])
    code, trace, _ = run_cli("run", str(PROGRAMS / name), "--trace")
    assert code == 0
    assert trace.splitlines()[-1].startswith(f"tick={ticks} ")


@pytest.mark.parametrize("name", ["toss", "pair_arith", "forward"])
def test_smallstep_trace_golden(name):
    # the trace ends with the value and reduction count of its own run
    code, out, err = run_cli(
        "run", str(PROGRAMS / f"{name}.fx"), "--semantics", "smallstep", "--trace"
    )
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}_smallstep_trace.txt").read_text()


@pytest.mark.parametrize("pred, n", [("odd", 4), ("queens", 2)])
def test_timed_tree_golden(pred, n):
    code, out, err = run_cli("tree", "--pred", pred, "-n", str(n), "--timed")
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{pred}{n}_tree_timed.txt").read_text()


def test_dot_tree_golden():
    # the one tree printer that names each node's parent
    code, out, err = run_cli("tree", "--pred", "odd", "-n", "3", "--timed", "--format", "dot")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "odd3_tree_timed.dot").read_text()


@pytest.mark.parametrize("args, golden", [
    (("--pred", "T2", "-n", "2"), "T2_n2_tree.txt"),  # a repeated query
    (("--pred", "T1", "-n", "3"), "T1_n3_tree.txt"),  # an answer above depth n
    (("--pred", "odd", "-n", "3", "--depth", "1"), "odd_n3_depth1_tree.txt"),  # partial
])
def test_classified_tree_golden(args, golden):
    # the classification line ends each tree, with the reason it is not standard
    code, out, _ = run_cli("tree", *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def assert_one_line_error(code, out, err, *fragments):
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    for frag in fragments:
        assert frag in err


def test_run_missing_file(tmp_path):
    missing = str(tmp_path / "missing.fx")
    assert_one_line_error(*run_cli("run", missing), missing, "No such file")


def test_bench_spec_missing_file(tmp_path):
    missing = str(tmp_path / "missing.spec")
    assert_one_line_error(*run_cli("bench", "--spec", missing), missing, "No such file")


def test_bench_spec_malformed_line(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("impls effcount\npreds = odd\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)), "bad.spec: line 1: expected key")


def test_bench_spec_unknown_program(tmp_path):
    spec = tmp_path / "nosuch.spec"
    spec.write_text("impls = nosuch\npreds = odd\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)), "unknown program 'nosuch'")


def test_check_deep_nesting(tmp_path):
    f = tmp_path / "deep.fx"
    f.write_text("return " + "(" * 3000 + "1" + ")" * 3000 + "\n")
    assert_one_line_error(*run_cli("check", str(f)), "deep.fx: nesting too deep")


def test_run_non_ascii_digit(tmp_path):
    f = tmp_path / "digit.fx"
    f.write_text("return 1 + \u00b2\n", encoding="utf-8")
    assert_one_line_error(*run_cli("run", str(f)), "digit.fx: 1:12: unexpected character")


@pytest.mark.parametrize("argv", [
    ("count", "--impl", "effcount_rep", "--pred", "odd", "-n", "-1"),
    ("count", "--impl", "naivecount", "--pred", "T0", "-n", "-2"),
    ("count", "--impl", "effcount", "--pred", "odd", "-n", "-1"),
    ("tree", "--pred", "odd", "-n", "-1"),
    ("tree", "--pred", "T1", "-n", "-1"),
])
def test_negative_size_is_one_line(argv):
    assert_one_line_error(*run_cli(*argv), "at least 0, not -")


@pytest.mark.parametrize("argv", [
    ("run", str(PROGRAMS / "toss.fx"), "--fuel", "0"),
    ("run", str(PROGRAMS / "toss.fx"), "--fuel", "-5", "--semantics", "smallstep"),
    ("count", "--impl", "naivecount", "--pred", "odd", "-n", "2", "--fuel", "0"),
    ("tree", "--pred", "odd", "-n", "2", "--fuel", "-1"),
    ("bench", "--impls", "effcount", "--preds", "odd", "--nmax", "2", "--fuel", "0"),
])
def test_fuel_below_one_is_one_line(argv):
    assert_one_line_error(*run_cli(*argv), "--fuel must be at least 1, not ")


@pytest.mark.parametrize("argv, msg", [
    (("count", "--impl", "effcount", "--pred", "T1", "-n", "0"),
     "T1 reads 2 bits; n must be at least 2, not 0"),
    (("count", "--impl", "naivecount", "--pred", "T2", "-n", "1"),
     "T2 reads 2 bits; n must be at least 2, not 1"),
    (("tree", "--pred", "I0", "-n", "0"), "I0 reads 1 bit; n must be at least 1, not 0"),
])
def test_fixed_arity_predicate_below_its_arity_is_one_line(argv, msg):
    assert_one_line_error(*run_cli(*argv), msg)


def test_bench_skips_rows_below_a_predicates_arity():
    # T1 reads bits 0 and 1, so no n below 2 can hold it
    code, out, _ = run_cli("bench", "--impls", "effsearch", "--preds", "T1",
                           "--nmin", "0", "--nmax", "2")
    rows = out.splitlines()[1:]
    assert code == 0 and [row.split(",")[3:5] for row in rows] == [
        ["0", "SKIPPED:BELOW ARITY 2"], ["1", "SKIPPED:BELOW ARITY 2"], ["2", "4"],
    ]


def test_tree_depth_below_zero_is_one_line():
    assert_one_line_error(*run_cli("tree", "--pred", "odd", "-n", "2", "--depth", "-1"),
                          "--depth must be at least 0, not -1")


def test_every_counter_on_every_predicate_exits_cleanly():
    # a count, a one-line error or fuel exhaustion, never a traceback;
    # bestshot returns a point, so `count` rejects it
    programs = cl.catalog()
    impls = [name for name, d in programs.items() if d.kind in ("counter", "searcher", "selector")]
    preds = [name for name, d in programs.items() if d.kind == "predicate"]
    for impl, pred, n in product(impls, preds, ("0", "2")):
        code, _, err = run_cli("count", "--impl", impl, "--pred", pred, "-n", n)
        assert code in (0, 1, 3) and len(err.splitlines()) <= 1, (impl, pred, n, err)
    assert_one_line_error(*run_cli("bench", "--impls", "bestshot", "--preds", "odd"),
                          "bestshot is not a counter or searcher")
    # above every counter's size cap, too
    assert_one_line_error(*run_cli("bench", "--impls", "bestshot", "--preds", "odd",
                                   "--nmin", "13", "--nmax", "13"),
                          "bestshot is not a counter or searcher")


def test_bench_spec_fuel_below_one_is_one_line(tmp_path):
    spec = tmp_path / "nofuel.spec"
    spec.write_text("impls = effcount\npreds = odd\nnmax = 2\nfuel = 0\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)),
                          "nofuel.spec: fuel must be at least 1, not 0")


def test_bench_spec_unknown_key_is_one_line(tmp_path):
    # a misspelt key must not leave its setting at the default (nmax = 8)
    spec = tmp_path / "typo.spec"
    spec.write_text("impls = effcount\npreds = odd\nn_max = 3\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)),
                          "typo.spec: line 3: unknown key 'n_max'")


def test_bench_spec_duplicate_key_is_one_line(tmp_path):
    # the second `nmax` must not silently override the first
    spec = tmp_path / "twice.spec"
    spec.write_text("impls = effcount\npreds = odd\nnmax = 3\nnmax = 2\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)),
                          "twice.spec: line 4: duplicate key 'nmax'")


def test_bench_spec_non_integer_is_one_line(tmp_path):
    spec = tmp_path / "word.spec"
    spec.write_text("impls = effcount\npreds = odd\nnmax = abc\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)),
                          "word.spec: line 3: nmax must be an integer, not 'abc'")


@pytest.mark.parametrize("semantics", ["machine", "smallstep"])
def test_trace_of_unhandled_operation_exits_2(tmp_path, semantics):
    f = tmp_path / "oops.fx"
    f.write_text("operation Oops : Unit -> Nat\nlet x <- do Oops () in return x\n")
    code, _, plain_err = run_cli("run", str(f), "--semantics", semantics)
    assert code == 2 and plain_err == "unhandled operation Oops\n"
    code, out, err = run_cli("run", str(f), "--semantics", semantics, "--trace")
    assert code == 2 and err == plain_err
    if semantics == "machine":  # stdout is the transition lines only
        assert out == "tick=1 rule=M-Let comp=Do depth(k)=1\n"


def test_smallstep_result_nested_too_deep_is_one_line(tmp_path):
    # the machine prints this 1,500-element list; the term printer that
    # small-step results go through recurses once per cell
    f = tmp_path / "build.fx"
    f.write_text(
        "let go = (rec (go : List Nat -> Nat -> List Nat) acc -> fun (n : Nat) ->\n"
        "  if n = 0 then return acc else go (n :: acc) (n - 1)) in\n"
        "go [] 1500\n"
    )
    code, out, _ = run_cli("run", str(f))
    assert code == 0 and out.startswith("[1, 2, 3, ")
    assert_one_line_error(*run_cli("run", str(f), "--semantics", "smallstep"),
                          "build.fx: nesting too deep")


@pytest.mark.parametrize("preds", ["odd", "I0"])  # I0 rows would all be skipped
def test_bench_negative_nmin_is_one_line(preds):
    argv = ("bench", "--impls", "effcount", "--preds", preds, "--nmin", "-1", "--nmax", "2")
    assert_one_line_error(*run_cli(*argv), "nmin must be at least 0, not -1")


@pytest.mark.parametrize("flags, message", [
    (("--nmin", "3", "--nmax", "1"), "nmax must be at least nmin (3), not 1"),
    (("--nmax", "2", "--reps", "0"), "reps must be at least 1, not 0"),
    (("--nmax", "2", "--reps", "-2"), "reps must be at least 1, not -2"),
])
def test_bench_bad_range_is_one_line(tmp_path, flags, message):
    assert_one_line_error(*run_cli("bench", "--impls", "effcount", "--preds", "odd", *flags),
                          message)
    spec = tmp_path / "range.spec"
    spec.write_text("impls = effcount\npreds = odd\n"
                    + "".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)), f"range.spec: {message}")


@pytest.mark.parametrize("lines, message", [
    ("impls = odd\npreds = odd\n", "odd is not a counter or searcher"),
    ("impls = nosuch\npreds = odd\n", "unknown program 'nosuch'; see `fx list` for the catalog"),
    ("impls = effcount\npreds = nosuch\n", "unknown program 'nosuch'; see `fx list` for the catalog"),
    ("impls = effcount\npreds = odd:nosuch\n",
     "unknown variant 'nosuch' of predicate 'odd'; see `fx list` for the catalog"),
    ("impls = effcount\npreds = q0\n", "q0 is not a predicate"),
])
def test_a_bad_name_in_a_spec_file_blames_the_file(tmp_path, lines, message):
    spec = tmp_path / "names.spec"
    spec.write_text(lines + "nmax = 2\n")
    assert run_cli("bench", "--spec", str(spec)) == (1, "", f"{spec}: {message}\n")


@pytest.mark.parametrize("flags", [
    ("--nmin", "-1"),
    ("--impls", "odd"),
    ("--impls", "nosuch"),
    ("--preds", "nosuch"),
    ("--nmax", "1"),
    ("--preds", "q0"),
])
def test_a_bad_flag_given_with_a_spec_file_does_not_blame_the_file(flags):
    # programs/grid.spec sets nmin = 2, as the default does
    code, out, flag_only = run_cli("bench", "--impls", "effcount", "--preds", "odd", *flags)
    assert_one_line_error(code, out, flag_only)
    assert run_cli("bench", "--spec", str(PROGRAMS / "grid.spec"), *flags) == (1, "", flag_only)


def test_bench_trailing_commas_are_dropped(tmp_path):
    spec = tmp_path / "trailing.spec"
    spec.write_text("impls = effcount,\npreds = odd,\nnmin = 2\nnmax = 3\n")
    code, from_file, err = run_cli("bench", "--spec", str(spec))
    assert code == 0 and err == ""
    code, from_flags, err = run_cli(
        "bench", "--impls", "effcount,", "--preds", "odd,", "--nmin", "2", "--nmax", "3"
    )
    assert code == 0 and err == ""
    assert from_flags == from_file and len(from_file.splitlines()) == 3


def test_bench_empty_lists_are_one_line(tmp_path):
    spec = tmp_path / "empty.spec"
    spec.write_text("impls = ,\npreds = odd\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)), "empty.spec: `impls` and `preds`")
    argv = ("bench", "--impls", "effcount", "--preds", " , ")
    assert_one_line_error(*run_cli(*argv), "each need at least one name")


def test_bench_bad_out_path_fails_before_the_grid_runs(tmp_path, monkeypatch):
    def no_grid(spec):
        raise AssertionError("the grid ran before the output file was opened")

    monkeypatch.setattr("fxlang.bench.run_grid", no_grid)
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    argv = ("bench", "--impls", "naivecount", "--preds", "odd", "--nmax", "10", "--out", out)
    assert_one_line_error(*run_cli(*argv), out, "No such file")


def test_bench_out_file_is_replaced_only_by_a_finished_grid(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    argv = ("bench", "--impls", "effcount", "--preds", "odd", "--out", str(out))
    assert_one_line_error(*run_cli(*argv, "--nmin", "3", "--nmax", "1"), "nmax must be at least")
    assert out.read_text() == "old\n"
    code, _, _ = run_cli(*argv, "--nmin", "2", "--nmax", "3")
    assert code == 0 and out.read_text().splitlines()[0].startswith("impl,pred,variant,n")
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ("bench", "--impls", "effcount", "--preds", "odd:weird", "--nmax", "2"),
    ("count", "--impl", "effcount", "--pred", "odd", "--variant", "weird", "-n", "2"),
    ("tree", "--pred", "odd", "--variant", "weird", "-n", "2"),
])
def test_unknown_variant_names_predicate_and_variant(argv):
    assert_one_line_error(*run_cli(*argv), "unknown variant 'weird' of predicate 'odd'")


def test_unknown_predicate_with_a_variant_names_the_predicate():
    argv = ("count", "--impl", "effcount", "--pred", "nosuch", "--variant", "weird", "-n", "2")
    assert_one_line_error(*run_cli(*argv), "unknown program 'nosuch'")


@pytest.mark.parametrize("name", sorted(cl.catalog()))
def test_every_program_name_in_every_slot_exits_cleanly(tmp_path, name):
    # a result or a one-line error, never a traceback, whatever kind of
    # program a name is given where a counter or a predicate is wanted
    runs = [("tree", "--pred", name, "-n", "2")]
    for impls, preds in (("effcount", name), (name, "odd")):
        runs.append(("bench", "--impls", impls, "--preds", preds, "--nmin", "2", "--nmax", "2"))
        spec = tmp_path / f"{impls}-{preds}.spec"
        spec.write_text(f"impls = {impls}\npreds = {preds}\nnmin = 2\nnmax = 2\n")
        runs.append(("bench", "--spec", str(spec)))
    for argv in runs:
        code, out, err = run_cli(*argv)
        if code != 0:
            assert_one_line_error(code, out, err)


@pytest.mark.parametrize("names", [("nosuch", "odd"), ("effcount", "q0")])
def test_a_grid_with_a_bad_name_makes_no_out_file(tmp_path, names):
    impls, preds = names
    out = tmp_path / "x.csv"
    argv = ("bench", "--impls", impls, "--preds", preds, "--nmax", "2", "--out", str(out))
    assert_one_line_error(*run_cli(*argv))
    assert not out.exists()
    out.write_text("old\n")
    assert_one_line_error(*run_cli(*argv))
    assert out.read_text() == "old\n"


def test_a_spec_file_that_is_not_utf8_is_named(tmp_path):
    spec = tmp_path / "binary.spec"
    spec.write_bytes(b"\xffimpls = effcount\npreds = odd\n")
    assert_one_line_error(*run_cli("bench", "--spec", str(spec)),
                          f"{spec}: 'utf-8' codec can't decode byte 0xff")

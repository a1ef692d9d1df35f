import pytest

from fxlang.gen import random_program
from fxlang.parser import ParseError, parse_program, parse_term
from fxlang.pprint import program_to_source, to_source, type_to_source
from fxlang.syntax import (
    App,
    Arrow,
    BOOL,
    ListType,
    NAT,
    Prod,
    RefType,
    Sum,
    UNIT,
    Case,
    Const,
    Inl,
    Lam,
    Let,
    Num,
    Pair,
    Return,
    UnitVal,
    Var,
    alpha_eq,
)
from fxlang.typecheck import typecheck_program


def roundtrip(src, sig=None):
    t = parse_term(src, sig)
    again = parse_term(to_source(t), sig)
    assert alpha_eq(t, again), f"{src!r} -> {to_source(t)!r}"
    return t


def test_return_literal():
    t = parse_term("return 0")
    assert isinstance(t, Return) and isinstance(t.value, Num) and t.value.value == 0


def test_direct_style_left_to_right():
    # f (h w) + g ()  elaborates to the flat let-normal form.
    t = parse_term("f (h w) + g ()")
    want = Let(
        "x",
        App(Var("h"), Var("w")),
        Let(
            "y",
            App(Var("f"), Var("x")),
            Let(
                "z",
                App(Var("g"), UnitVal()),
                App(Const("+"), Pair(Var("y"), Var("z"))),
            ),
        ),
    )
    assert alpha_eq(t, want)


def test_if_desugars_to_case_on_units():
    t = parse_term("if v then return 1 else return 2")
    assert isinstance(t, Case)
    assert isinstance(t.left, Return) and t.left.value.value == 1
    # the binders are unused unit patterns
    assert t.left_name != t.right_name


def test_sequencing_desugars_to_let():
    t = parse_term("q 1; q 0; true")
    assert isinstance(t, Let) and isinstance(t.body, Let)
    assert isinstance(t.body.body, Return)


def test_booleans_are_sums():
    t = parse_term("return true")
    assert isinstance(t.value, Inl) and isinstance(t.value.value, UnitVal)


@pytest.mark.parametrize(
    "src",
    [
        "return 0",
        "f (h w) + g ()",
        "let q = (fun i -> i = 0) in q 0 && q 1",
        "let (a, b) = p in a + b",
        "letref x = 0 in (x := 1); !x",
        "[1, 2, 3]",
        "1 :: 2 :: []",
        "(rec f i -> f i) ()",
        "fun (q : Nat -> Bool) -> q 0",
        "case [] {[] -> return 0; x :: xs -> return 1}",
        "case inl 3 {inl x -> x + 1; inr y -> return 0}",
        "memoise (fun () -> return [])",
        "(inl 3 : Nat + Bool)",
        "do Branch () || do Branch ()",
        "(+)",
        "q 1; q 0; true",
        "if a && b then return 1 else return 0",
    ],
)
def test_print_parse_roundtrip(src):
    sig = {"Branch": (__import__("fxlang.syntax", fromlist=["UNIT"]).UNIT,
                      __import__("fxlang.syntax", fromlist=["BOOL"]).BOOL)}
    roundtrip(src, sig)


def retypecheck(sig, term):
    """Print a program, parse it back and typecheck the result."""

    src = program_to_source(sig, term)
    sig2, again = parse_program(src)
    typecheck_program(sig2, again)
    assert sig2 == sig and alpha_eq(term, again), src


@pytest.mark.parametrize(
    "src",
    [
        # an arrow operand of a sum keeps its parentheses
        "return (inl (fun (u : Unit) -> return 1) : (Unit -> Nat) + Unit)",
        # a Bool annotation on a non-literal injection is printed
        "fun (x : Unit) -> return (inr x : Bool)",
    ],
)
def test_printed_annotations_typecheck(src):
    term = parse_term(src)
    typecheck_program({}, term)
    retypecheck({}, term)


@pytest.mark.parametrize("elem, text", [
    (Sum(NAT, UNIT), "(Nat + Unit)"),
    (Prod(NAT, BOOL), "(Nat * Bool)"),
    (Arrow(NAT, BOOL), "(Nat -> Bool)"),
    (BOOL, "(Bool)"),
    (ListType(NAT), "(List (Nat))"),
])
@pytest.mark.parametrize("wrap", [ListType, RefType])
def test_list_and_ref_types_print_once_parenthesised(wrap, elem, text):
    ty = wrap(elem)
    printed = type_to_source(ty)
    assert printed == f"{'List' if wrap is ListType else 'Ref'} {text}"
    sig, _ = parse_program(f"operation Op : ({printed}) -> Unit\nreturn ()")
    assert sig["Op"][0] == ty


def test_generated_programs_retypecheck():
    for seed in range(1000):
        term, sig = random_program(seed, effects=seed % 2 == 1, refs=seed % 5 == 3)
        retypecheck(sig, term)


def test_handler_roundtrip():
    src = """
operation Branch : Unit -> Bool
handle pred (fun _ -> do Branch ()) with {
  val x -> if x then return 1 else return 0;
  Branch () r -> let a <- r true in let b <- r false in a + b
}
"""
    sig, term = parse_program(src)
    assert "Branch" in sig
    again = parse_term(to_source(term), sig)
    assert alpha_eq(term, again)


def test_binders_are_unique():
    t = parse_term("let x = 1 in let x = 2 in (fun x -> return x) x")
    names = set()

    def collect(term):
        from fxlang.syntax import Lam, Let, subterms

        for s in subterms(term):
            if isinstance(s, Let):
                assert s.name not in names
                names.add(s.name)
            elif isinstance(s, Lam):
                assert s.param not in names
                names.add(s.param)

    collect(t)
    assert len(names) == 3


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term("let x <- return 1 in\nreturn )")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"]
)
def test_numerals_are_ascii_digits(digit):
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_term(f"return 1 +\n  {digit}")
    assert (exc.value.line, exc.value.col) == (2, 3)
    with pytest.raises(ParseError):
        parse_term(f"return 1{digit}")


def test_unknown_operation_rejected():
    with pytest.raises(ParseError, match="unknown operation"):
        parse_term("do Branch ()")  # no signature in scope


def test_duplicate_operation_declaration():
    with pytest.raises(ParseError, match="declared twice"):
        parse_program(
            "operation A : Unit -> Nat\noperation A : Unit -> Nat\nreturn 0"
        )


def test_shadowing_resolved():
    t = parse_term("let x = 1 in let x = x + 1 in x + x")
    # the inner x + x refers to the second binder only
    assert isinstance(t, Let)
    inner = t.body
    while not isinstance(inner.bound, Return) or not isinstance(inner.body, App):
        inner = inner.body
    final = inner.body
    assert final.arg.fst.name == final.arg.snd.name


_OP_A = "operation A : Unit -> Unit\n"


@pytest.mark.parametrize(
    "parse, src, msg, line, col",
    [
        (parse_term, "return 1 +\n  $", "unexpected character '$'", 2, 3),
        (parse_term, "let x = 1 return x", "expected 'in', found 'return'", 1, 11),
        (parse_term, "return (1, 2", "expected ')', found ''", 1, 13),
        (parse_term, "let 1 = 2 in return 1", "expected identifier, found '1'", 1, 5),
        (parse_term, "let", "expected identifier, found ''", 1, 4),
        (parse_term, "handle return 1 with {val 1 -> return 1}",
         "expected a binder, found '1'", 1, 27),
        (parse_term, "return (1 : Foo)", "unknown type name 'Foo'", 1, 13),
        (parse_program, "operation A : -> Nat\nreturn 0", "expected a type, found '->'", 1, 15),
        (parse_program, "operation A :", "expected a type, found ''", 1, 14),
        (parse_program, "operation A : Nat\nreturn 0", "operation 'A' needs an arrow type", 1, 11),
        (parse_program, _OP_A + "operation A : Nat -> Nat\nreturn 0",
         "operation 'A' declared twice", 2, 11),
        (parse_program, "return 1 )", "unexpected ')' after program", 1, 10),
        (parse_term, "return 1 )", "unexpected ')' after term", 1, 10),
        (parse_term, "handle return 1 with {val x -> return x; val y -> return y}",
         "duplicate val clause", 1, 42),
        (parse_program, _OP_A + "handle return 1 with {A p r -> r p}",
         "handler needs a val clause", 2, 36),
        (parse_term, "return )", "unexpected ')'", 1, 8),
        (parse_term, "return", "unexpected ''", 1, 7),
        (parse_term, "let x = 1 in\n\treturn x +", "unexpected ''", 2, 12),
        (parse_term, "return fun -> return 1", "fun needs at least one parameter", 1, 12),
        (parse_term, "do Branch ()", "unknown operation symbol 'Branch'", 1, 4),
        (parse_program, _OP_A + "handle return 1 with {val x -> return x; B p r -> r p}",
         "unknown operation symbol 'B'", 2, 42),
        (parse_program,
         _OP_A + "handle return 1 with {val x -> return x;\n  A p r -> r p;\n  A q s -> s q}",
         "duplicate clause for 'A'", 4, 3),
        # The end of the input lies one past a trailing comment.
        (parse_term, "return 1 +  # to be continued", "unexpected ''", 1, 30),
        (parse_term, "return 1 +  # to be continued\n", "unexpected ''", 2, 1),
    ],
)
def test_parse_error_message_and_position(parse, src, msg, line, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"{line}:{col}: {msg}", line, col)

import re

import pytest

from fxlang import countlib as cl
from fxlang.parser import parse_program, parse_term
from fxlang.syntax import (
    Arrow,
    BOOL,
    ListType,
    NAT,
    PREDICATE,
    Prod,
    Sum,
    UNIT,
)
from fxlang.typecheck import TypeCheckError, typecheck, typecheck_program

BRANCH_SIG = {"Branch": (UNIT, BOOL)}


def ty_of(src, sig=None, env=None):
    return typecheck(env or {}, parse_term(src, sig), sig)


def test_return_unit():
    assert ty_of("return ()") == UNIT


def test_do_branch_is_bool():
    assert ty_of("do Branch ()", BRANCH_SIG) == BOOL


def test_odd_is_a_predicate():
    term, sig = cl.get("odd").build(2)
    assert typecheck_program(sig, term) == PREDICATE


def test_constants():
    assert ty_of("2 + 3") == NAT
    assert ty_of("2 - 3") == NAT
    assert ty_of("2 = 3") == BOOL
    assert ty_of("return (+)") == Arrow(Prod(NAT, NAT), NAT)


def test_unbound_variable():
    with pytest.raises(TypeCheckError, match="unbound variable"):
        ty_of("return nope")


def test_mismatch_reports_expected_and_actual():
    with pytest.raises(TypeCheckError, match=r"expected Nat, got .Bool"):
        ty_of("1 + (true, ())")


def test_mismatch_carries_path():
    with pytest.raises(TypeCheckError, match="case-inr"):
        ty_of("case true {inl x -> return 1; inr y -> return ()}")


def test_operation_argument_checked():
    with pytest.raises(TypeCheckError):
        ty_of("do Branch 3", BRANCH_SIG)


def test_handler_clause_types():
    src = """
operation Branch : Unit -> Bool
handle do Branch () with {
  val x -> return 0;
  Branch () r -> let a <- r true in a + 1
}
"""
    sig, term = parse_program(src)
    assert typecheck_program(sig, term) == NAT


def test_handler_resumption_misuse():
    src = """
operation Branch : Unit -> Bool
handle do Branch () with {
  val x -> return 0;
  Branch () r -> r 3
}
"""
    sig, term = parse_program(src)
    with pytest.raises(TypeCheckError):
        typecheck_program(sig, term)


def test_refs():
    assert ty_of("letref x = 4 in !x") == NAT
    assert ty_of("letref x = 4 in x := 7") == UNIT
    with pytest.raises(TypeCheckError):
        ty_of("letref x = 4 in x := true")
    with pytest.raises(TypeCheckError):
        ty_of("!3")


def test_lists():
    assert ty_of("return [1, 2]") == ListType(NAT)
    assert ty_of("return ([] : List Nat)") == ListType(NAT)
    with pytest.raises(TypeCheckError, match="annotation"):
        ty_of("return []")
    with pytest.raises(TypeCheckError):
        ty_of("return (1 :: true :: [])")


def test_sum_annotations():
    assert ty_of("return (inl 3 : Nat + Bool)") == Sum(NAT, BOOL)
    with pytest.raises(TypeCheckError, match="annotation"):
        ty_of("return (inl 3)")


def test_memoise_typing():
    assert ty_of("memoise (fun () -> return [true])") == Arrow(UNIT, ListType(BOOL))
    with pytest.raises(TypeCheckError, match="memoise"):
        ty_of("memoise 3")


def test_lambda_needs_annotation_in_infer_position():
    with pytest.raises(TypeCheckError, match="annotation"):
        ty_of("return (fun x -> return x)")
    # ... but not in a checked position
    assert ty_of("(fun (f : Nat -> Nat) -> f 1) (fun x -> x + 1)") == NAT


def test_rec_needs_arrow_annotation():
    with pytest.raises(TypeCheckError, match="arrow"):
        ty_of("(rec f x -> f x) ()")
    assert ty_of("(rec (f : Nat -> Nat) x -> return x) 3") == NAT


def test_catalog_typechecks_at_many_sizes():
    cl.validate_catalog(1)
    cl.validate_catalog(2)
    cl.validate_catalog(5)
    cl.validate_catalog(12)


# Each unannotated introduction form {x}, an annotated copy {a} that
# infers, and the type {t} they have.
CHECKED_FORMS = {
    "inl": ("inl ()", "(inl () : Unit + Nat)", "Unit + Nat"),
    "inr": ("inr 3", "(inr 3 : Unit + Nat)", "Unit + Nat"),
    "nil": ("[]", "([] : List Nat)", "List Nat"),
    "fun": ("fun x -> return x", "(fun (x : Nat) -> return x)", "Nat -> Nat"),
}

# Programs with {x} in a checking position; Op : {t} -> {t}.
CHECKING_POSITIONS = {
    "rec-body": "(rec (f : Unit -> {t}) u -> return {x}) ()",
    "app-arg": "(fun (g : {t}) -> return 0) ({x})",
    "case-inl": "(rec (f : Unit -> {t}) u -> case true {{inl a -> return {x}; inr b -> return {a}}}) ()",
    "case-inr": "(rec (f : Unit -> {t}) u -> case true {{inl a -> return {a}; inr b -> return {x}}}) ()",
    "case-nil": "(rec (f : Unit -> {t}) u -> case ([] : List Nat) {{[] -> return {x}; h :: tl -> return {a}}}) ()",
    "case-cons": "(rec (f : Unit -> {t}) u -> case ([] : List Nat) {{[] -> return {a}; h :: tl -> return {x}}}) ()",
    "let-body": "(rec (f : Unit -> {t}) u -> let y = 0 in return {x}) ()",
    "split-body": "(rec (f : Unit -> {t}) u -> let (p, q) = (1, 2) in return {x}) ()",
    "pair-fst": "(rec (f : Unit -> ({t}) * Nat) u -> return ({x}, 1)) ()",
    "pair-snd": "(rec (f : Unit -> Nat * ({t})) u -> return (1, {x})) ()",
    "cons-head": "(rec (f : Unit -> List ({t})) u -> return ({x}) :: []) ()",
    # The head infers, so the tail is checked against its list type.
    "cons-tail": "return {a} :: ({x}) :: []",
    "do-arg": "do Op ({x})",
    "op-clause": "handle return {a} with {{val v -> return v; Op p r -> return {x}}}",
}


@pytest.mark.parametrize("form", sorted(CHECKED_FORMS))
@pytest.mark.parametrize("position", sorted(CHECKING_POSITIONS))
def test_unannotated_form_in_checking_position(position, form):
    x, a, t = CHECKED_FORMS[form]

    def type_with(v):
        body = CHECKING_POSITIONS[position].format(x=v, a=a, t=t)
        return typecheck_program(*parse_program(f"operation Op : ({t}) -> ({t})\n{body}"))

    assert type_with(x) == type_with(a)


@pytest.mark.parametrize("src, checked, expected, got", [
    ("(inl 3 : Nat + Bool)", "Nat + Unit", "(Nat + Unit)", "(Nat + Bool)"),
    ("(inr () : Nat + Bool)", "Nat + Unit", "(Nat + Unit)", "(Nat + Bool)"),
    ("([] : List Bool)", "List Nat", "Nat", "Bool"),
    ("(fun (x : Bool) -> return 3)", "Nat -> Nat", "Nat", "Bool"),
])
def test_annotation_disagreeing_with_checked_type(src, checked, expected, got):
    message = f"expected {re.escape(expected)}, got {re.escape(got)}"
    with pytest.raises(TypeCheckError, match=message):
        ty_of(f"(rec (f : Unit -> {checked}) u -> return {src}) ()")


@pytest.mark.parametrize("body", [
    "letref r = 0 in return []",
    "handle return () with {val x -> return []}",
])
def test_letref_body_and_val_clause_are_checking_positions(body):
    assert ty_of(f"(rec (f : Unit -> List Nat) u -> {body}) ()") == ListType(NAT)


@pytest.mark.parametrize("src, shape, path", [
    ("let n = 3 in n ()", "a function type", "fn"),
    ("let (p, q) = 3 in return p", "a pair type", "split"),
    ("case 3 {inl a -> return a; inr b -> return b}", "a sum type", "case"),
    ("case 3 {[] -> return 0; h :: tl -> return h}", "a list type", "case"),
    ("!3", "a reference type", "deref"),
    ("3 := 4", "a reference type", "assign"),
])
def test_wrong_shaped_operand_names_the_kind_of_type(src, shape, path):
    # no stand-in type such as Unit -> Unit or Bool that the program never wrote
    with pytest.raises(TypeCheckError) as err:
        ty_of(src)
    assert err.value.msg == f"type mismatch: expected {shape}, got Nat"
    assert err.value.path[-1] == path

import json

import pytest
from hypothesis import given, settings

from entlogic.formulas import Binary, Conn, NegAtom, PosAtom, dual, ent, qubit_of
from entlogic.kernel import LogicConfig, Sequent, check_proof
from entlogic.search import prove
from entlogic.syntax import (
    ParseError,
    parse_formula,
    parse_sequent,
    print_formula,
    print_proof,
    print_sequent,
    proof_from_json,
    proof_to_dict,
    to_json,
)
from strategies import formulas, sequents

A, B = PosAtom("A"), PosAtom("B")
NA, NB = NegAtom("A"), NegAtom("B")


def test_parse_ent_of_qubits():
    assert parse_formula("Q(A) @ Q(B)") == ent(qubit_of("A"), qubit_of("B"))


def test_parse_expansion_form():
    got = parse_formula("(A par B) & (~A par ~B)")
    assert got == Binary(Conn.WITH, Binary(Conn.PAR, A, B), Binary(Conn.PAR, NA, NB))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("A & | B")
    assert err.value.span.start == 4
    assert err.value.expected


def test_tilde_on_atom_and_compound():
    assert parse_formula("~A") == NA
    assert parse_formula("~(A & B)") == dual(Binary(Conn.WITH, A, B))
    assert parse_formula("~Q(A)") == dual(qubit_of("A"))


def test_qubit_sugar_only_with_parens():
    assert parse_formula("Q") == PosAtom("Q")
    assert parse_formula("Q(A)") == qubit_of("A")


def test_ent_operands_must_be_qubit_shaped():
    with pytest.raises(ParseError) as err:
        parse_formula("A @ Q(B)")
    assert err.value.span.start == 0
    with pytest.raises(ParseError):
        parse_formula("Q(A) $ (A & B)")
    # the dual qubit shape is fine on either side
    parse_formula("(~A | A) @ Q(B)")


def test_chained_operators_rejected():
    with pytest.raises(ParseError):
        parse_formula("A & B & C")
    assert parse_formula("A & (B & C)") == Binary(Conn.WITH, A, Binary(Conn.WITH, B, PosAtom("C")))


def test_parse_sequent_counts():
    s = parse_sequent("Q(A) |- Q(A), Q(A)")
    assert len(s.antecedent) == 1
    assert len(s.succedent) == 2


def test_parse_sequent_empty_sides():
    s = parse_sequent("|- A")
    assert s.antecedent == ()
    assert s.succedent == (A,)
    t = parse_sequent("A |-")
    assert t.succedent == ()
    u = parse_sequent("|-")
    assert u.antecedent == () and u.succedent == ()


def test_parse_sequent_requires_single_turnstile():
    with pytest.raises(ParseError):
        parse_sequent("A |- A |- A")
    with pytest.raises(ParseError):
        parse_sequent("A, B")


def test_print_ent_uses_qubit_sugar():
    assert print_formula(ent(qubit_of("A"), qubit_of("B"))) == "Q(A) @ Q(B)"


def test_print_expansion_form():
    f = Binary(Conn.WITH, Binary(Conn.PAR, A, B), Binary(Conn.PAR, NA, NB))
    assert print_formula(f) == "(A par B) & (~A par ~B)"


def test_print_sequent_layout():
    assert print_sequent(Sequent.of((A,), (A,))) == "A |- A"
    assert print_sequent(Sequent.of((), (A,))) == "|- A"
    assert print_sequent(Sequent.of((A,), ())) == "A |-"


@settings(max_examples=1000, deadline=None)
@given(formulas())
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=300, deadline=None)
@given(sequents())
def test_sequent_round_trip(s):
    assert parse_sequent(print_sequent(s)) == s


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_printing_deterministic(f):
    assert print_formula(f) == print_formula(f)


def _axiom_tree():
    cfg = LogicConfig.preset("basic")
    result = prove(parse_sequent("A |- A"), cfg)
    return result.proof, cfg


def test_print_proof_text_single_axiom():
    tree, _ = _axiom_tree()
    assert print_proof(tree, "text") == "A |- A   [axiom]"


def test_print_proof_text_root_last(golden_proofs):
    tree, _ = golden_proofs[0]
    lines = print_proof(tree, "text").splitlines()
    assert lines[-1].startswith("Q(A) |- Q(A) @ Q(A)")
    assert lines[0].lstrip().startswith("A |- A")


def test_print_proof_latex(golden_proofs):
    tree, _ = golden_proofs[0]
    out = print_proof(tree, "latex")
    assert out.startswith(r"\begin{prooftree}")
    assert out.endswith(r"\end{prooftree}")
    assert r"\RightLabel{$\mathit{@-form}$}" in out
    assert r"Q_{A}" in out
    assert r"\vdash" in out


def test_print_proof_json_round_trip(golden_proofs):
    for tree, cfg in golden_proofs:
        blob = print_proof(tree, "json")
        rebuilt = proof_from_json(blob)
        verdict = check_proof(rebuilt, cfg)
        assert verdict, f"{verdict.reason} at {verdict.path}"
        assert json.loads(blob)["rule"] == tree.node.rule
        assert blob == json.dumps(proof_to_dict(tree), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), "x", None, 2.5, [[{}], ()], {"b": [1, True], "a": {"é\"\\": None, "": [[]]}}],
)
def test_to_json_writes_what_the_standard_encoder_writes(obj):
    assert to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_print_proof_unknown_format(golden_proofs):
    tree, _ = golden_proofs[0]
    with pytest.raises(ValueError):
        print_proof(tree, "html")

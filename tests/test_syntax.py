import copy
import json
import pickle
import re
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from entlogic.formulas import Binary, Conn, NegAtom, PosAtom, ShapeError, dual, ent, is_literal, qubit_of
from entlogic.kernel import LogicConfig, Sequent, check_proof
from entlogic.search import prove
from entlogic import syntax
from entlogic.syntax import (
    ParseError,
    formula_to_latex,
    parse_formula,
    parse_sequent,
    print_formula,
    print_proof,
    print_sequent,
    proof_from_dict,
    proof_from_json,
    proof_to_dict,
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


def test_a_text_that_parses_builds_no_source_span(monkeypatch):
    def no_span(start, end):
        raise AssertionError(f"span {start}..{end} built")

    monkeypatch.setattr(syntax, "SourceSpan", no_span)
    parse_sequent("~(A & B), Q(A) @ ~Q(B) |- (C par ~D) * E, ~(Q(A) $ Q(B))")
    with pytest.raises(AssertionError, match="span 3..3"):
        parse_formula("A &")


def test_an_error_after_leading_whitespace_spans_its_token():
    with pytest.raises(ParseError) as err:
        parse_formula("   #")
    assert (err.value.span.start, err.value.span.end) == (3, 4)
    assert err.value.message == "unexpected character '#'"


# Whitespace the tokenizer skips: \s in a str pattern is Unicode whitespace.
_WHITESPACE = " \t\n\r\f\v\u00a0\u2003"


@settings(max_examples=300, deadline=None)
@given(sequents(), st.data())
def test_whitespace_between_tokens_is_insignificant(s, data):
    # the printed text's tokens, split without the module's own tokenizer
    tokens = re.findall(r"\|-|\w+|\S", print_sequent(s))
    runs = data.draw(st.lists(st.text(_WHITESPACE, max_size=3), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = ""
    for prev, tok, run in zip([""] + tokens, tokens, runs):
        # two words with nothing between them would read as one
        text += (run or " " * bool(re.fullmatch(r"\w\w", prev[-1:] + tok[0]))) + tok
    assert parse_sequent(text + runs[-1]) == s


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


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_printed_text_is_cached_on_the_printed_term_only(f):
    uncached = syntax._render(f, *syntax._TEXT)
    subterms = [g for g in (getattr(f, "left", None), getattr(f, "right", None)) if g is not None]
    bare = [g for g in subterms if not hasattr(g, "text")]
    shown, latex = repr(f), formula_to_latex(f)
    assert print_formula(f) == uncached
    assert f.text == uncached and print_formula(f) is f.text
    assert str(f) == uncached
    assert not any(hasattr(g, "text") for g in bare)
    assert repr(f) == shown and formula_to_latex(f) == latex
    with pytest.raises(FrozenInstanceError):
        f.text = "x"
    with pytest.raises(FrozenInstanceError):
        del f.text
    for roundtrip in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
        assert roundtrip(f) is f
    assert print_formula(f) == uncached


def test_printing_a_deep_chain_caches_no_subterm_text():
    # a cache on every subterm of a 5,000-deep chain would hold about 75 MB
    f = A
    for _ in range(5000):
        f = Binary(Conn.WITH, f, NB)
    text = print_formula(f)
    assert not hasattr(f.left, "text")
    assert print_formula(f) is text
    assert len(text) == len(syntax._render(f, *syntax._TEXT))


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
        assert print_proof(rebuilt, "text") == print_proof(tree, "text")
        table = json.loads(blob)
        assert table["nodes"][table["root"]][1] == tree.node.rule
        assert blob == json.dumps(proof_to_dict(tree), indent=2, sort_keys=True)


def test_a_shared_subproof_is_one_node_row():
    # the memo hands both &R premises the same subproof, at two levels
    tree = prove(parse_sequent("A |- (A & A) & (A & A)"), LogicConfig.preset("basic")).proof
    table = proof_to_dict(tree)
    assert len(table["nodes"]) == 3 < sum(1 for _ in tree.iter_nodes()) == 7
    rebuilt = proof_from_json(print_proof(tree, "json"))
    assert rebuilt.children[0] is rebuilt.children[1]
    assert print_proof(rebuilt, "text") == print_proof(tree, "text")


def test_proof_tables_list_the_subproofs_in_premise_order(golden_proofs):
    # each distinct node once, after its subproofs, the first premise's first
    def post_order(tree, order):
        for child in tree.children:
            post_order(child, order)
        if tree not in order:
            order.append(tree)
        return order

    for tree, _ in golden_proofs:
        order = post_order(tree, [])
        nodes = proof_to_dict(tree)["nodes"]
        assert [(rule, premises) for _, rule, premises in nodes] == [
            (t.node.rule, [order.index(c) for c in t.children]) for t in order
        ]


# A |- A & A by &R over one shared axiom, then one edit per case
_TABLE = {
    "version": 2,
    "formulas": ["A", ["&", 0, 0]],
    "sequents": [[[0], [0]], [[0], [1]]],
    "nodes": [[0, "axiom", []], [1, "&R", [0, 0]]],
    "root": 1,
}


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"version": None}, "proof version"),
        ({"version": 1}, "proof version"),
        ({"formulas": ["A", ["&", 0, 1]]}, r"proof formulas row 1: index 1 is not in range\(1\)"),
        ({"formulas": ["A", ["&", 0, -1]]}, r"proof formulas row 1: index -1 is not in range\(1\)"),
        ({"formulas": ["A", ["xor", 0, 0]]}, "proof formulas row 1: unknown connective 'xor'"),
        ({"formulas": ["a", ["&", 0, 0]]}, "proof formulas row 0: 'a' is not a literal"),
        ({"formulas": ["A", ["&", 0]]}, "proof formulas row 1: expected a literal or"),
        ({"sequents": [[[0], [0]], [[0], [2]]]}, r"proof sequents row 1: index 2 is not in range\(2\)"),
        ({"sequents": [[[0], [0]], [[0]]]}, "proof sequents row 1: expected"),
        ({"nodes": [[0, "axiom", []], [1, "&R", [0, 1]]]}, r"proof nodes row 1: index 1 is not in range\(1\)"),
        ({"nodes": [[0, "axiom", []], [2, "&R", [0, 0]]]}, r"proof nodes row 1: index 2 is not in range\(2\)"),
        ({"nodes": [[0, "axiom"], [1, "&R", [0, 0]]]}, "proof nodes row 0: expected"),
        ({"nodes": {}}, "expected a list of nodes"),
        ({"root": -1}, r"proof root -1 is not in range\(2\)"),
        ({"root": True}, "proof root True"),
        ({"nodes": [[0, 1, []], [1, "&R", [0, 0]]]}, "proof nodes row 0: rule 1 is not a string"),
    ],
)
def test_proof_from_dict_rejects_a_malformed_table(edit, message):
    assert check_proof(proof_from_dict(_TABLE), LogicConfig.preset("basic"))
    with pytest.raises(ValueError, match=message):
        proof_from_dict({**_TABLE, **edit})


def test_proof_from_dict_rejects_a_bad_entanglement_operand():
    with pytest.raises(ShapeError, match="proof formulas row 1"):
        proof_from_dict({**_TABLE, "formulas": ["A", ["@", 0, 0]]})


def test_print_proof_unknown_format(golden_proofs):
    tree, _ = golden_proofs[0]
    with pytest.raises(ValueError):
        print_proof(tree, "html")

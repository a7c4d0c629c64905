"""Byte-level pins on proof rendering and rule enumeration order.

``golden_proofs.txt`` holds ``print_proof(tree, "text")`` for every golden
derivation followed by its mechanical dual, separated by blank lines; the 28
trees use all 19 rules.  The enumeration pins fix the rule-name sequence that
``rule_instances`` returns for one small sequent per rule kind.
"""

from pathlib import Path

import pytest

from entlogic.kernel import ALL_RULES, dualize_proof, rule_instances
from entlogic.syntax import parse_sequent, print_proof

import conftest

GOLDEN_TEXT = Path(__file__).with_name("golden_proofs.txt")


def test_golden_proofs_and_duals_render_byte_identically(golden_proofs):
    rendered, used = [], set()
    for tree, _ in golden_proofs:
        for t in (tree, dualize_proof(tree)):
            rendered.append(print_proof(t, "text"))
            used.update(n.node.rule for n in t.iter_nodes())
    assert len(rendered) == 28
    assert "\n\n".join(rendered) + "\n" == GOLDEN_TEXT.read_text()
    assert used == set(ALL_RULES)


@pytest.mark.parametrize(
    "text, cfg_name, expected",
    [
        ("A |- A", "CLASSICAL", ["axiom", "weak-L", "weak-R", "contr-L", "contr-R"]),
        ("A, B |- A", "WEAK_ONLY", ["weak-L", "weak-L", "weak-R"]),
        ("A, B |- A", "CONTR_ONLY", ["contr-L", "contr-L", "contr-R"]),
        ("A & B |- A | B", "BASIC", ["&L1", "&L2", "|R1", "|R2"]),
        ("A * B, C |- A par B", "BASIC", ["*L", "parR"]),
        ("Q(A) $ Q(A) |- Q(A) @ Q(A)", "BASIC", ["@-form", "$-form"]),
        ("A | B |- A & B", "BASIC", ["&R", "|L"]),
        ("A par B |- C * D, E", "BASIC", ["*R"] * 4 + ["parL"] * 4),
        ("Q(A) @ Q(A), A |- Q(A) $ Q(A)", "BASIC", ["@-explrefl"] * 4 + ["$-explrefl"] * 4),
    ],
)
def test_rule_instance_order_per_kind(text, cfg_name, expected):
    instances = rule_instances(parse_sequent(text), getattr(conftest, cfg_name))
    assert [i.rule for i in instances] == expected

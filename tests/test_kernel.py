import pytest
from hypothesis import given, settings

from entlogic.formulas import NegAtom, PosAtom
from entlogic.kernel import (
    PRESETS,
    LogicConfig,
    ProofTree,
    RuleInstance,
    Sequent,
    axiom_check,
    check_proof,
    dual_sequent,
    dualize_proof,
    rule_instances,
)
from entlogic.search import prove
from entlogic.syntax import parse_formula, parse_sequent, print_proof, proof_from_dict, proof_to_dict
from strategies import sequents

from conftest import BASIC, CLASSICAL

A, NA = PosAtom("A"), NegAtom("A")


def seq(text):
    return parse_sequent(text)


def test_axiom_literal_identity():
    assert axiom_check(seq("A |- A"))
    assert axiom_check(seq("~A |- ~A"))
    assert not axiom_check(seq("A |- ~A"))
    assert not axiom_check(seq("Q(A) |- Q(A)"))
    assert not axiom_check(seq("A, A |- A"))


def test_compound_identity_is_derivable_not_axiomatic():
    result = prove(seq("Q(A) |- Q(A)"), BASIC)
    assert result.is_provable
    assert result.proof.node.rule != "axiom"


def test_sequent_multiset_semantics():
    assert seq("A, B |- C") == seq("B, A |- C")
    assert seq("A, A |- B") != seq("A |- B")
    assert hash(seq("A, B |-")) == hash(seq("B, A |-"))


def test_rule_instances_ent_formation():
    instances = rule_instances(seq("Q(A) |- Q(A)@Q(A)"), BASIC)
    forms = [i for i in instances if i.rule == "@-form"]
    assert len(forms) == 1
    assert forms[0].premises == (seq("Q(A) |- Q(A), Q(A)"),)


def test_rule_instances_structural_only_when_enabled():
    target = seq("Q(A) |- Q(A)")
    basic_rules = {i.rule for i in rule_instances(target, BASIC)}
    assert "weak-R" not in basic_rules and "contr-L" not in basic_rules
    classical = rule_instances(target, CLASSICAL)
    weak_r = [i for i in classical if i.rule == "weak-R"]
    assert any(i.premises == (seq("Q(A) |-"),) for i in weak_r)


def test_rule_instances_axiom_first_splitting_last():
    instances = list(rule_instances(seq("A |- A"), CLASSICAL))
    assert instances[0].rule == "axiom"
    order = [i.rule for i in rule_instances(seq("A & B |- A * A"), BASIC)]
    split_rules = {"*R", "parL", "@-explrefl", "$-explrefl"}
    assert "&L1" in order and "*R" in order
    first_split = next(i for i, r in enumerate(order) if r in split_rules)
    assert all(r in split_rules for r in order[first_split:])


def test_context_split_enumeration_counts():
    # one context formula on each side: 2 x 2 splits for the *R instance
    instances = rule_instances(seq("B, A * A |- C"), BASIC)
    # *R needs the times formula on the right; here it is on the left: *L only
    assert [i.rule for i in instances] == ["*L"]
    instances = rule_instances(seq("B |- C, A * A"), BASIC)
    times_r = [i for i in instances if i.rule == "*R"]
    assert len(times_r) == 4


def test_explrefl_even_split_instance():
    # the reflection rule applied to two identity premises
    conclusion = seq("Q(A)@Q(A) |- Q(A), Q(A)")
    instances = rule_instances(conclusion, BASIC)
    wanted = [
        i
        for i in instances
        if i.rule == "@-explrefl" and i.premises == (seq("Q(A) |- Q(A)"), seq("Q(A) |- Q(A)"))
    ]
    assert len(wanted) == 1


@settings(max_examples=300, deadline=None)
@given(sequents(max_per_side=2, max_depth=2))
def test_premise_measure_decreases_without_structural_rules(s):
    total = s.size()
    for inst in rule_instances(s, BASIC):
        for premise in inst.premises:
            assert premise.size() < total


def test_check_proof_accepts_goldens(golden_proofs):
    for tree, cfg in golden_proofs:
        verdict = check_proof(tree, cfg)
        assert verdict, f"{verdict.reason} at {verdict.path}"


def test_check_proof_rejects_weakening_under_basic(golden_proofs):
    classical_tree = golden_proofs[0][0]  # ends in @-form over weak-R
    verdict = check_proof(classical_tree, BASIC)
    assert not verdict
    assert "weak-R" in verdict.reason
    assert verdict.path == (0,)


def test_check_proof_rejects_corrupted_premise(golden_proofs):
    tree, cfg = golden_proofs[0]
    inst = tree.node
    corrupted = ProofTree(
        RuleInstance(inst.rule, inst.conclusion, (seq("Q(A) |- Q(A)"),), inst.principal),
        tree.children,
    )
    assert not check_proof(corrupted, cfg)


def test_check_proof_rejects_wrong_principal(golden_proofs):
    tree, cfg = golden_proofs[0]
    inst = tree.node
    relabeled = ProofTree(
        RuleInstance(inst.rule, inst.conclusion, inst.premises, parse_formula("Q(B)")),
        tree.children,
    )
    assert not check_proof(relabeled, cfg)


def test_dual_sequent_swaps_and_dualizes():
    s = seq("A, B |- C")
    d = dual_sequent(s)
    assert d == Sequent.of((NegAtom("C"),), (NegAtom("A"), NegAtom("B")))
    assert dual_sequent(d) == s


def test_dualized_goldens_check(golden_proofs):
    for tree, cfg in golden_proofs:
        mirrored = dualize_proof(tree)
        assert mirrored.conclusion == dual_sequent(tree.conclusion)
        verdict = check_proof(mirrored, cfg)
        assert verdict, f"dual of {tree.node.rule}: {verdict.reason} at {verdict.path}"


def test_dualize_swaps_rule_labels(golden_proofs):
    tree, _ = golden_proofs[0]
    labels = {n.node.rule for n in dualize_proof(tree).iter_nodes()}
    assert "$-form" in labels and "weak-L" in labels


def test_logic_config_presets():
    basic = LogicConfig.preset("basic")
    linear = LogicConfig.preset("linear")
    classical = LogicConfig.preset("classical")
    assert not basic.weakening and not basic.contraction and basic.allow_ent
    assert not linear.allow_ent
    assert classical.weakening and classical.contraction
    for name in PRESETS:
        assert LogicConfig.preset(name, at_mode="primitive").describe() == name
    assert LogicConfig(weakening=True).describe() == "weakening+no-contraction"
    with pytest.raises(ValueError):
        LogicConfig.preset("fuzzy")
    with pytest.raises(ValueError):
        LogicConfig(at_mode="lazy")


def test_proof_walkers_keep_their_own_stack_on_a_tall_proof():
    # A |- A by contr-L and weak-L in turn above an axiom, 5,001 nodes tall:
    # far beyond the interpreter's recursion limit, and no step goes through
    # the json module, which itself recurses per nesting level
    one, two = Sequent.of((A,), (A,)), Sequent.of((A, A), (A,))
    weaken, contract = RuleInstance("weak-L", two, (one,), A), RuleInstance("contr-L", one, (two,), A)
    tree = ProofTree(RuleInstance("axiom", one, (), A))
    for i in range(5000):
        tree = ProofTree(contract if i % 2 else weaken, (tree,))
    assert tree.conclusion == one and tree.node.rule == "contr-L"
    assert check_proof(tree, CLASSICAL)
    assert tree.height() == 5001
    assert sum(1 for _ in tree.iter_nodes()) == 5001
    assert check_proof(dualize_proof(tree), CLASSICAL)
    assert len(print_proof(tree, "text").splitlines()) == 5001
    assert len(print_proof(tree, "latex").splitlines()) == 10005
    assert check_proof(proof_from_dict(proof_to_dict(tree)), CLASSICAL)

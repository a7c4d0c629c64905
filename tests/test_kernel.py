import copy
import json
import pickle
import time

import pytest
from hypothesis import given, settings

from entlogic.formulas import Binary, Conn, NegAtom, PosAtom
from entlogic.kernel import (
    AXIOM,
    BOTH,
    BRANCH,
    CONTRACT,
    LEFT,
    PICK_LEFT,
    PICK_RIGHT,
    PRESETS,
    RULE_ORDER,
    RULES,
    SPLIT,
    WEAKEN,
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

from conftest import BASIC, CLASSICAL, CONTR_ONLY, WEAK_ONLY

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


# What each premise's active side holds in place of the principal formula f,
# per rule kind, as the calculus states it.
_REFERENCE_REPLACEMENTS = {
    WEAKEN: lambda f: [()],
    CONTRACT: lambda f: [(f, f)],
    PICK_LEFT: lambda f: [(f.left,)],
    PICK_RIGHT: lambda f: [(f.right,)],
    BOTH: lambda f: [(f.left, f.right)],
    BRANCH: lambda f: [(f.left,), (f.right,)],
}


def _reference_instances(s, cfg):
    """(rule, principal, premises, splits) from the RULES rows alone: each
    enabled row in RULE_ORDER, then each distinct formula on the row's side,
    in side order, whose connective matches.  A context-splitting row gives
    no premises but its number of splits, one per way to share out each
    context formula's copies."""
    out = []
    for name in RULE_ORDER:
        row = RULES[name]
        if not cfg.rule_enabled(name):
            continue
        if row.kind == AXIOM:
            if axiom_check(s):
                out.append((name, s.antecedent[0], (), None))
            continue
        active, passive = (s.antecedent, s.succedent) if row.side == LEFT else (s.succedent, s.antecedent)
        for f in dict.fromkeys(active):
            if row.conn is not None and not (isinstance(f, Binary) and f.conn is row.conn):
                continue
            rest = list(active)
            rest.remove(f)
            if row.kind == SPLIT:
                splits = 1
                for context in (rest, passive):
                    for g in set(context):
                        splits *= context.count(g) + 1
                out.append((name, f, None, splits))
                continue
            premises = []
            for new in _REFERENCE_REPLACEMENTS[row.kind](f):
                sides = (rest + list(new), passive)
                premises.append(Sequent.of(*(sides if row.side == LEFT else reversed(sides))))
            out.append((name, f, tuple(premises), None))
    return out


@settings(max_examples=200, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_rule_instances_follow_the_rule_table_order(s):
    for cfg in (BASIC, WEAK_ONLY, CONTR_ONLY, CLASSICAL):
        for prune in (None, lambda: None):
            # consecutive instances with one (rule, principal) are one row
            # entry: the splits of a context-splitting rule
            groups = []
            for inst in rule_instances(s, cfg, prune):
                if groups and groups[-1][0] == (inst.rule, inst.principal):
                    groups[-1][1].append(inst.premises)
                else:
                    groups.append(((inst.rule, inst.principal), [inst.premises]))
            j = 0
            for name, f, premises, splits in _reference_instances(s, cfg):
                here = j < len(groups) and groups[j][0] == (name, f)
                if premises is not None:
                    assert here and groups[j][1] == [premises]
                elif here:  # with prune, the splits with a refuted premise are left out
                    assert len(groups[j][1]) == splits or (prune is not None and len(groups[j][1]) < splits)
                else:
                    assert prune is not None
                    continue
                j += 1
            assert j == len(groups)


@settings(max_examples=200, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_every_premise_is_canonical(s):
    # premises are built by count arithmetic and the splits by adding each
    # formula after the ones that sort before it, so each must equal the
    # sequent built from its formulas by sorting
    for cfg in (BASIC, WEAK_ONLY, CONTR_ONLY, CLASSICAL):
        for prune in (None, lambda: None):
            for inst in rule_instances(s, cfg, prune):
                for p in inst.premises:
                    canonical = Sequent(p.antecedent, p.succedent)
                    assert p.ante_counts == canonical.ante_counts
                    assert p.succ_counts == canonical.succ_counts
                    assert hash(p) == hash(canonical)


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


def test_shared_subproofs_are_checked_and_written_once():
    # F(k+1) = Fk & Fk: every &R node has one subproof as both premises, so
    # 41 distinct nodes stand for 2^40 occurrences.  The search's own
    # re-check, the writer, the reader and the checker each walk the 41.
    f = A
    for _ in range(40):
        f = Binary(Conn.WITH, f, f)
    start = time.perf_counter()
    tree = prove(Sequent.of((A,), (f,)), BASIC).proof
    table = json.loads(print_proof(tree, "json"))
    assert len(table["nodes"]) == tree.height() == 41
    assert check_proof(proof_from_dict(table), BASIC)
    assert time.perf_counter() - start < 1.0


def test_dual_of_a_shared_proof_stays_shared():
    # A |- F14: 15 distinct nodes stand for 2^15 - 1 occurrences
    f = A
    for _ in range(14):
        f = Binary(Conn.WITH, f, f)
    tree = prove(Sequent.of((A,), (f,)), BASIC).proof
    mirrored = dualize_proof(tree)
    assert len(set(tree.iter_nodes())) == len(set(mirrored.iter_nodes())) == 15
    assert mirrored.conclusion == dual_sequent(tree.conclusion)
    assert check_proof(mirrored, BASIC)


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))], ids=["deepcopy", "pickle"])
def test_tall_and_shared_proofs_survive_pickle_and_deepcopy(roundtrip):
    # the proof is one flat table of its distinct formulas, sequents and
    # nodes: no recursion per level, and a shared subproof stays shared
    tall = _chain()
    twin = roundtrip(tall)
    assert twin.height() == 2001 and check_proof(twin, BASIC)
    assert [n.node for n in twin.iter_nodes()] == [n.node for n in tall.iter_nodes()]
    f = A
    for _ in range(14):
        f = Binary(Conn.WITH, f, f)
    shared = prove(Sequent.of((A,), (f,)), BASIC).proof
    twin = roundtrip(shared)
    assert twin is not shared and len(set(twin.iter_nodes())) == 15
    assert check_proof(twin, BASIC) and print_proof(twin, "json") == print_proof(shared, "json")


def test_a_shared_subproof_is_compared_with_each_premise_it_stands_for():
    axiom = ProofTree(RuleInstance("axiom", seq("A |- A"), (), A))
    bad = ProofTree(RuleInstance("&R", seq("A |- A & B"), (seq("A |- A"), seq("A |- B"))), (axiom, axiom))
    verdict = check_proof(bad, BASIC)
    assert not verdict and verdict.path == (1,)
    assert verdict.reason == "child conclusion differs from premise"


@pytest.mark.parametrize(
    "tree, reason",
    [
        (ProofTree(RuleInstance("foo", seq("A |- A"), (), A)), "unknown rule 'foo'"),
        (ProofTree(RuleInstance("axiom", seq("A, A |- A, A"), (), A)), "axiom must be a literal identity"),
        (
            ProofTree(RuleInstance("&L1", seq("A & B |- A"), (seq("A |- A"),), parse_formula("A & B"))),
            "children do not match premises",
        ),
    ],
    ids=["unknown-rule", "axiom-not-identity", "missing-child"],
)
def test_check_proof_names_the_fault_of_a_bad_root(tree, reason):
    verdict = check_proof(tree, BASIC)
    assert not verdict and verdict.path == ()
    assert verdict.reason == reason


def _chain() -> ProofTree:
    """The 2,001-level &L1 chain proof of (...((A & A) & A)... & A) |- A."""
    tree = ProofTree(RuleInstance("axiom", Sequent.of((A,), (A,)), (), A))
    for _ in range(2000):
        f = Binary(Conn.WITH, tree.conclusion.antecedent[0], A)
        tree = ProofTree(RuleInstance("&L1", Sequent.of((f,), (A,)), (tree.conclusion,), f), (tree,))
    return tree


def test_proof_tree_equality_hash_and_repr_do_not_recurse():
    # equality and hashing are identity, as for interned formulas
    tree, twin = _chain(), _chain()
    assert tree.height() == 2001 and check_proof(tree, BASIC)
    assert tree == tree and tree != twin
    assert hash(tree) == hash(tree) and len({tree, twin}) == 2
    assert repr(tree).startswith("<entlogic.kernel.ProofTree object at ")

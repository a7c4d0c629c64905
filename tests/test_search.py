import pytest
from hypothesis import given, settings

from entlogic.formulas import Conn, PosAtom, qubit_of
from entlogic.kernel import LogicConfig, check_proof, literal_refuted, rule_instances
from entlogic.search import (
    GoalRejectedError,
    SearchLimits,
    clear_memo,
    decide_equivalence,
    decide_idempotence,
    expand_sequent,
    prove,
)
from entlogic.syntax import parse_formula, parse_sequent
from strategies import sequents

import oracle
from conftest import BASIC, BASIC_EXPAND, CLASSICAL, CONTR_ONLY, LINEAR, WEAK_ONLY


def seq(text):
    return parse_sequent(text)


def rules_of(tree):
    return [n.node.rule for n in tree.iter_nodes()]


# ---------------------------------------------------------------------------
# flagship non-provability and provability


@pytest.mark.parametrize("cfg", [BASIC, BASIC_EXPAND])
@pytest.mark.parametrize("text", ["Q(A)@Q(A) |- Q(A)", "Q(A) |- Q(A)@Q(A)"])
def test_self_entanglement_not_provable_in_basic(cfg, text):
    result = prove(seq(text), cfg)
    assert result.is_not_provable
    assert result.limit_hit is None


def test_formation_then_weakening_proof_shape():
    result = prove(seq("Q(A) |- Q(A)@Q(A)"), CLASSICAL)
    assert result.is_provable
    root = result.proof
    assert root.node.rule == "@-form"
    assert "weak-R" in rules_of(root.children[0])


def test_reflection_then_contraction_proof_shape():
    result = prove(seq("Q(A)@Q(A) |- Q(A)"), CLASSICAL)
    assert result.is_provable
    root = result.proof
    assert root.node.rule == "contr-R"
    assert root.children[0].node.rule == "@-explrefl"


def test_weakening_alone_discharges_extra_antecedent():
    assert prove(seq("A, B |- A"), BASIC).is_not_provable
    result = prove(seq("A, B |- A"), CLASSICAL)
    assert result.is_provable
    assert "weak-L" in rules_of(result.proof)


def test_provable_results_pass_checker():
    for text, cfg in [
        ("Q(A) |- Q(A)", BASIC),
        ("Q(A) |- Q(A)@Q(A)", CLASSICAL),
        ("A par A |- A", CONTR_ONLY),
    ]:
        result = prove(seq(text), cfg)
        assert result.is_provable
        assert check_proof(result.proof, cfg)


# ---------------------------------------------------------------------------
# limits


def test_node_limit_reports_unknown_not_notprovable():
    limits = SearchLimits(max_nodes=3)
    result = prove(seq("Q(A) |- Q(A)@Q(A)"), CLASSICAL, limits)
    assert result.is_unknown
    assert result.limit_hit == "nodes"


def test_depth_limit_reports_unknown():
    limits = SearchLimits(max_depth=2)
    result = prove(seq("Q(A) |- Q(A)@Q(A)"), CLASSICAL, limits)
    assert result.is_unknown
    assert result.limit_hit == "depth"


def test_depth_cut_tries_the_next_instance():
    # &L1 runs 100 levels down and is cut at max_depth 64; &L2 still proves it
    text = "A"
    for _ in range(99):
        text = f"({text} & A)"
    result = prove(seq(text + " |- A"), BASIC)
    assert result.is_provable
    assert result.limit_hit is None


def test_depth_cut_without_proof_is_unknown():
    clear_memo()  # a memoized proof from an earlier call would bypass the cut
    result = prove(seq("A * B |- A * B"), BASIC, SearchLimits(max_depth=2))
    assert result.is_unknown
    assert result.limit_hit == "depth"


def test_depth_limit_ignores_memoized_taller_proof():
    # a full search first stores a height-3 proof; the depth-2 search that
    # follows must not return it, so the verdict does not depend on history
    goal = seq("A * B |- A * B")
    full = prove(goal, BASIC)
    assert full.is_provable and full.proof.height() == 3
    result = prove(goal, BASIC, SearchLimits(max_depth=2))
    assert result.is_unknown
    assert result.limit_hit == "depth"
    assert prove(goal, BASIC).proof == full.proof


def test_shorter_proof_under_tighter_limit_does_not_replace_stored_one():
    # the depth-2 call finds a shorter proof than the stored one; a later
    # unlimited call still returns the proof a fresh process would
    text = "A"
    for _ in range(99):
        text = f"({text} & A)"
    goal = seq(text + " |- A")
    clear_memo()
    first = prove(goal, BASIC).proof
    assert prove(goal, BASIC, SearchLimits(max_depth=2)).proof.height() == 2
    assert prove(goal, BASIC).proof == first
    assert first.height() > 2


@pytest.mark.parametrize("cfg", [BASIC, CLASSICAL])
def test_search_counters_are_deterministic(cfg):
    goal = seq("Q(A)@Q(A) |- Q(A), Q(A)")
    runs = []
    for _ in range(2):
        clear_memo()
        runs.append(prove(goal, cfg).stats)
    assert runs[0] == runs[1]
    assert runs[0].instances >= runs[0].nodes_expanded > 0


def test_search_counters_count_memo_hits_and_cuts():
    clear_memo()
    goal = seq("A * B |- A * B")
    assert prove(goal, BASIC, SearchLimits(max_depth=2)).stats.cuts > 0
    assert prove(goal, BASIC).stats.cuts == 0
    again = prove(goal, BASIC).stats
    assert (again.nodes_expanded, again.memo_hits) == (0, 1)


def test_unprovable_with_contraction_is_unknown_under_limits():
    # the contraction-enabled space for this goal is infinite; the engine
    # must come back Unknown rather than claim exhaustion
    limits = SearchLimits(max_depth=6, max_nodes=50_000)
    result = prove(seq("A |- A par A"), CONTR_ONLY, limits)
    assert result.is_unknown


def test_contraction_engine_can_exhaust_finite_spaces():
    # the empty sequent offers no rule applications at all, so even the
    # contraction-enabled engine can certify exhaustion
    result = prove(seq("|-"), CONTR_ONLY)
    assert result.is_not_provable


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        SearchLimits(max_depth=0)
    with pytest.raises(ValueError):
        SearchLimits(max_nodes=-1)


def test_linear_rejects_entanglement_goals():
    with pytest.raises(GoalRejectedError):
        prove(seq("Q(A) |- Q(A)@Q(A)"), LINEAR)
    with pytest.raises(GoalRejectedError):
        decide_idempotence("@", LINEAR)


# ---------------------------------------------------------------------------
# expansion


def test_expand_sequent_removes_ent_nodes():
    s = seq("Q(A)@Q(A) |- Q(A)$Q(B)")
    e = expand_sequent(s)
    assert not e.contains_conn(Conn.ENT, Conn.SEC)
    assert e.antecedent[0] == parse_formula("(A par A) & (~A par ~A)")


def test_expand_mode_searches_expanded_goal():
    result = prove(seq("Q(A) |- Q(A)@Q(A)"), BASIC_EXPAND)
    assert result.goal == seq("Q(A) |- (A par A) & (~A par ~A)")


# ---------------------------------------------------------------------------
# equivalence


def test_par_expansion_not_equivalent_to_qubit_in_basic():
    eq = decide_equivalence(
        parse_formula("(A par A) & (~A par ~A)"), qubit_of("A"), BASIC
    )
    assert eq.verdict == "not_equivalent"
    assert eq.failing_directions == ("forward", "backward")


def test_collapsed_form_equivalent_in_classical():
    eq = decide_equivalence(
        parse_formula("(A | A) & (~A | ~A)"), qubit_of("A"), CLASSICAL
    )
    assert eq.verdict == "equivalent"


def test_identity_equivalence():
    eq = decide_equivalence(PosAtom("A"), PosAtom("A"), BASIC)
    assert eq.verdict == "equivalent"


# ---------------------------------------------------------------------------
# idempotence


def test_ent_not_idempotent_in_basic_both_modes():
    for cfg in (BASIC, BASIC_EXPAND):
        report = decide_idempotence("@", cfg)
        assert report.idempotent is False
        assert report.forward.is_not_provable and report.backward.is_not_provable


def test_with_idempotent_in_basic():
    report = decide_idempotence("&", BASIC)
    assert report.idempotent is True


def test_par_idempotent_in_classical():
    assert decide_idempotence("par", CLASSICAL).idempotent is True


def test_times_attribution_exchanged_against_par():
    par = decide_idempotence("par", BASIC)
    times = decide_idempotence("*", BASIC)
    assert par.forward_rescue == ("contraction",)
    assert par.backward_rescue == ("weakening",)
    assert times.forward_rescue == ("weakening",)
    assert times.backward_rescue == ("contraction",)


@pytest.mark.parametrize("at_mode", ["primitive", "expand"])
@pytest.mark.parametrize("preset", ["basic", "classical"])
def test_ent_and_sec_verdicts_match(preset, at_mode):
    cfg = LogicConfig.preset(preset, at_mode=at_mode)
    assert decide_idempotence("@", cfg).idempotent == decide_idempotence("$", cfg).idempotent


def test_ent_and_sec_both_rejected_under_linear():
    for conn in ("@", "$"):
        with pytest.raises(GoalRejectedError):
            decide_idempotence(conn, LINEAR)


def test_indeterminate_idempotence_reported_as_none():
    limits = SearchLimits(max_depth=2, max_nodes=50)
    report = decide_idempotence("@", CLASSICAL, limits)
    assert report.idempotent is None


# ---------------------------------------------------------------------------
# oracle agreement and monotonicity


@settings(max_examples=400, deadline=None)
@given(sequents(max_per_side=2, max_depth=2))
def test_prove_matches_bruteforce_oracle(s):
    engine = prove(s, BASIC).is_provable
    assert engine == oracle.provable(s)


@settings(max_examples=150, deadline=None)
@given(sequents(max_per_side=2, max_depth=1))
def test_basic_provability_is_monotoneized_by_classical(s):
    if prove(s, BASIC).is_provable:
        assert prove(s, CLASSICAL).is_provable


def test_weakening_only_is_terminating_and_definitive():
    result = prove(seq("A |- A par A"), WEAK_ONLY)
    assert result.is_provable
    result = prove(seq("A par A |- A"), WEAK_ONLY)
    assert result.is_not_provable


# ---------------------------------------------------------------------------
# prunings: literal refutation and the invertible-rule commit


@settings(max_examples=400, deadline=None)
@given(sequents(max_per_side=3, max_depth=1))
def test_literal_refutation_agrees_with_oracle(s):
    # the premises one step up include many provable sequents whose lone
    # literal meets its twin only inside a compound formula
    for goal in [s] + [p for inst in rule_instances(s, BASIC) for p in inst.premises]:
        if literal_refuted(goal):
            assert not oracle.provable(goal)


def test_literal_refutation_is_not_literal_counting():
    # A & B |- A drops B at &L1: a lone literal must occur, not be matched
    assert not literal_refuted(seq("A & B |- A"))
    assert prove(seq("A & B |- A"), BASIC).is_provable
    assert literal_refuted(seq("A & B |- C"))


@pytest.mark.parametrize("k", range(4, 13))
def test_wide_context_is_refuted_at_the_root(k):
    # an exhaustive search builds 2^(k+2) split instances here, though no Ci
    # can ever meet an axiom
    clear_memo()
    goal = seq("A par B, " + ", ".join(f"C{i}" for i in range(k)) + " |- D, E")
    result = prove(goal, BASIC)
    assert result.is_not_provable
    assert (result.stats.nodes_expanded, result.stats.instances, result.stats.refuted) == (1, 0, 1)


HEAVY = (
    "((~A & A) @ (~B | B)) * (~A par ~B), (A | ~A) @ (~A & A)"
    " |- (Q(A) @ (~B | B)) par ((~B | B) @ (~A & A)), (~B & B) $ (~B & B)"
)


@pytest.mark.parametrize("cfg, exhaustive_nodes", [(BASIC, 28_075), (BASIC_EXPAND, 12_031)])
def test_heavy_goal_prunes_below_the_exhaustive_search(cfg, exhaustive_nodes):
    # the slowest oracle-test goal of hypothesis seed 2; exhaustive_nodes is
    # what the search expands without the prunings
    clear_memo()
    result = prove(seq(HEAVY), cfg)
    assert result.is_not_provable and result.limit_hit is None
    assert result.stats.nodes_expanded < exhaustive_nodes
    assert result.stats.refuted > 0 and result.stats.committed > 0


@pytest.mark.parametrize("text", ["A |- B par A", "(A * B) & A |- A", "|- A & B, ~A par ~B"])
def test_invertible_commit_keeps_the_oracle_verdict(text):
    # parR, *L and &R each commit when a premise is refuted: the conclusion
    # is then unprovable, and a proof elsewhere in the goal is still found
    clear_memo()
    result = prove(seq(text), BASIC)
    assert result.stats.committed > 0
    assert result.is_provable == oracle.provable(seq(text))
    assert result.is_provable or result.limit_hit is None


def test_prunings_stay_off_where_they_do_not_hold():
    # weakening deletes lone literals, so only the commit applies there;
    # contraction keeps the search exactly as before
    clear_memo()
    weak = prove(seq("A, B |- A"), WEAK_ONLY)
    assert weak.is_provable and weak.stats.refuted == 0
    for cfg in (CONTR_ONLY, CLASSICAL):
        stats = prove(seq("A |- B par A"), cfg, SearchLimits(max_depth=4, max_nodes=2000)).stats
        assert (stats.refuted, stats.committed) == (0, 0)

import gc
import random
import time
import weakref
from functools import cache

import pytest
from hypothesis import given, settings

from entlogic import formulas, kernel, search
from entlogic.formulas import Binary, Conn, NegAtom, PosAtom, dual, fold, qubit_of
from entlogic.kernel import (
    RULES,
    SPLIT,
    HeightBound,
    Layouts,
    LogicConfig,
    Sequent,
    check_proof,
    countermodel,
    literal_refuted,
    rule_instances,
)
from entlogic.search import (
    GoalRejectedError,
    SearchLimits,
    clear_memo,
    decide_equivalence,
    decide_idempotence,
    expand_sequent,
    prove,
)
from entlogic.syntax import parse_formula, parse_sequent, print_proof
from strategies import sequents

import countermodels
import oracle
import strategies
from conftest import BASIC, BASIC_EXPAND, CLASSICAL, CONTR_ONLY, LINEAR, WEAK_ONLY
from test_acceptance import _enumerated_family
from test_golden import SEARCH_CONFIGS


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
    assert root.node.rule == "&R"
    assert root.children[0].node.rule == "contr-R"
    assert root.children[0].children[0].node.rule == "@-explrefl"


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
    # the classical construction takes no depth limit, so the reflection
    # direction is left open under contraction alone, where it needs height 5
    limits = SearchLimits(max_depth=2)
    result = prove(seq("Q(A)@Q(A) |- Q(A)"), CONTR_ONLY, limits)
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
    # no model refutes this goal, and the contraction-enabled space for it is
    # infinite (its lone ~A has no twin on the left, so it has no proof); the
    # engine must come back Unknown rather than claim exhaustion
    limits = SearchLimits(max_depth=6, max_nodes=50_000)
    result = prove(seq("A par A |- ~A, A * A"), CONTR_ONLY, limits)
    assert result.is_unknown and result.countermodel is None


def test_a_countermodel_settles_a_contraction_goal_before_the_search():
    # A |- A par A is false in M4 at A = e (e par e = 0), and M4 validates
    # every rule but weakening: NotProvable with no node searched
    limits = SearchLimits(max_depth=6, max_nodes=50_000)
    result = prove(seq("A |- A par A"), CONTR_ONLY, limits)
    assert result.is_not_provable and result.limit_hit is None
    assert result.countermodel == ("M4", (("A", "e"),))
    assert result.stats.nodes_expanded == 0


@pytest.mark.parametrize("at_mode", ["primitive", "expand"])
def test_an_infinite_height_bound_fails_outright(at_mode):
    # 4^7 valuations put M4 over the cap, B2 validates the goal, and no
    # split can take a subformula of it, so contraction leaves its 8
    # occurrences unreachable from axioms of 2 and its height bound is inf:
    # NotProvable at the root, with no round cut
    cfg = CONTR_ONLY._replace(at_mode=at_mode)
    result = prove(seq("A0, A1, A2, A3, A4, A5, A6 |- A0 & (A1 & (A2 & (A3 & (A4 & (A5 & A6)))))"), cfg)
    assert result.is_not_provable and result.countermodel is None
    assert (result.stats.nodes_expanded, result.stats.cuts, result.stats.bounded) == (0, 0, 1)
    # |- holds in M4, the model evaluated here; its bound is inf as well
    empty = prove(Sequent.of((), ()), cfg)
    assert empty.is_not_provable and empty.countermodel is None
    assert (empty.stats.cuts, empty.stats.bounded) == (0, 1)


def test_deepening_frontier_stops_at_its_first_cut():
    # valid in M4, so no model refutes it, and iterative deepening
    # re-explores contraction on both sides in every round.  A sequent whose
    # height bound exceeds its budget is cut before it is expanded, which
    # takes every non-axiom at budget 1.  The proof is the one the search
    # without the bound found, from 16 nodes and 42 instances where that
    # search expanded 54 nodes and drew 188 instances
    goal = seq("A par A |- A * A")
    start = time.perf_counter()
    result = prove(goal, CONTR_ONLY)
    assert time.perf_counter() - start < 1.0
    assert result.is_provable and result.proof.height() == 5
    assert rules_of(result.proof)[:2] == ["contr-L", "*R"]
    stats = result.stats
    assert (stats.nodes_expanded, stats.max_depth, stats.instances) == (16, 5, 42)
    assert (stats.falsified, stats.cuts, stats.bounded) == (1, 30, 24)


def assert_no_subproof_beats_the_bound(proof):
    bound = HeightBound()
    for node in proof.iter_nodes():
        assert node.height() >= bound(node.conclusion)


@settings(max_examples=150, deadline=None)
@given(sequents(max_per_side=2, max_depth=2))
def test_height_bound_is_admissible(s):
    # every subtree of every proof found under the golden configurations
    # without weakening, the bound's precondition, is at least as tall as the
    # bound of its conclusion; the searches without contraction never consult
    # the bound, so their proofs check it independently of the cut
    for _, cfg, limits in SEARCH_CONFIGS:
        if cfg.weakening:
            continue
        result = prove(s, cfg, limits)
        if result.is_provable:
            assert_no_subproof_beats_the_bound(result.proof)


def test_golden_derivations_admit_the_height_bound(golden_proofs):
    for proof, cfg in golden_proofs:
        if not cfg.weakening:
            assert_no_subproof_beats_the_bound(proof)


INF = float("inf")


@pytest.mark.parametrize(
    "text, bound",
    [
        # no literal on both sides: no proof at all
        ("|-", INF),
        ("A |- B", INF),
        ("A |- A", 1),
        # three occurrences and no split: without weakening no rule shrinks
        # the sequent to an axiom
        ("A, B |- A", INF),
        # parL splits the context: two steps, which is the proof's height
        ("A par B |- A, B", 2),
        # under a split the count term is the least h with
        # 2^(h - 1) + 1 >= n, at either side of n = 5 and n = 9
        ("A par B, C |- A, B, C", 3),
        ("A par B, C |- A, B, C, D", 4),
        ("A par B, C, D, E |- A, B, C, D, E", 4),
        ("A par B, C, D, E |- A, B, C, D, E, F", 5),
    ],
)
def test_height_bound_fixed_cases(text, bound):
    assert HeightBound()(seq(text)) == bound


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


W, C = ("weakening",), ("contraction",)
# connective -> under basic and linear, the rules that rescue the forward
# X.X |- X and the backward X |- X.X, then those undetermined on each (none:
# a model refutes every contraction probe that does not prove); & and | are
# idempotent there, and every connective is idempotent under classical
ATTRIBUTION = {"*": (W, C, (), ()), "par": (C, W, (), ()), "@": (C, W, (), ()), "$": (W, C, (), ())}
APPLICABLE_CELLS = [
    (conn.value, preset)
    for conn in Conn
    for preset in ("basic", "linear", "classical")
    if not (preset == "linear" and conn in (Conn.ENT, Conn.SEC))
]


@pytest.mark.parametrize("at_mode", ["primitive", "expand"])
@pytest.mark.parametrize("token, preset", APPLICABLE_CELLS)
def test_attribution_table(token, preset, at_mode):
    report = decide_idempotence(token, LogicConfig.preset(preset, at_mode=at_mode))
    expected = ATTRIBUTION.get(token, ((),) * 4) if preset != "classical" else ((),) * 4
    assert (
        report.forward_rescue,
        report.backward_rescue,
        report.forward_undetermined,
        report.backward_undetermined,
    ) == expected


ALL_CONFIGS = [
    LogicConfig(weakening, contraction, at_mode, allow_ent)
    for weakening in (False, True)
    for contraction in (False, True)
    for at_mode in ("primitive", "expand")
    for allow_ent in (False, True)
]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=repr)
def test_every_rescue_probe_is_decided_at_the_default_limits(cfg):
    # the probes run with the caller's limits and no depth cap of their own:
    # at the default limits each proves within 5 levels or is refuted, so a
    # cap at any depth from 5 up would change no report
    for conn in Conn:
        if not cfg.allow_ent and conn in (Conn.ENT, Conn.SEC):
            continue
        report = decide_idempotence(conn, cfg)
        assert report.forward_undetermined == report.backward_undetermined == ()
        for direction in (report.forward, report.backward):
            if not direction.is_not_provable:
                continue
            for weakening in (True, False):
                result = prove(direction.goal, LogicConfig(weakening, not weakening, cfg.at_mode, cfg.allow_ent))
                assert result.is_provable or result.is_not_provable
                assert not result.is_provable or result.proof.height() <= 5


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
    # the construction builds 9 and 7 sequents for the two directions
    limits = SearchLimits(max_depth=2, max_nodes=5)
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
    # both subformulas of A * B must meet a partner, and B has none
    assert literal_refuted(seq("A * B |- A"))
    assert prove(seq("A * B |- A"), BASIC).is_not_provable
    # one subformula is enough only under &L and |R
    assert not literal_refuted(seq("A |- A | B"))
    for text in ("A | B |- A", "A |- A & B", "(A * C) & B |- A"):
        assert literal_refuted(seq(text))
        assert not oracle.provable(seq(text))


def test_literal_refutation_covers_compound_formulas():
    # the lone literal A meets its twin, but B * C shares no literal with
    # the succedent
    assert literal_refuted(seq("A, B * C |- A"))
    assert not oracle.provable(seq("A, B * C |- A"))


def subterms(f):
    found = {}
    fold(f, lambda lit: None, lambda g, l, r: None, found)
    return list(found)


def test_clause_sets_stay_within_the_cap():
    # on the left, the &-chain of k disjunctions (Ai | Bi) has 2^k minimal
    # clauses; a node past the cap keeps its whole mask as its one clause
    chain = "(A0 | B0)"
    for i in range(1, 20):
        chain = f"({chain} & (A{i} | B{i}))"
    start = time.perf_counter()
    assert prove(seq(chain + " |- A0 | B0"), BASIC).is_provable
    assert prove(seq(chain + " |- A0"), BASIC).is_not_provable
    assert time.perf_counter() - start < 1.0
    whole = parse_formula(chain)
    for f in subterms(whole):
        _mask, left, right = f.relevance
        assert len(left) <= formulas._CAP and len(right) <= formulas._CAP
    assert whole.relevance[1] == (whole.relevance[0],)


def test_dead_formulas_leave_the_clause_tables():
    # the clauses are a slot of the term, so once the search has read them
    # the formula still leaves memory with its last reference, and its terms
    # leave the intern table
    def own():
        def names(f):
            return {getattr(x, "name", None) for x in (f, getattr(f, "left", None), getattr(f, "right", None))}

        live = [ref() for ref in list(formulas._TERMS.values())]
        return [f for f in live if f is not None and "Fresh_clause_only_here" in names(f)]

    f = Binary(Conn.TIMES, PosAtom("Fresh_clause_only_here"), NegAtom("Fresh_clause_only_here"))
    literal_refuted(Sequent((f,), (f,)))
    assert len(own()) == 3
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert own() == []


def reference_relevance(f, side):
    """``f``'s literals and its minimal clauses on ``side``, by plain recursion
    from the definition in README's design notes, with each literal as its
    (class, name) and each clause as a frozenset of literals."""
    if isinstance(f, (PosAtom, NegAtom)):
        literal = frozenset({(type(f), f.name)})
        return literal, {literal}
    left_mask, left = reference_relevance(f.left, side)
    right_mask, right = reference_relevance(f.right, side)
    mask = left_mask | right_mask
    if f.conn is (Conn.WITH if side == "left" else Conn.PLUS):
        clauses = {a | b for a in left for b in right}  # one subformula is enough
    else:
        clauses = left | right
    minimal = {c for c in clauses if not any(k < c for k in clauses)}
    return mask, minimal if len(minimal) <= 16 else {mask}


def assert_slots_match_reference(f):
    literal = {bit: key for key, bit in formulas._BITS.items()}

    def decoded(mask):
        return frozenset(literal[1 << i] for i in range(mask.bit_length()) if mask >> i & 1)

    for g in subterms(f):
        mask, *clauses = g.relevance
        for side, own in zip(("left", "right"), clauses):
            assert len(set(own)) == len(own)
            assert (decoded(mask), {decoded(c) for c in own}) == reference_relevance(g, side)


@settings(max_examples=300, deadline=None)
@given(strategies.formulas(max_depth=4))
def test_relevance_slot_matches_the_reference(f):
    assert_slots_match_reference(f)


def test_relevance_slot_matches_the_reference_past_the_cap():
    # on the left each link has two clauses and & takes their pairwise
    # unions, so the fifth link makes 32 and the chain keeps its mask; its
    # dual does the same on the right
    assert formulas._CAP == 16
    chain = "(A0 | B0)"
    for i in range(1, 5):
        chain = f"({chain} & {f'(A{i} | B{i})' if i % 2 == 0 else f'(Q(A{i}) @ Q(B{i}))'})"
    left = parse_formula(chain)
    for f, slot in ((left, 1), (dual(left), 2)):
        assert f.relevance[slot] == (f.relevance[0],)
        assert_slots_match_reference(f)


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
    "Q(A) @ Q(A), Q(B) @ (~B | B)"
    " |- ((A | ~A) @ (A | ~A)) par A, (Q(B) $ Q(A)) par ((B | ~B) $ (~B | B))"
)


@pytest.mark.parametrize("cfg, exhaustive_nodes", [(BASIC, 10_895), (BASIC_EXPAND, 9_475)])
def test_heavy_goal_prunes_below_the_exhaustive_search(cfg, exhaustive_nodes):
    # a seeded random goal that no model falsifies, in either mode, and that
    # the literal check does not refute at the root; exhaustive_nodes is what
    # the search expands without the prunings and the models
    clear_memo()
    goal = seq(HEAVY)
    result = prove(goal, cfg)
    assert result.is_not_provable and result.limit_hit is None
    assert not oracle.provable(goal)
    assert countermodel(result.goal, cfg) is None and not literal_refuted(result.goal)
    assert result.stats.nodes_expanded < exhaustive_nodes
    assert result.stats.refuted > 0 and result.stats.committed > 0


def _refuted_by_sets(s):
    # literal refutation from its definition, independent of the kernel's
    # clause masks: some formula cannot meet the other side's literals, where
    # a literal needs its twin there, an & on the left or | on the right
    # either subformula, and any other compound formula both
    def literals(f):
        return fold(f, lambda lit: {lit}, lambda _f, l, r: l | r)

    def meets(f, either, partners):
        return fold(
            f, partners.__contains__, lambda g, l, r: (l or r) if g.conn is either else (l and r)
        )

    for side, other, either in (
        (s.antecedent, s.succedent, Conn.WITH),
        (s.succedent, s.antecedent, Conn.PLUS),
    ):
        partners = set().union(*map(literals, other))
        if not all(meets(f, either, partners) for f in side):
            return True
    return False


def _assert_pruned_stream_is_the_relevant_part(s):
    # the pruned stream is the full one less exactly the splits with a
    # refuted premise, in the same order, and each skip is counted once; no
    # formula here is large enough to reach the kernel's clause cap
    skips = []
    pruned = list(rule_instances(s, BASIC, lambda: skips.append(None)))
    full = list(rule_instances(s, BASIC))
    for inst in full:
        for premise in inst.premises:
            assert literal_refuted(premise) == _refuted_by_sets(premise)
    doomed = [
        RULES[inst.rule].kind == SPLIT and any(map(literal_refuted, inst.premises)) for inst in full
    ]
    assert pruned == [inst for inst, skip in zip(full, doomed) if not skip]
    assert len(skips) == sum(doomed)


@settings(max_examples=300, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_pruned_splits_are_exactly_the_doomed_ones(s):
    _assert_pruned_stream_is_the_relevant_part(s)


def test_pruned_splits_are_exactly_the_doomed_ones_on_the_family():
    goals = random.Random(11).sample(list(_enumerated_family()), 400)
    for s in goals:
        _assert_pruned_stream_is_the_relevant_part(s)
        _assert_pruned_stream_is_the_relevant_part(expand_sequent(s))


@cache
def _brute_falsified(model, premise):
    return countermodels.refutation(model, premise) is not None


def _assert_model_pruned_stream_is_the_rest(s, cfg):
    # with the goal's evaluator, as the search passes it, the stream is the
    # full one less exactly the splits with a premise that is literal-refuted
    # (weakening and contraction off) or false in the evaluator's model,
    # judged by trying every valuation, in the same order; each skip is
    # counted once
    evaluator = Layouts(cfg).evaluator(s)
    model = evaluator.model and evaluator.model.name
    refute = not (cfg.weakening or cfg.contraction)
    skips = []
    kept = list(rule_instances(s, cfg, lambda: skips.append(None), evaluator=evaluator))
    full = list(rule_instances(s, cfg))

    def doomed(p):
        return (refute and literal_refuted(p)) or (model is not None and _brute_falsified(model, p))

    left_out = [RULES[inst.rule].kind == SPLIT and any(map(doomed, inst.premises)) for inst in full]
    assert kept == [inst for inst, skip in zip(full, left_out) if not skip]
    assert len(skips) == sum(left_out)


@settings(max_examples=300, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_model_pruned_splits_are_exactly_the_falsified_ones(s):
    for cfg in (BASIC, WEAK_ONLY, CONTR_ONLY):
        _assert_model_pruned_stream_is_the_rest(s, cfg)


def test_model_pruned_splits_are_exactly_the_falsified_ones_on_the_family():
    goals = random.Random(11).sample(list(_enumerated_family()), 400)
    for s in goals:
        for cfg in (BASIC, CONTR_ONLY):
            _assert_model_pruned_stream_is_the_rest(s, cfg)
            _assert_model_pruned_stream_is_the_rest(expand_sequent(s), cfg)


SPLITS_HEAVY = (
    "((~B & B) $ Q(A)) par ~B, (~B & B) $ Q(B)"
    " |- ((~A & A) $ (~B | B)) * (A | B), (B | ~B) @ (~B | B)"
)


def test_dominant_splits_goal_builds_fewer_splits():
    # the costliest goal of perfbench splits: 8,471 nodes and 95,802
    # instances when every split is built, and 318 and 990 when only the
    # literal-refuted ones are skipped; skipping the splits with a premise
    # M4 falsifies too leaves 66 and 164
    clear_memo()
    goal = seq(SPLITS_HEAVY)
    result = prove(goal, BASIC)
    assert result.is_not_provable and result.limit_hit is None
    assert not oracle.provable(goal)
    stats = result.stats
    assert stats.nodes_expanded <= 66 and stats.instances <= 164 and stats.pruned > 0


@pytest.mark.parametrize(
    "text", ["A * A, A |- A * A", "A par A |- A par A, A", "A par A |- A & A", "(A | A) & (A * A) |- A * A"]
)
def test_invertible_commit_keeps_the_oracle_verdict(text):
    # *L, parR, &R and |L each commit when a premise has failed outright: the
    # conclusion is then unprovable, and a proof elsewhere in the goal (here
    # through &L2, after &L1's branch commits) is still found.  Each goal is
    # valid in both models, so the failed premise is not one a model settles
    clear_memo()
    result = prove(seq(text), BASIC)
    assert countermodel(seq(text), BASIC) is None
    assert result.stats.committed > 0
    assert result.is_provable == oracle.provable(seq(text))
    assert result.is_provable or result.limit_hit is None


OLD_HEAVY = (
    "((~A & A) @ (~B | B)) * (~A par ~B), (A | ~A) @ (~A & A)"
    " |- (Q(A) @ (~B | B)) par ((~B | B) @ (~A & A)), (~B & B) $ (~B & B)"
)


@pytest.mark.parametrize(
    "text", ["A * B |- A par B", "(A * B) & (A par B) |- A par B", "A, B |- A & B", OLD_HEAVY]
)
def test_a_model_settles_what_the_commit_and_the_literals_settled(text):
    # these goals pinned the commit and the literal check before every node
    # met the models: a model now falsifies the sequent that used to commit
    # (the root, or &L1's branch of the provable one), and the verdict stays
    # the oracle's
    goal = seq(text)
    expected = oracle.provable(goal)
    for cfg in (BASIC, BASIC_EXPAND):
        clear_memo()
        result = prove(goal, cfg)
        assert result.stats.falsified > 0 and result.stats.committed == 0
        assert result.is_provable == expected and result.limit_hit is None


def test_prunings_stay_off_where_they_do_not_hold():
    # weakening deletes lone literals, so only the commit applies there;
    # contraction keeps the search exactly as before
    clear_memo()
    weak = prove(seq("A, B |- A"), WEAK_ONLY)
    assert weak.is_provable and weak.stats.refuted == 0
    limits = SearchLimits(max_depth=4, max_nodes=2000)
    settled_by = {}
    for cfg in (CONTR_ONLY, CLASSICAL):
        result = prove(seq("A |- B par A"), cfg, limits)
        stats = result.stats
        assert (stats.refuted, stats.committed) == (0, 0)
        settled_by[cfg.describe()] = result.countermodel and result.countermodel[0]
    # M4 refutes the goal at A = e before any search with contraction alone;
    # it is classically valid, so classical searches it
    assert settled_by == {"no-weakening+contraction": "M4", "classical": None}
    # no model refutes this goal, and its lone ~A has no twin on the left:
    # literal refutation would settle it at the root, yet the search runs
    goal = seq("A par A |- ~A, A * A")
    assert literal_refuted(goal)
    result = prove(goal, CONTR_ONLY, limits)
    assert result.countermodel is None and result.is_unknown
    assert (result.stats.refuted, result.stats.committed) == (0, 0) and result.stats.nodes_expanded > 1


# ---------------------------------------------------------------------------
# the finite model's tables, shared by layout


def _forget_verdicts():
    # empty the shared memo's proofs and failures but keep its layout
    # tables, so that only those carry over to the next call
    for success, fail_at, _ in search._MEMO.values():
        success.clear()
        fail_at.clear()


def _outcome(goal, cfg):
    result = prove(goal, cfg)
    proof = result.proof and print_proof(result.proof)
    return result.verdict, result.limit_hit, result.countermodel, result.stats, proof


def _assert_tables_ignore_call_order(goals, cfg):
    fresh = []
    for goal in goals:
        clear_memo()
        fresh.append(_outcome(goal, cfg))
    clear_memo()
    for goal in goals:  # every goal's layout tables now hold what the others put there
        prove(goal, cfg)
    for goal, expected in zip(goals, fresh):
        _forget_verdicts()
        assert _outcome(goal, cfg) == expected, str(goal)


@pytest.mark.parametrize(
    "cfg, texts",
    [
        # no literal on both sides: the one-sided B takes the top on the
        # left of the first goal and the bottom on the right of the second
        (WEAK_ONLY, ["B |- A", "A |- B"]),
        # A on both sides; M4 falsifies the second goal at A = f only with
        # B at the top, and literal refutation settles neither
        (BASIC, ["A |- A | B", "A & B, A & B |- A"]),
    ],
)
def test_goals_of_one_layout_share_tables_that_ignore_call_order(cfg, texts):
    goals = [seq(t) for t in texts]
    layouts = Layouts(cfg)
    assert layouts.evaluator(goals[0]) is layouts.evaluator(goals[1])
    assert cfg.weakening or not any(map(literal_refuted, goals))  # weakening turns the check off
    _assert_tables_ignore_call_order(goals, cfg)


@pytest.mark.parametrize("cfg", [BASIC, BASIC_EXPAND, WEAK_ONLY])
def test_layout_tables_ignore_call_order_on_random_goals(cfg):
    rng = random.Random(27)
    goals = [strategies.random_sequent(rng, max_per_side=2) for _ in range(60)]
    _assert_tables_ignore_call_order(goals, cfg)


def _shared_literals(goal):
    """The literals on both sides of ``goal``, by plain recursion."""

    def walk(f):
        return walk(f.left) | walk(f.right) if isinstance(f, Binary) else {f}

    def side(formulas):
        return set().union(*map(walk, formulas))

    return side(goal.antecedent) & side(goal.succedent)


def _renamed(goal, names):
    """``goal`` with the atoms A and B renamed by ``names``."""

    def leaf(lit):
        return type(lit)(names[lit.name])

    def rename(f):
        return fold(f, leaf, lambda g, l, r: Binary(g.conn, l, r))

    return Sequent(map(rename, goal.antecedent), map(rename, goal.succedent))


@pytest.mark.parametrize("cfg", [BASIC, WEAK_ONLY, CONTR_ONLY])
def test_the_layout_key_finds_the_goals_shared_literals(cfg):
    # one table serves goals over eight atoms: each goal's evaluator holds
    # exactly its literals on both sides, in canonical order
    rng = random.Random(30)
    pool = [f"P{i}" for i in range(8)]
    layouts = Layouts(cfg)
    for _ in range(300):
        names = dict(zip("AB", rng.sample(pool, 2)))
        goal = _renamed(strategies.random_sequent(rng, max_per_side=3), names)
        shared = sorted(_shared_literals(goal), key=formulas.sort_key)
        evaluator = layouts.evaluator(goal)
        assert evaluator.literals == shared, str(goal)
        fits = [m.name for m in kernel.models(cfg) if len(m.elements) ** len(shared) <= kernel.VALUATIONS]
        assert (evaluator.model and evaluator.model.name) == (fits[-1] if fits else None)
    assert len(layouts.evaluators) > 30


@pytest.mark.parametrize("count", [1, 13])  # one shared literal fits M4; 2 ** 13 valuations fit no model
def test_an_evaluator_keeps_its_literals_until_clear_memo(count):
    clear_memo()
    names = ", ".join(f"Fresh_layout_{i}" for i in range(count))
    prove(seq(f"{names} |- {names}"), BASIC)
    (tables,) = search._MEMO.values()
    ((key, evaluator),) = tables.layouts.evaluators.items()
    assert (evaluator.model is None) == (count == 13)
    refs = [weakref.ref(lit) for lit in evaluator.literals]
    assert len(refs) == count
    del tables, evaluator
    _forget_verdicts()  # now only the layout table holds the literals
    gc.collect()
    assert all(ref() is not None for ref in refs)
    assert not PosAtom("Fresh_layout_new").relevance[0] & key  # their bits are not reused
    clear_memo()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_clear_memo_empties_the_layout_tables():
    clear_memo()
    goal = seq("A & B, A & B |- A")
    assert prove(goal, BASIC).stats.falsified == 1
    (tables,) = search._MEMO.values()
    layouts = tables.layouts
    (evaluator,) = layouts.evaluators.values()
    assert [str(lit) for lit in evaluator.literals] == ["A"]  # the one literal on both sides
    clear_memo()
    assert not search._MEMO
    for cfg in (CONTR_ONLY, CLASSICAL):  # their tables last one call
        prove(goal, cfg)
        prove(seq("A |- A * A"), cfg, SearchLimits(max_depth=4, max_nodes=2000))
    assert not search._MEMO
    prove(goal, BASIC)
    (tables,) = search._MEMO.values()
    assert tables.layouts is not layouts and len(tables.layouts.evaluators) == 1

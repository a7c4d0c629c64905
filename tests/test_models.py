"""The finite countermodels: their soundness for every rule they are used
with, their agreement with the oracle and the engine, and the certificates
they produce, re-checked by the independent evaluator in ``countermodels``."""

from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from entlogic.formulas import Binary, Conn, NegAtom, PosAtom
from entlogic.kernel import (
    AXIOM,
    BOTH,
    BRANCH,
    CONTRACT,
    LEFT,
    MODELS,
    PICK_LEFT,
    PICK_RIGHT,
    RULES,
    SPLIT,
    VALUATIONS,
    WEAKEN,
    Layouts,
    LogicConfig,
    Sequent,
    countermodel,
    models,
    rule_instances,
)
from entlogic.search import SearchLimits, expand_sequent, prove
from entlogic.syntax import parse_sequent
from strategies import sequents

import countermodels
import oracle
from conftest import BASIC, BASIC_EXPAND, CLASSICAL, CLASSICAL_EXPAND, CONTR_ONLY
from test_acceptance import _enumerated_family

CONFIGS = [
    LogicConfig(weakening, contraction, "primitive", allow_ent)
    for weakening, contraction, allow_ent in product((False, True), repeat=3)
]
CONTR_ONLY_EXPAND = CONTR_ONLY._replace(at_mode="expand")


def _valid(model, left: list[int], right: list[int]) -> bool:
    """``*left <= par right`` in ``model``, from its own tables."""
    top = len(model.elements) - 1
    ante, succ = model.unit, top - model.unit
    for x in left:
        ante = model.ops[Conn.TIMES][ante][x]
    for y in right:
        succ = model.ops[Conn.PAR][succ][y]
    return ante <= succ


def _preserves_validity(model, rule) -> bool:
    """Every instance of ``rule`` with valid premises has a valid conclusion,
    for every value of the contexts and operands.  A context stands for its
    product (left) or par (right), so one value covers every context.  The
    schema is read from the row's kind and side alone."""
    span = range(len(model.elements))

    def holds(active: list[int], passive: list[int]) -> bool:
        return _valid(model, active, passive) if rule.side == LEFT else _valid(model, passive, active)

    if rule.kind == AXIOM:
        return all(_valid(model, [a], [a]) for a in span)
    op = model.ops[rule.conn] if rule.conn is not None else None
    if rule.kind == SPLIT:
        for g1, g2, d1, d2, a, b in product(span, repeat=6):
            if holds([g1, a], [d1]) and holds([g2, b], [d2]) and not holds([g1, g2, op[a][b]], [d1, d2]):
                return False
        return True
    premises = {
        WEAKEN: lambda g, a, b: [[g]],
        CONTRACT: lambda g, a, b: [[g, a, a]],
        PICK_LEFT: lambda g, a, b: [[g, a]],
        PICK_RIGHT: lambda g, a, b: [[g, b]],
        BOTH: lambda g, a, b: [[g, a, b]],
        BRANCH: lambda g, a, b: [[g, a], [g, b]],
    }[rule.kind]
    for g, d, a, b in product(span, repeat=4):
        principal = a if op is None else op[a][b]
        if all(holds(p, [d]) for p in premises(g, a, b)) and not holds([g, principal], [d]):
            return False
    return True


def test_models_are_commutative_involutive_chains():
    # reading a multiset as one product or par needs * commutative and
    # associative with unit e; the shortcut in countermodel needs every
    # operation monotone
    for model in MODELS:
        span = range(len(model.elements))
        times = model.ops[Conn.TIMES]
        for x, y, z in product(span, repeat=3):
            assert times[x][y] == times[y][x]
            assert times[times[x][y]][z] == times[x][times[y][z]]
            assert times[model.unit][x] == x
        for table in model.ops.values():
            for x, y in product(span, repeat=2):
                assert x == len(span) - 1 or table[x][y] <= table[x + 1][y]
                assert y == len(span) - 1 or table[x][y] <= table[x][y + 1]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_every_rule_a_model_serves_preserves_validity(model):
    served = [cfg for cfg in CONFIGS if model in models(cfg)]
    assert served  # B2 serves every configuration, M4 those without weakening
    for cfg in served:
        for name, rule in RULES.items():
            if cfg.rule_enabled(name):
                assert _preserves_validity(model, rule), (model.name, name, cfg)
    # the weakening flag is exact: a model that fails weakening serves no
    # configuration that has it
    weakening = all(_preserves_validity(model, r) for r in RULES.values() if r.kind == WEAKEN)
    assert model.weakening == weakening


def test_oracle_provable_goals_are_valid_in_both_models():
    # basic, where the oracle decides, is a sub-calculus of every
    # configuration; the evaluator takes M4 for basic and B2 for classical
    checked = 0
    for s in _enumerated_family():
        if oracle.provable(s):
            assert countermodel(s, BASIC) is None, s
            assert countermodel(s, CLASSICAL) is None, s
            checked += 1
    assert checked > 1000


def _check_result(result, cfg) -> None:
    """A Provable result's every sequent is valid, and a countermodel is
    confirmed, in each model that applies, by the independent evaluator."""
    names = countermodels.applicable(cfg.weakening)
    if result.is_provable:
        for node in set(result.proof.iter_nodes()):
            for name in names:
                assert countermodels.refutation(name, node.conclusion) is None, (name, str(node.conclusion))
    if result.countermodel is not None:
        name, valuation = result.countermodel
        assert name in names
        assert countermodels.falsified(name, result.goal, dict(valuation))
        assert sorted(lit for lit, _ in valuation) == countermodels.literals(result.goal)


@settings(max_examples=150, deadline=None)
@given(sequents(max_per_side=2, max_depth=2))
def test_engine_verdicts_with_contraction_agree_with_the_models(s):
    limits = SearchLimits(max_depth=5, max_nodes=500)
    for cfg in (CONTR_ONLY, CLASSICAL):
        _check_result(prove(s, cfg, limits), cfg)


def _padded(s, width: int) -> Sequent:
    """``s`` with ``C0 * (... * Cw)`` added on the left and
    ``C0 & (... & (Cw & E))`` on the right, for w = ``width`` - 1.  The
    added literals are fresh and the added pair alone is false in B2 at
    E = 0, so the goal is valid in B2 exactly when ``s`` is, and its
    ``width`` literals on both sides put it past B2's valuation cap."""
    cs = [PosAtom(f"C{i}") for i in range(width)]
    left, right = cs[-1], Binary(Conn.WITH, cs[-1], PosAtom("E"))
    for c in reversed(cs[:-1]):
        left, right = Binary(Conn.TIMES, c, left), Binary(Conn.WITH, c, right)
    return Sequent.of(s.antecedent + (left,), s.succedent + (right,))


@settings(max_examples=80, deadline=None)
@given(sequents(max_per_side=2, max_depth=2), st.sampled_from([0, 13]))
def test_classical_verdicts_are_brute_force_b2(s, width):
    # with weakening and contraction on, a goal is provable exactly when B2
    # validates it.  Padded past the cap, no model fits the goal, so the
    # construction decomposes it unguided, and an invalid one fails at a
    # leaf whose valuation is the certificate
    for cfg in (CLASSICAL, CLASSICAL_EXPAND):
        searched = expand_sequent(s) if cfg.at_mode == "expand" else s
        valid = countermodels.refutation("B2", searched) is None
        result = prove(_padded(s, width) if width else s, cfg)
        assert (Layouts(cfg).evaluator(result.goal).model is None) == bool(width)
        assert result.is_provable == valid and not result.is_unknown
        if result.is_not_provable:
            name, valuation = result.countermodel
            assert countermodels.falsified(name, result.goal, dict(valuation))
            assert sorted(lit for lit, _ in valuation) == countermodels.literals(result.goal)


def _picked(s, cfg):
    """The model the evaluator should take for goal ``s``: of those that
    apply, the one with the most elements whose valuations of the literals
    on both sides of ``s`` fit the cap; None when none does."""
    left = set(countermodels.literals(Sequent.of(s.antecedent, ())))
    right = set(countermodels.literals(Sequent.of((), s.succedent)))
    sizes = {m: len(countermodels.ELEMENTS[m]) for m in countermodels.applicable(cfg.weakening)}
    fits = [m for m, n in sizes.items() if n ** len(left & right) <= VALUATIONS]
    return max(fits, key=sizes.get, default=None)


@settings(max_examples=300, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_the_monotone_shortcut_finds_what_brute_force_finds(s):
    # one-sided literals at the extremes lose no countermodel of the model
    # the evaluator picks
    for cfg in (CONTR_ONLY, CLASSICAL):
        found = countermodel(s, cfg)
        picked = _picked(s, cfg)
        model = Layouts(cfg).evaluator(s).model
        assert (model and model.name) == picked
        assert (found is not None) == (countermodels.refutation(picked, s) is not None)
        if found is not None:
            assert found[0] == picked
            assert countermodels.falsified(found[0], s, dict(found[1]))


STRUCTURAL = [cfg for cfg in CONFIGS if cfg.allow_ent]  # the four structural configurations


@settings(max_examples=150, deadline=None)
@given(sequents(max_per_side=3, max_depth=2))
def test_the_goal_layout_decides_every_premise_as_brute_force_does(s):
    # the evaluator built for a goal serves every sequent of its search: a
    # premise is falsified exactly when the model picked for the goal has a
    # falsifying valuation of the premise's own literals
    brute: dict = {}
    for cfg in STRUCTURAL:
        evaluator = Layouts(cfg).evaluator(s)
        picked = _picked(s, cfg)
        for inst in rule_instances(s, cfg):
            for premise in inst.premises:
                if premise not in brute:
                    brute[premise] = [
                        m for m in countermodels.ELEMENTS if countermodels.refutation(m, premise) is not None
                    ]
                expected = picked in brute[premise]
                assert evaluator.falsifies(premise) == expected, (cfg.describe(), str(premise))


_ABC = [lit for atom in "ABC" for lit in (PosAtom(atom), NegAtom(atom))]
_ABC_FORMULAS = st.recursive(
    st.sampled_from(_ABC), lambda sub: st.builds(Binary, st.sampled_from(list(Conn)), sub, sub), max_leaves=4
)


@settings(max_examples=300, deadline=None)
@given(st.builds(Sequent.of, st.lists(_ABC_FORMULAS, max_size=3), st.lists(_ABC_FORMULAS, max_size=3)))
def test_m4_falsifies_every_sequent_b2_does_but_the_empty_one(s):
    # {0, 1} of M4 is closed under its tables and restricts there to B2's,
    # a one-sided literal sits at the same extreme in both, and the empty
    # sides compare alike unless both are empty.  With at most 6 literals
    # M4 fits the cap, so the evaluator loses no countermodel by dropping B2
    assume(s.antecedent or s.succedent)
    if countermodels.refutation("B2", s) is not None:
        assert countermodels.refutation("M4", s) is not None, str(s)


# The goals of the matrix's contraction-only rescue probes, by @ mode; each
# is the direction of X.X -||- X that weakening alone rescues.
PROBES = (
    "X * X |- X",
    "X |- X par X",
    "Q(A) |- Q(A) @ Q(A)",
    "(~A | A) $ (~A | A) |- ~A | A",
)


@pytest.mark.parametrize("text", PROBES)
@pytest.mark.parametrize("cfg", [CONTR_ONLY, CONTR_ONLY_EXPAND], ids=["primitive", "expand"])
def test_m4_settles_every_rescue_probe(text, cfg):
    result = prove(parse_sequent(text), cfg, SearchLimits(max_depth=8))
    assert result.is_not_provable and result.countermodel[0] == "M4"
    assert result.stats.nodes_expanded == 0
    _check_result(result, cfg)


def test_the_valuation_cap_skips_a_model():
    # 7 literals on both sides: 4^7 valuations of M4 exceed the cap, 2^7 of
    # B2 do not, so B2 is evaluated, and the goal is valid in B2
    atoms = [f"A{i}" for i in range(7)]
    goal = parse_sequent(", ".join(atoms) + " |- " + " * ".join(atoms[:2]) + ", " + ", ".join(atoms[2:]))
    assert 4**7 > VALUATIONS >= 2**7
    assert countermodel(goal, CONTR_ONLY) is None
    assert countermodels.refutation("M4", goal) is not None


@pytest.mark.parametrize("cfg", [CLASSICAL, CLASSICAL_EXPAND, BASIC_EXPAND], ids=lambda c: c.describe())
def test_models_apply_where_they_are_sound(cfg):
    # B2 validates weakening; M4 does not, so it is not tried with weakening
    assert [m.name for m in models(cfg)] == (["B2"] if cfg.weakening else ["B2", "M4"])

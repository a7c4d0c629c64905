"""The package's immutable records keep the contract they had as frozen
dataclasses: construction and defaults, validation, ``repr``, immutability,
equality and hashing, ``match`` patterns, pickling and copying."""

import copy
import pickle

import pytest

from entlogic.formulas import Binary, Conn, PosAtom, QubitFormula
from entlogic import kernel
from entlogic.kernel import CheckResult, LogicConfig, ProofTree, RuleInstance, Sequent, check_proof
from entlogic.quantum import CloneOutcome, QuantumState, cat, tensor, try_clone, zero
from entlogic.search import (
    EquivalenceResult,
    IdempotenceReport,
    SearchLimits,
    SearchResult,
    SearchStats,
    decide_equivalence,
    prove,
)
from entlogic.selfref import (
    COMPOSITION_FOOTNOTE,
    CloneEvidence,
    Def,
    Hat,
    LiarOutcome,
    MatrixRow,
    Name,
    Not,
    SelfRefReport,
    TruePred,
    build_report,
    liar_analysis,
    render_meta,
    sufficient_condition_check,
)
from entlogic.syntax import SourceSpan, print_proof

from conftest import BASIC

A = PosAtom("A")
F2 = Binary(Conn.WITH, Binary(Conn.WITH, A, A), Binary(Conn.WITH, A, A))

# Each record class's fields in order, as its repr and its positional
# constructor take them.
FIELDS = {
    QubitFormula: ("atom",),
    LogicConfig: ("weakening", "contraction", "at_mode", "allow_ent"),
    RuleInstance: ("rule", "conclusion", "premises", "principal"),
    CheckResult: ("ok", "path", "reason"),
    SearchLimits: ("max_depth", "max_nodes"),
    SearchStats: (
        "nodes_expanded", "max_depth", "instances", "memo_hits", "cuts", "refuted", "committed", "pruned",
        "falsified", "bounded",
    ),
    SearchResult: ("verdict", "goal", "proof", "limit_hit", "stats", "countermodel"),
    EquivalenceResult: ("verdict", "forward", "backward"),
    IdempotenceReport: (
        "connective", "config", "compound", "single", "idempotent", "forward", "backward",
        "forward_rescue", "backward_rescue", "forward_undetermined", "backward_undetermined",
    ),
    SourceSpan: ("start", "end"),
    Name: ("ident",),
    Hat: ("arg",),
    TruePred: ("arg",),
    Not: ("arg",),
    Def: ("lhs", "rhs"),
    LiarOutcome: ("paradox", "definition", "reduced", "note"),
    CloneEvidence: ("link", "basis_clonable", "outcomes", "diagram_commutes", "note"),
    SelfRefReport: ("idempotence", "basis_clonable", "footnote"),
    MatrixRow: ("connective", "logic", "applicable", "report", "reason"),
    QuantumState: ("amplitudes",),
    CloneOutcome: ("produced", "intended", "success", "fidelity_with_intended"),
}


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each record class."""
    provable = prove(Sequent.of((A,), (F2,)), BASIC)
    report = build_report("*", BASIC)
    built = [
        QubitFormula("A"),
        LogicConfig.preset("classical"),
        provable.proof.node,
        check_proof(provable.proof, BASIC),
        SearchLimits(8),
        provable.stats,
        provable,
        decide_equivalence(A, F2, BASIC),
        report.idempotence,
        SourceSpan(3, 5),
        Name("L"),
        Hat(Name("L")),
        TruePred(Name("L")),
        Not(Name("L")),
        Def("L", Not(TruePred(Hat(Name("L"))))),
        liar_analysis("@", BASIC),
        sufficient_condition_check("tensor"),
        report,
        MatrixRow("*", "basic", True, report),
        zero(),
        try_clone(cat()),
    ]
    records = {type(r): r for r in built}
    assert set(records) == set(FIELDS)
    return records


VALIDATED = (LogicConfig, SearchLimits, SourceSpan, QubitFormula, QuantumState, CloneOutcome)


def test_repr_pins():
    assert repr(SearchLimits()) == "SearchLimits(max_depth=64, max_nodes=1000000)"
    assert repr(LogicConfig()) == (
        "LogicConfig(weakening=False, contraction=False, at_mode='expand', allow_ent=True)"
    )
    assert repr(SourceSpan(3, 5)) == "SourceSpan(start=3, end=5)"
    assert repr(CheckResult(False, (1,), "why")) == "CheckResult(ok=False, path=(1,), reason='why')"
    assert repr(QuantumState((1, 0))) == "QuantumState(amplitudes=((1+0j), 0j))"
    assert repr(Def("L", Not(TruePred(Hat(Name("L")))))) == (
        "Def(lhs='L', rhs=Not(arg=TruePred(arg=Hat(arg=Name(ident='L')))))"
    )


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field_in_order(cls, records):
    record = records[cls]
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[cls])
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls, records):
    record = records[cls]
    values = [getattr(record, name) for name in FIELDS[cls]]
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert type(by_keyword) is cls
    assert repr(cls(*values)) == repr(by_keyword) == repr(record)
    with pytest.raises(TypeError):
        cls(*values, None)


def test_defaults(records):
    assert SearchLimits() == SearchLimits(64, 1_000_000) == SearchLimits(max_nodes=1_000_000)
    assert SearchLimits(7).max_nodes == 1_000_000 and SearchLimits(max_nodes=9).max_depth == 64
    assert LogicConfig() == LogicConfig(False, False, "expand", True)
    assert LogicConfig(True) == LogicConfig(weakening=True, at_mode="expand")
    assert SearchStats(1, 2) == SearchStats(1, 2, 0, 0, 0, 0, 0, 0, 0, 0)
    seq = Sequent.of((A,), (A,))
    assert RuleInstance("axiom", seq, ()).principal is None
    assert CheckResult(True).path == () and CheckResult(True).reason == ""
    assert ProofTree(RuleInstance("axiom", seq, (), A)).children == ()
    report = records[SelfRefReport]
    assert SelfRefReport(report.idempotence, True).footnote == COMPOSITION_FOOTNOTE
    assert MatrixRow("*", "basic", True, report).reason == ""


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LogicConfig(at_mode="lazy"), "unknown at_mode: 'lazy'"),
        (lambda: LogicConfig(True, False, "lazy"), "unknown at_mode: 'lazy'"),
        (lambda: SearchLimits(max_depth=0), "search limits must be positive"),
        (lambda: SearchLimits(5, -1), "search limits must be positive"),
        (lambda: SourceSpan(3, 1), "bad span: 3..1"),
        (lambda: SourceSpan(-1, 1), "bad span: -1..1"),
        (lambda: QubitFormula("a"), "invalid atom identifier: 'a'"),
        (lambda: QubitFormula(atom=""), "invalid atom identifier: ''"),
        (lambda: QuantumState((1, 1)), "state not normalized: |psi|^2 = 2.0"),
        (lambda: QuantumState(amplitudes=(1,)), "state must have 2 or 4 amplitudes, got 1"),
        (
            lambda: CloneOutcome(tensor(zero(), zero()), tensor(zero(), zero()), False, 1.0),
            "success flag inconsistent with fidelity and separability",
        ),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_quantum_state_stores_complex_amplitudes():
    state = QuantumState([1, 0])
    assert state.amplitudes == (1 + 0j, 0j) and type(state.amplitudes) is tuple
    assert all(type(a) is complex for a in state.amplitudes)


@pytest.mark.parametrize("cls", [*FIELDS, ProofTree], ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls, records):
    record = records[cls] if cls in records else records[SearchResult].proof
    field = FIELDS[cls][0] if cls in FIELDS else "node"
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_configs_and_limits_compare_and_hash_by_value():
    # a configuration keys the kernel's rule plans
    assert LogicConfig.preset("basic") == LogicConfig(False, False, "expand", True)
    assert hash(LogicConfig.preset("basic")) == hash(LogicConfig(False, False, "expand", True))
    assert LogicConfig.preset("basic") != LogicConfig.preset("basic", at_mode="primitive")
    assert SearchLimits(8) == SearchLimits(max_depth=8) and hash(SearchLimits(8)) == hash(SearchLimits(8))
    assert SearchLimits(8) != SearchLimits(9)
    assert kernel._plan(LogicConfig.preset("basic")) is kernel._plan(LogicConfig(False, False, "expand", True))


def test_sentences_equal_only_sentences_of_their_class():
    for cls in (Hat, TruePred, Not):
        assert cls(Name("L")) == cls(Name("L")) and not cls(Name("L")) != cls(Name("L"))
        assert hash(cls(Name("L"))) == hash(cls(Name("L")))
    assert Not(Name("L")) != TruePred(Name("L")) and not Not(Name("L")) == TruePred(Name("L"))
    assert Def("L", Not(Name("L"))) != Def("L", TruePred(Name("L")))
    assert Name("L") != ("L",) and ("L",) != Name("L")
    assert len({Not(Name("L")), TruePred(Name("L")), Not(Name("L"))}) == 2


def test_render_meta_matches_classes_not_tuples():
    assert render_meta(Def("L", Not(TruePred(Hat(Name("L")))))) == 'L := ~True("L^")'
    assert render_meta(Hat(Name("L"))) == '"L^"'
    with pytest.raises(TypeError):
        render_meta(("L",))
    with pytest.raises(TypeError):  # a hat over anything but a name
        render_meta(Hat(Not(Name("L"))))


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
def test_proof_tree_and_search_result_roundtrip(roundtrip, records):
    result = records[SearchResult]
    tree = result.proof  # A |- F2: each &R node has one subproof as both premises
    twin = roundtrip(tree)
    assert type(twin) is ProofTree and twin is not tree and twin != tree
    assert twin.conclusion == tree.conclusion and twin.height() == tree.height() == 3
    assert len(set(twin.iter_nodes())) == len(set(tree.iter_nodes())) == 3  # still shared
    assert check_proof(twin, BASIC)
    assert print_proof(twin, "text") == print_proof(tree, "text")
    assert repr(twin).startswith("<entlogic.kernel.ProofTree object at ")
    back = roundtrip(result)
    assert type(back) is SearchResult and back.proof is not result.proof
    assert (back.verdict, back.goal, back.stats) == (result.verdict, result.goal, result.stats)
    assert print_proof(back.proof, "text") == print_proof(tree, "text")


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
def test_validated_records_roundtrip(cls, roundtrip, records):
    record = records[cls]
    back = roundtrip(record)
    assert type(back) is cls and back == record and repr(back) == repr(record)

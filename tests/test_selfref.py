import pytest

from entlogic.formulas import Binary, Conn, PosAtom, ShapeError, qubit_of
from entlogic.kernel import LogicConfig
from entlogic.quantum import TOLERANCE, bell_state
from entlogic.search import GoalRejectedError, SearchLimits
from entlogic.selfref import (
    CLASS_GENERALIZED,
    CLASS_RECOVERED,
    CLASS_STANDARD,
    AnalyzerError,
    Def,
    Hat,
    Name,
    Not,
    TruePred,
    build_report,
    clone_diagram_commutes,
    fixed_point_check,
    liar_analysis,
    matrix_row_to_dict,
    matrix_to_text,
    render_meta,
    report_matrix,
    report_to_dict,
    self_compose,
    sufficient_condition_check,
)

from conftest import BASIC, CLASSICAL, LINEAR

S0 = PosAtom("S0")


def test_self_compose_builds_duplicated_pair():
    assert self_compose("|", S0) == Binary(Conn.PLUS, S0, S0)
    assert self_compose("@", qubit_of("A")) == Binary(Conn.ENT, qubit_of("A"), qubit_of("A"))
    assert self_compose("*", PosAtom("A")) == Binary(Conn.TIMES, PosAtom("A"), PosAtom("A"))


def test_self_compose_rejects_non_qubit_operand_for_ent():
    with pytest.raises(ShapeError):
        self_compose("@", PosAtom("A"))


def test_fixed_point_check_values():
    assert fixed_point_check("&", CLASSICAL) is True
    assert fixed_point_check("par", BASIC) is False
    assert fixed_point_check("@", BASIC) is False


def test_fixed_point_check_raises_on_indeterminate():
    with pytest.raises(AnalyzerError):
        fixed_point_check("@", CLASSICAL, SearchLimits(max_depth=2, max_nodes=5))


def test_liar_paradox_for_idempotent_connective():
    outcome = liar_analysis("|", CLASSICAL)
    assert outcome.paradox
    assert outcome.definition == Def("L", Not(TruePred(Name("L"))))
    assert outcome.reduced == Not(Name("L"))
    assert "paradox" in outcome.rendering()


def test_liar_dissolved_for_ent_in_basic():
    outcome = liar_analysis("@", BASIC)
    assert not outcome.paradox
    assert outcome.definition == Def("L", Not(TruePred(Hat(Name("L")))))
    assert outcome.reduced == Not(Hat(Name("L")))
    assert '"L^"' in outcome.rendering()


def test_liar_for_times_defers_to_physical_link():
    outcome = liar_analysis("*", LINEAR)
    assert not outcome.paradox  # object-language level only
    assert "clonability" in outcome.note


def test_render_meta_forms():
    assert render_meta(Name("L")) == '"L"'
    assert render_meta(Hat(Name("L"))) == '"L^"'
    assert render_meta(Not(TruePred(Name("L")))) == '~True("L")'
    assert render_meta(Def("L", Not(Name("L")))) == 'L := ~"L"'


def test_sufficient_condition_tensor_clones_basis():
    evidence = sufficient_condition_check("tensor")
    assert evidence.basis_clonable
    assert evidence.outcomes["zero"].success
    assert evidence.outcomes["one"].success
    assert evidence.diagram_commutes is True
    # informational witness: cloning the cat state produces a Bell state
    produced = evidence.outcomes["cat"].produced
    assert not evidence.outcomes["cat"].success
    assert all(
        abs(x - y) <= TOLERANCE
        for x, y in zip(produced.amplitudes, bell_state("phi+").amplitudes)
    )


def test_sufficient_condition_entanglement_never_clones():
    evidence = sufficient_condition_check("entanglement")
    assert not evidence.basis_clonable
    assert evidence.outcomes is None


def test_sufficient_condition_rejects_unknown_link():
    with pytest.raises(ValueError):
        sufficient_condition_check("telepathy")


def test_clone_diagram_commutes():
    assert clone_diagram_commutes() is True


def test_report_ent_basic_is_generalized():
    report = build_report("@", BASIC)
    assert report.idempotent is False
    assert report.has_fixed_point is False
    assert report.physical_link == "entanglement"
    assert report.basis_clonable is False
    assert report.classification == CLASS_GENERALIZED
    assert report.liar_outcome == "no-paradox"


def test_report_plus_classical_is_standard_paradox():
    report = build_report("|", CLASSICAL)
    assert report.idempotent is True
    assert report.classification == CLASS_STANDARD
    assert report.liar_outcome == "paradox"


def test_report_times_linear_is_recovered_via_clone():
    report = build_report("*", LINEAR)
    assert report.idempotent is False
    assert report.basis_clonable is True
    assert report.classification == CLASS_RECOVERED
    assert report.liar_outcome == "paradox"


def test_report_rejected_for_ent_under_linear():
    with pytest.raises(GoalRejectedError):
        build_report("@", LINEAR)


def test_matrix_shape_and_classifications():
    rows = report_matrix()
    assert len(rows) == 18
    assert [r.connective for r in rows[:3]] == ["&", "&", "&"]
    generalized = {
        (r.connective, r.logic)
        for r in rows
        if r.applicable and r.report.classification == CLASS_GENERALIZED
    }
    assert generalized == {("@", "basic"), ("$", "basic")}
    not_applicable = {(r.connective, r.logic) for r in rows if not r.applicable}
    assert not_applicable == {("@", "linear"), ("$", "linear")}
    for row in rows:
        if row.applicable:
            assert row.report.has_fixed_point == row.report.idempotent


def test_matrix_liar_outcome_tracks_fixed_point():
    for row in report_matrix():
        if not row.applicable:
            continue
        outcome = liar_analysis(row.connective, LogicConfig.preset(row.logic))
        assert outcome.paradox == row.report.has_fixed_point


def test_matrix_serialization():
    rows = report_matrix()
    text = matrix_to_text(rows)
    assert len(text.splitlines()) == 20  # header + rule + 18 rows
    dicts = [matrix_row_to_dict(r) for r in rows]
    assert sum(1 for d in dicts if not d["applicable"]) == 2
    sample = report_to_dict(build_report("@", BASIC))
    assert sample["classification"] == CLASS_GENERALIZED
    assert "footnote" in sample and "liar_definition" in sample

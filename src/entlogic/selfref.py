"""Self-reference analysis tying the calculus to the two-qubit oracle.

A sentence refers to itself through a naming map from the object language to
the metalanguage.  Duplicating the name and fusing the pair with a binary
connective generalizes the construction: when the connective is idempotent
the duplication has a fixed point and the classical story (and the Liar
paradox) goes through unchanged; when it is not, the name is displaced and
the paradox dissolves, unless the physical link mirrored by the connective
can still clone basis states, which silently restores the standard form.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .formulas import Binary, Conn, Formula, is_qubit_shaped, ShapeError
from .kernel import LogicConfig, PRESETS
from .search import (
    GoalRejectedError,
    IdempotenceReport,
    SearchLimits,
    decide_idempotence,
)
from . import quantum


class AnalyzerError(RuntimeError):
    """An analysis step could not be settled (e.g. indeterminate search)."""


# ---------------------------------------------------------------------------
# metalanguage sentences


class Name(NamedTuple):
    ident: str


class Hat(NamedTuple):
    arg: Name


class TruePred(NamedTuple):
    arg: "MetaSentence"


class Not(NamedTuple):
    arg: "MetaSentence"


class Def(NamedTuple):
    lhs: str
    rhs: "MetaSentence"


MetaSentence = Union[Name, Hat, TruePred, Not, Def]


def _same_sentence(m: MetaSentence, other) -> bool:
    return type(m) is type(other) and tuple.__eq__(m, other)


def _other_sentence(m: MetaSentence, other) -> bool:
    return not _same_sentence(m, other)


# A tuple equals any tuple of equal items, which would make Not(x) equal
# TruePred(x); a sentence equals only a sentence of its own class.
for _cls in (Name, Hat, TruePred, Not, Def):
    _cls.__eq__, _cls.__ne__ = _same_sentence, _other_sentence


def render_meta(m: MetaSentence) -> str:
    match m:
        case Name(ident):
            return f'"{ident}"'
        case Hat(Name(ident)):
            return f'"{ident}^"'
        case TruePred(arg):
            return f"True({render_meta(arg)})"
        case Not(arg):
            return f"~{render_meta(arg)}"
        case Def(lhs, rhs):
            return f"{lhs} := {render_meta(rhs)}"
    raise TypeError(f"not a metalanguage sentence: {m!r}")


# ---------------------------------------------------------------------------
# object-language side

LINK_TENSOR = "tensor"
LINK_ENTANGLEMENT = "entanglement"
LINK_NONE = "none"

LINK_OF = {
    Conn.WITH: LINK_NONE,
    Conn.PLUS: LINK_NONE,
    Conn.TIMES: LINK_TENSOR,
    Conn.PAR: LINK_TENSOR,
    Conn.ENT: LINK_ENTANGLEMENT,
    Conn.SEC: LINK_ENTANGLEMENT,
}

CLASS_STANDARD = "StandardSelfReference"
CLASS_GENERALIZED = "GeneralizedSelfReference"
CLASS_RECOVERED = "StandardRecoveredViaClone"


def self_compose(connective: Union[Conn, str], s0: Formula) -> Binary:
    """Duplicate ``s0`` and fuse the pair: the image of the diagonal map."""
    conn = Conn(connective)
    if conn in (Conn.ENT, Conn.SEC) and not is_qubit_shaped(s0):
        raise ShapeError(f"{conn.value} needs a qubit-shaped operand, got {s0}")
    return Binary(conn, s0, s0)


def _decided_idempotence(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits]
) -> IdempotenceReport:
    """The idempotence report, which a search limit must not have left open."""
    report = decide_idempotence(connective, cfg, limits)
    if report.idempotent is None:
        raise AnalyzerError(
            f"idempotence of {report.connective} under {cfg.describe()} is indeterminate "
            "(a search limit was hit)"
        )
    return report


def fixed_point_check(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> bool:
    """Does duplication have a fixed point, i.e. is the connective idempotent?"""
    return _decided_idempotence(connective, cfg, limits).idempotent


class LiarOutcome(NamedTuple):
    paradox: bool
    definition: Def
    reduced: MetaSentence
    note: str

    def rendering(self) -> str:
        head = render_meta(self.definition)
        if self.paradox:
            return f"{head}  ==>  L == ~L  (paradox)"
        return f'{head}  ==>  L == ~L^  with "L^" != "L"  (no paradox)'


def _liar_from(idempotent: bool, conn: Conn) -> LiarOutcome:
    if idempotent:
        definition = Def("L", Not(TruePred(Name("L"))))
        reduced: MetaSentence = Not(Name("L"))
        note = "duplication has a fixed point, so the name refers to the sentence itself"
        return LiarOutcome(True, definition, reduced, note)
    definition = Def("L", Not(TruePred(Hat(Name("L")))))
    reduced = Not(Hat(Name("L")))
    note = "duplication has no fixed point; the displaced name differs from the original"
    if LINK_OF[conn] == LINK_TENSOR:
        note += " (final classification depends on the physical link's clonability)"
    return LiarOutcome(False, definition, reduced, note)


def liar_analysis(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> LiarOutcome:
    """Rewrite the self-referential falsehood sentence via the truth schema."""
    conn = Conn(connective)
    return _liar_from(fixed_point_check(conn, cfg, limits), conn)


# ---------------------------------------------------------------------------
# physical link side


def clone_diagram_commutes() -> bool:
    """Exhaustive two-valued check that the basis-clone square commutes.

    The evaluation map sends the positive literal to 1 and the negative one
    to 0.  The clone acts componentwise as (id, NOT) at control 1 and
    (id, id) at control 0; commutation of both components on both inputs
    forces the naming map to coincide with the evaluation map.
    """
    sigma = {"A": 1, "A~": 0}

    def name_pos(_lit: str) -> int:  # the naming map on the positive literal
        return 1

    def name_neg(_lit: str) -> int:  # factors through dualization: A~ -> A -> 1
        return name_pos("A")

    ident = lambda v: v
    flip = lambda v: 1 - v

    # control 1: (A, A~) evaluates to (1, 0); the clone (id, NOT) must land on
    # the directly named pair (name_pos(A), name_neg(A~)) = (1, 1)
    case_one = (ident(sigma["A"]), flip(sigma["A~"])) == (name_pos("A"), name_neg("A~"))
    # control 0: (A~, A~) evaluates to (0, 0); the clone (id, id) keeps it
    case_zero = (ident(sigma["A~"]), ident(sigma["A~"])) == (sigma["A~"], sigma["A~"])
    forced_equal = sigma["A"] == name_pos("A")
    return case_one and case_zero and forced_equal


class CloneEvidence(NamedTuple):
    link: str
    basis_clonable: bool
    outcomes: Optional[dict]
    diagram_commutes: Optional[bool]
    note: str


def sufficient_condition_check(link: str) -> CloneEvidence:
    """Can the physical link mirrored by a connective clone basis states?

    The tensor link can (CNOT copies |0> and |1> exactly), which silently
    restores standard self-reference; the entanglement link cannot even be
    applied to a single basis state, so the generalized form stands.
    """
    if link == LINK_TENSOR:
        outcomes = {
            "zero": quantum.try_clone(quantum.zero()),
            "one": quantum.try_clone(quantum.one()),
            "cat": quantum.try_clone(quantum.cat()),  # informational: fails
        }
        clonable = outcomes["zero"].success and outcomes["one"].success
        return CloneEvidence(
            link=LINK_TENSOR,
            basis_clonable=clonable,
            outcomes=outcomes,
            diagram_commutes=clone_diagram_commutes(),
            note="CNOT with a |0> ancilla duplicates both basis states exactly; "
            "superpositions come out entangled instead",
        )
    if link == LINK_ENTANGLEMENT:
        return CloneEvidence(
            link=LINK_ENTANGLEMENT,
            basis_clonable=False,
            outcomes=None,
            diagram_commutes=None,
            note="self-entanglement of a basis state has no physical preparation; "
            "no clone map exists for this link",
        )
    raise ValueError(f"unknown physical link {link!r}; use 'tensor' or 'entanglement'")


# ---------------------------------------------------------------------------
# assembled report

OUTCOME_PARADOX = "paradox"
OUTCOME_NO_PARADOX = "no-paradox"

COMPOSITION_FOOTNOTE = (
    "The composed naming map is evaluated as sigma(name) = F(f(name)): duplication "
    "acts inside the object language first, then F names the result in the "
    "metalanguage.  Writings of the composite in the opposite order denote the "
    "same map."
)


class SelfRefReport(NamedTuple):
    """The classification of one connective under one configuration.  All of
    it derives from two decided facts, idempotence and the clonability of the
    physical link, so the report cannot contradict itself."""

    idempotence: IdempotenceReport  # decided: ``idempotent`` is not None
    basis_clonable: bool
    footnote: str = COMPOSITION_FOOTNOTE

    @property
    def connective(self) -> str:
        return self.idempotence.connective

    @property
    def logic(self) -> str:
        return self.idempotence.config.describe()

    @property
    def idempotent(self) -> bool:
        return self.idempotence.idempotent

    has_fixed_point = idempotent  # duplication has a fixed point iff it is idempotent

    @property
    def physical_link(self) -> str:
        return LINK_OF[Conn(self.connective)]

    @property
    def classification(self) -> str:
        if self.idempotent:
            return CLASS_STANDARD
        return CLASS_RECOVERED if self.basis_clonable else CLASS_GENERALIZED

    @property
    def liar_outcome(self) -> str:
        return OUTCOME_NO_PARADOX if self.classification == CLASS_GENERALIZED else OUTCOME_PARADOX

    @property
    def liar(self) -> LiarOutcome:
        return _liar_from(self.idempotent, Conn(self.connective))


def build_report(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> SelfRefReport:
    """Full classification for one connective under one configuration."""
    idempotence = _decided_idempotence(connective, cfg, limits)
    link = LINK_OF[Conn(idempotence.connective)]
    # no physical counterpart constrains duplication when there is no link
    clonable = link == LINK_NONE or sufficient_condition_check(link).basis_clonable
    return SelfRefReport(idempotence, clonable)


# ---------------------------------------------------------------------------
# the full connective x preset matrix


class MatrixRow(NamedTuple):
    connective: str
    logic: str
    applicable: bool
    report: Optional[SelfRefReport]
    reason: str = ""


def report_matrix(at_mode: str = "expand", limits: Optional[SearchLimits] = None) -> list[MatrixRow]:
    """One row per connective and preset, in a fixed order (6 x 3 rows)."""
    rows: list[MatrixRow] = []
    for conn in Conn:
        for preset in PRESETS:
            cfg = LogicConfig.preset(preset, at_mode=at_mode)
            try:
                report = build_report(conn, cfg, limits)
            except GoalRejectedError as err:
                rows.append(MatrixRow(conn.value, preset, False, None, str(err)))
                continue
            rows.append(MatrixRow(conn.value, preset, True, report))
    return rows


def report_to_dict(report: SelfRefReport) -> dict:
    return {
        "connective": report.connective,
        "logic": report.logic,
        "idempotent": report.idempotent,
        "has_fixed_point": report.has_fixed_point,
        "physical_link": report.physical_link,
        "basis_clonable": report.basis_clonable,
        "classification": report.classification,
        "liar_outcome": report.liar_outcome,
        "liar_definition": render_meta(report.liar.definition),
        "liar_reduced": render_meta(report.liar.reduced),
        "liar_note": report.liar.note,
        "footnote": report.footnote,
    }


def matrix_row_to_dict(row: MatrixRow) -> dict:
    if not row.applicable:
        return {
            "connective": row.connective,
            "logic": row.logic,
            "applicable": False,
            "reason": row.reason,
        }
    out = report_to_dict(row.report)
    out["applicable"] = True
    return out


def matrix_to_text(rows: list[MatrixRow]) -> str:
    header = ("conn", "logic", "idempotent", "link", "clonable", "classification", "liar")
    table = [header]
    for row in rows:
        if not row.applicable:
            table.append((row.connective, row.logic, "n/a", "-", "-", "not applicable", "-"))
            continue
        r = row.report
        table.append(
            (
                r.connective,
                r.logic,
                "yes" if r.idempotent else "no",
                r.physical_link,
                "yes" if r.basis_clonable else "no",
                r.classification,
                r.liar_outcome,
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

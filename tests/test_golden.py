"""Byte-level pins on proof rendering, rule enumeration order and search.

``golden_proofs.txt`` holds ``print_proof(tree, "text")`` for every golden
derivation followed by its mechanical dual, separated by blank lines; the 28
trees use all 19 rules.  The enumeration pins fix the rule-name sequence that
``rule_instances`` generates for one small sequent per rule kind.
``golden_search.txt`` pins what ``prove`` returns (verdict, limit, node count,
depth reached, the ``instances``, ``memo_hits``, ``cuts``, ``refuted`` and
``committed`` work counters and the text proof) on a fixed goal set under five configurations, plus one
depth-limited sequence that shares the memo across calls.  The counters pin
the work done, not only its outcome, so a change to the search loop that
keeps every verdict but visits sequents in another order shows here.
``golden_formulas.txt`` pins the formula maps and printers on every formula
of those goals and of the idempotence tests (text, LaTeX, dual, size,
``@``/``$`` expansion and classical collapse, or the ``ShapeError`` they
raise), then the LaTeX rendering of the golden derivations and their duals.
After a deliberate change of behaviour, regenerate both with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import random
from pathlib import Path

import pytest

from entlogic.formulas import (
    Binary,
    Conn,
    PosAtom,
    ShapeError,
    classical_collapse,
    dual,
    expand_connectives,
    qubit_of,
    size,
)
from entlogic.kernel import ALL_RULES, dualize_proof, rule_instances
from entlogic.search import SearchLimits, _idempotence_pair, clear_memo, prove
from entlogic.syntax import (
    formula_to_latex,
    parse_sequent,
    print_formula,
    print_proof,
    print_sequent,
)

import conftest
from strategies import random_sequent

GOLDEN_TEXT = Path(__file__).with_name("golden_proofs.txt")
GOLDEN_SEARCH = Path(__file__).with_name("golden_search.txt")
GOLDEN_FORMULAS = Path(__file__).with_name("golden_formulas.txt")


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


FLAGSHIPS = ("Q(A)@Q(A) |- Q(A)", "Q(A) |- Q(A)@Q(A)")

# (label, config, limits); the memo is cleared before each configuration
SEARCH_CONFIGS = (
    ("basic/primitive", conftest.BASIC, None),
    ("basic/expand", conftest.BASIC_EXPAND, None),
    ("weakening-only", conftest.WEAK_ONLY, None),
    ("contraction-only", conftest.CONTR_ONLY, SearchLimits(max_depth=6, max_nodes=2000, max_copies=2)),
    ("classical", conftest.CLASSICAL, SearchLimits(max_depth=5, max_nodes=2000)),
)


def _random_goals():
    rng = random.Random(1)
    return [random_sequent(rng, max_per_side=2) for _ in range(30)]


def _entry(label, goal, result) -> str:
    s = result.stats
    head = [
        f"== {label} | {print_sequent(goal)}",
        f"{result.verdict} limit={result.limit_hit} nodes={s.nodes_expanded} depth={s.max_depth}"
        f" instances={s.instances} memo_hits={s.memo_hits} cuts={s.cuts}"
        f" refuted={s.refuted} committed={s.committed}",
    ]
    return "\n".join(head + ([print_proof(result.proof, "text")] if result.proof else []))


def render_search_golden() -> str:
    named = [parse_sequent(t) for t in FLAGSHIPS] + [
        parse_sequent(t) for t, _ in conftest.GOLDEN_GOALS
    ]
    randoms = _random_goals()
    entries = []
    for label, cfg, limits in SEARCH_CONFIGS:
        clear_memo()
        entries += [_entry(label, g, prove(g, cfg, limits)) for g in named + randoms]
    # one sequence without clearing in between: pins what the shared memo reuses
    clear_memo()
    limits = SearchLimits(max_depth=3)
    entries += [_entry("basic/depth-3 sequence", g, prove(g, conftest.BASIC, limits)) for g in randoms]
    return "\n\n".join(entries) + "\n"


def test_search_results_match_golden():
    assert render_search_golden() == GOLDEN_SEARCH.read_text()


# @/$ nodes the parser cannot build: the maps that look inside them must raise
MISSHAPEN = (
    Binary(Conn.ENT, PosAtom("A"), qubit_of("B")),
    Binary(Conn.TIMES, PosAtom("C"), Binary(Conn.SEC, qubit_of("A"), PosAtom("B"))),
    Binary(Conn.ENT, Binary(Conn.ENT, qubit_of("A"), qubit_of("B")), qubit_of("C")),
)


def _corpus():
    goals = [parse_sequent(t) for t in FLAGSHIPS] + [
        parse_sequent(t) for t, _ in conftest.GOLDEN_GOALS
    ]
    formulas = [f for g in goals + _random_goals() for f in g.antecedent + g.succedent]
    formulas += [f for conn in Conn for f in _idempotence_pair(conn)]
    return list(dict.fromkeys(formulas + list(MISSHAPEN)))


def _shaped(fn, f) -> str:
    try:
        return print_formula(fn(f))
    except ShapeError as err:
        return f"ShapeError: {err}"


def render_formula_golden(trees) -> str:
    entries = [
        "\n".join(
            (
                f"== {print_formula(f)}",
                f"latex: {formula_to_latex(f)}",
                f"dual: {print_formula(dual(f))}",
                f"size: {size(f)}",
                f"expand: {_shaped(expand_connectives, f)}",
                f"collapse: {_shaped(classical_collapse, f)}",
            )
        )
        for f in _corpus()
    ]
    entries += [print_proof(t, "latex") for tree in trees for t in (tree, dualize_proof(tree))]
    return "\n\n".join(entries) + "\n"


def test_formula_maps_and_latex_match_golden(golden_proofs):
    trees = [tree for tree, _ in golden_proofs]
    assert render_formula_golden(trees) == GOLDEN_FORMULAS.read_text()


if __name__ == "__main__":
    GOLDEN_SEARCH.write_text(render_search_golden())
    GOLDEN_FORMULAS.write_text(
        render_formula_golden([conftest.proved(t, cfg) for t, cfg in conftest.GOLDEN_GOALS])
    )

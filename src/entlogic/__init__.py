"""Substructural sequent engine with an entanglement connective.

The package exposes four layers: the formula language and its rewriting maps,
the cut-free sequent kernel with configurable structural rules, exhaustive
backward proof search with equivalence/idempotence deciders, and the
self-reference analyzer backed by an exact two-qubit state-vector oracle.
"""

from importlib import import_module

# The public names of each submodule.  A submodule is imported when one of its
# names is first used, so `import entlogic.kernel` does not also load search,
# selfref and quantum.
_EXPORTS = {
    "formulas": (
        "Binary", "Conn", "Formula", "NegAtom", "PosAtom", "QubitFormula", "ShapeError",
        "classical_collapse", "dual", "expand_connectives", "expand_entanglement",
        "expand_sec", "ent", "is_qubit_shaped", "qubit_of", "sec",
    ),
    "kernel": (
        "LogicConfig", "ProofTree", "RuleInstance", "Sequent", "axiom_check",
        "check_proof", "dual_sequent", "dualize_proof", "rule_instances",
    ),
    "quantum": (
        "CloneOutcome", "QuantumState", "apply_cnot", "bell_state", "cat", "fidelity",
        "is_separable", "make_qubit", "one", "tensor", "try_clone", "zero",
    ),
    "search": (
        "EquivalenceResult", "GoalRejectedError", "IdempotenceReport", "SearchLimits",
        "SearchResult", "decide_equivalence", "decide_idempotence", "expand_sequent",
        "prove",
    ),
    "selfref": (
        "AnalyzerError", "LiarOutcome", "SelfRefReport", "build_report",
        "clone_diagram_commutes", "fixed_point_check", "liar_analysis", "report_matrix",
        "self_compose", "sufficient_condition_check",
    ),
    "syntax": (
        "ParseError", "SourceSpan", "parse_formula", "parse_sequent", "print_formula",
        "print_proof", "print_sequent", "proof_from_json",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value

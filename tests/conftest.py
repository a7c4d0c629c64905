from __future__ import annotations

import pytest

from entlogic.kernel import LogicConfig, ProofTree
from entlogic.search import SearchLimits, prove
from entlogic.syntax import parse_sequent

BASIC = LogicConfig.preset("basic", at_mode="primitive")
BASIC_EXPAND = LogicConfig.preset("basic", at_mode="expand")
LINEAR = LogicConfig.preset("linear", at_mode="expand")
CLASSICAL = LogicConfig.preset("classical", at_mode="primitive")
CLASSICAL_EXPAND = LogicConfig.preset("classical", at_mode="expand")

WEAK_ONLY = LogicConfig(weakening=True, contraction=False, at_mode="primitive")
CONTR_ONLY = LogicConfig(weakening=False, contraction=True, at_mode="primitive")


def proved(text: str, cfg: LogicConfig, limits: SearchLimits | None = None) -> ProofTree:
    result = prove(parse_sequent(text), cfg, limits)
    assert result.is_provable, f"expected a proof of {text} under {cfg.describe()}"
    return result.proof


# The goals of the golden derivations and the configs they are proved in.
GOLDEN_GOALS: list[tuple[str, LogicConfig]] = [
    ("Q(A) |- Q(A)@Q(A)", CLASSICAL),
    ("Q(A)@Q(A) |- Q(A)", CLASSICAL),
    ("X & X |- X", BASIC),
    ("X |- X & X", BASIC),
    ("X | X |- X", BASIC),
    ("(A | A) & (~A | ~A) |- Q(A)", BASIC),
    ("Q(A) |- (A | A) & (~A | ~A)", BASIC),
    ("A |- A par A", WEAK_ONLY),
    ("A par A |- A", CONTR_ONLY),
    ("A * A |- A", WEAK_ONLY),
    ("A |- A * A", CONTR_ONLY),
    ("Q(A)@Q(A) |- Q(A), Q(A)", BASIC),
    ("Q(A), Q(A) |- Q(A)$Q(A)", BASIC),
    ("Q(A)$Q(A) |- Q(A) * Q(A)", BASIC),
]


@pytest.fixture(scope="session")
def golden_proofs() -> list[tuple[ProofTree, LogicConfig]]:
    """Known-good derivations across the rule repertoire, with their configs."""
    return [(proved(text, cfg), cfg) for text, cfg in GOLDEN_GOALS]

"""Sequents, logic configurations, cut-free rules, and the proof checker.

Sequent sides are multisets (exchange is implicit): both sides are stored as
canonically sorted tuples, so equality and hashing follow multiset semantics.

The rule set is the two-sided additive/multiplicative fragment plus the
primitive rules for ``@`` (right formation, left reflection) and their exact
mirror images for ``$``, with weakening and contraction available as toggles.
Axioms are literal-only; compound identity is derivable, not axiomatic.
Each rule is one row of :data:`RULES`; enumeration, checking, dualization
and rule gating all read those rows.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .formulas import (
    DUAL_CONN,
    Binary,
    Conn,
    Formula,
    dual,
    fold,
    is_literal,
    size as formula_size,
    sort_key,
)

# ---------------------------------------------------------------------------
# sequents


def _canon(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(sorted(formulas, key=sort_key))


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "antecedent", _canon(self.antecedent))
        object.__setattr__(self, "succedent", _canon(self.succedent))

    @classmethod
    def of(cls, antecedent: Iterable[Formula], succedent: Iterable[Formula]) -> "Sequent":
        return cls(tuple(antecedent), tuple(succedent))

    def size(self) -> int:
        return sum(formula_size(f) for f in self.antecedent + self.succedent)

    def side(self, which: str) -> tuple[Formula, ...]:
        return self.antecedent if which == LEFT else self.succedent

    def contains_conn(self, *conns: Conn) -> bool:
        def node(f: Binary, left: bool, right: bool) -> bool:
            return f.conn in conns or left or right

        return any(fold(f, lambda _: False, node) for f in self.antecedent + self.succedent)

    def __str__(self) -> str:
        from .syntax import print_sequent

        return print_sequent(self)


def dual_sequent(s: Sequent) -> Sequent:
    """Swap sides and dualize every formula."""
    return Sequent.of((dual(f) for f in s.succedent), (dual(f) for f in s.antecedent))


def _orient(side: str, active: tuple[Formula, ...], passive: tuple[Formula, ...]) -> Sequent:
    """The sequent with ``active`` on ``side`` and ``passive`` on the other."""
    return Sequent(active, passive) if side == LEFT else Sequent(passive, active)


def _remove_one(side: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    out = list(side)
    out.remove(f)
    return tuple(out)


def _union(*sides: tuple[Formula, ...]) -> tuple[Formula, ...]:
    merged: list[Formula] = []
    for side in sides:
        merged.extend(side)
    return _canon(merged)


def _distinct(side: tuple[Formula, ...]) -> list[Formula]:
    return list(dict.fromkeys(side))


def _submultisets(side: tuple[Formula, ...]) -> Iterator[tuple[tuple[Formula, ...], tuple[Formula, ...]]]:
    """All (part, rest) splits of a multiset, deterministically ordered."""
    distinct = _distinct(side)
    mults = [side.count(f) for f in distinct]
    for counts in itertools.product(*(range(m + 1) for m in mults)):
        part: list[Formula] = []
        rest: list[Formula] = []
        for f, m, k in zip(distinct, mults, counts):
            part.extend([f] * k)
            rest.extend([f] * (m - k))
        yield tuple(part), tuple(rest)


# ---------------------------------------------------------------------------
# rules

# Rule kinds.  Apart from the axiom, every rule has a principal formula on
# one side (the active side); the kind says what the premises hold in its
# place, and the row's connective (None for the structural rules) says which
# formulas can be principal.
AXIOM = "axiom"
WEAKEN = "weaken"
CONTRACT = "contract"
PICK_LEFT = "pick-left"
PICK_RIGHT = "pick-right"
BOTH = "both-subformulas"
BRANCH = "branch"
SPLIT = "split"

LEFT = "left"
RIGHT = "right"
_OTHER = {LEFT: RIGHT, RIGHT: LEFT, None: None}


class Rule(NamedTuple):
    name: str
    kind: str
    side: Optional[str]  # side of the principal formula
    conn: Optional[Conn]  # connective of the principal formula


# The calculus, one row per rule.  The row order is ALL_RULES.
RULES = {
    row.name: row
    for row in (
        Rule("axiom", AXIOM, None, None),
        Rule("&R", BRANCH, RIGHT, Conn.WITH),
        Rule("&L1", PICK_LEFT, LEFT, Conn.WITH),
        Rule("&L2", PICK_RIGHT, LEFT, Conn.WITH),
        Rule("|R1", PICK_LEFT, RIGHT, Conn.PLUS),
        Rule("|R2", PICK_RIGHT, RIGHT, Conn.PLUS),
        Rule("|L", BRANCH, LEFT, Conn.PLUS),
        Rule("*R", SPLIT, RIGHT, Conn.TIMES),
        Rule("*L", BOTH, LEFT, Conn.TIMES),
        Rule("parR", BOTH, RIGHT, Conn.PAR),
        Rule("parL", SPLIT, LEFT, Conn.PAR),
        Rule("@-form", BOTH, RIGHT, Conn.ENT),
        Rule("@-explrefl", SPLIT, LEFT, Conn.ENT),
        Rule("$-form", BOTH, LEFT, Conn.SEC),
        Rule("$-explrefl", SPLIT, RIGHT, Conn.SEC),
        Rule("weak-L", WEAKEN, LEFT, None),
        Rule("weak-R", WEAKEN, RIGHT, None),
        Rule("contr-L", CONTRACT, LEFT, None),
        Rule("contr-R", CONTRACT, RIGHT, None),
    )
}

ALL_RULES = tuple(RULES)

# Deterministic attempt order: axiom, then structural, then the remaining
# non-splitting rules, then the context-splitting rules.  Only the axiom /
# non-splitting / splitting grouping is contractual; the placement of the
# structural block reproduces the golden derivations exactly.
_STAGE = {AXIOM: 0, WEAKEN: 1, CONTRACT: 1, SPLIT: 3}
RULE_ORDER = tuple(sorted(ALL_RULES, key=lambda name: _STAGE.get(RULES[name].kind, 2)))

# The invertible rules: a provable conclusion has provable premises only.
INVERTIBLE = frozenset(name for name, row in RULES.items() if row.kind in (BOTH, BRANCH))

# The mirror image of a rule: same kind, other side, dual connective.
_BY_SHAPE = {(r.kind, r.side, r.conn): r.name for r in RULES.values()}
_DUAL_RULE = {
    r.name: _BY_SHAPE[r.kind, _OTHER[r.side], DUAL_CONN.get(r.conn)] for r in RULES.values()
}

# What each premise's active side holds in place of the principal formula f,
# for every kind but the axiom and the splits; the passive side is unchanged.
_REPLACEMENTS = {
    WEAKEN: (lambda f: (),),
    CONTRACT: (lambda f: (f, f),),
    PICK_LEFT: (lambda f: (f.left,),),
    PICK_RIGHT: (lambda f: (f.right,),),
    BOTH: (lambda f: (f.left, f.right),),
    BRANCH: (lambda f: (f.left,), lambda f: (f.right,)),
}


def _arity(rule: Rule) -> int:
    if rule.kind == AXIOM:
        return 0
    return 2 if rule.kind == SPLIT else len(_REPLACEMENTS[rule.kind])


def _can_be_principal(rule: Rule, f: Formula) -> bool:
    return rule.conn is None or (isinstance(f, Binary) and f.conn is rule.conn)


# ---------------------------------------------------------------------------
# configurations


AT_PRIMITIVE = "primitive"
AT_EXPAND = "expand"

# preset name -> (weakening, contraction, allow_ent)
_PRESETS = {
    "basic": (False, False, True),
    "linear": (False, False, False),
    "classical": (True, True, True),
}
_PRESET_OF = {flags: name for name, flags in _PRESETS.items()}
PRESETS = tuple(_PRESETS)


@dataclass(frozen=True)
class LogicConfig:
    weakening: bool = False
    contraction: bool = False
    at_mode: str = AT_EXPAND
    allow_ent: bool = True

    def __post_init__(self):
        if self.at_mode not in (AT_PRIMITIVE, AT_EXPAND):
            raise ValueError(f"unknown at_mode: {self.at_mode!r}")

    @classmethod
    def preset(cls, name: str, at_mode: str = AT_EXPAND) -> "LogicConfig":
        if name not in _PRESETS:
            raise ValueError(f"unknown preset: {name!r}")
        weakening, contraction, allow_ent = _PRESETS[name]
        return cls(weakening, contraction, at_mode, allow_ent)

    def rule_enabled(self, rule: str) -> bool:
        row = RULES[rule]
        if row.kind == WEAKEN:
            return self.weakening
        if row.kind == CONTRACT:
            return self.contraction
        return self.allow_ent or row.conn not in (Conn.ENT, Conn.SEC)

    def describe(self) -> str:
        """The name of the preset with these rules, else the structural rules."""
        name = _PRESET_OF.get((self.weakening, self.contraction, self.allow_ent))
        if name:
            return name
        weakening = "weakening" if self.weakening else "no-weakening"
        return weakening + ("+contraction" if self.contraction else "+no-contraction")


# ---------------------------------------------------------------------------
# instances and enumeration


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    conclusion: Sequent
    premises: tuple[Sequent, ...]
    principal: Optional[Formula] = None


@dataclass(frozen=True)
class ProofTree:
    node: RuleInstance
    children: tuple["ProofTree", ...] = ()
    # nodes on the longest branch, taken from the children's when built
    _height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_height", 1 + max((c._height for c in self.children), default=0))

    @property
    def conclusion(self) -> Sequent:
        return self.node.conclusion

    def height(self) -> int:
        return self._height

    def iter_nodes(self) -> Iterator["ProofTree"]:
        """Every node in pre-order, subtrees in premise order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)

    def __str__(self) -> str:
        from .syntax import print_proof

        return print_proof(self, "text")


def fold_proof(p, node, children=attrgetter("children")):
    """Evaluate a proof tree bottom-up from an explicit stack: in post-order,
    ``node(x, values, depth)`` gets each node with its subtrees' values in
    premise order and its distance from the root.  ``children`` reads a
    node's subtrees, so the fold also walks the nested dicts of the JSON form.
    """
    values: list = []
    stack = [(p, 0, None)]
    while stack:
        x, depth, arity = stack.pop()
        if arity is None:  # first visit: come back once the subtrees are done
            kids = children(x)
            stack.append((x, depth, len(kids)))
            for c in reversed(kids):
                stack.append((c, depth + 1, None))
        else:
            start = len(values) - arity
            values[start:] = [node(x, values[start:], depth)]
    return values[0]


def axiom_check(s: Sequent) -> bool:
    """Literal identity only; compound identity must be derived."""
    return (
        len(s.antecedent) == 1
        and len(s.succedent) == 1
        and s.antecedent[0] == s.succedent[0]
        and is_literal(s.antecedent[0])
    )


# formula -> the literals occurring in it, for as long as the formula lives
_LITERALS: "weakref.WeakKeyDictionary[Formula, set]" = weakref.WeakKeyDictionary()


def literal_refuted(s: Sequent) -> bool:
    """A lone literal on one side occurs nowhere on the other: with weakening
    and contraction off, the sequent then has no proof (CHANGES.md)."""
    for side, other in ((s.antecedent, s.succedent), (s.succedent, s.antecedent)):
        lone = [f for f in side if is_literal(f)]
        seen = (fold(f, lambda lit: {lit}, lambda _f, l, r: l | r, _LITERALS) for f in other)
        if lone and not set().union(*seen).issuperset(lone):
            return True
    return False


def _split_premises(side: str, rest: tuple[Formula, ...], passive: tuple[Formula, ...], f: Binary):
    """Both premises of a context-splitting rule, for every split of the
    contexts; the antecedent split is the outer loop on either side."""
    ante, succ = (rest, passive) if side == LEFT else (passive, rest)
    for (a1, a2), (s1, s2) in itertools.product(_submultisets(ante), _submultisets(succ)):
        if side == LEFT:
            yield Sequent(a1 + (f.left,), s1), Sequent(a2 + (f.right,), s2)
        else:
            yield Sequent(a1, s1 + (f.left,)), Sequent(a2, s2 + (f.right,))


def rule_instances(s: Sequent, cfg: LogicConfig) -> Iterator[RuleInstance]:
    """Every backward-applicable instance with conclusion ``s``, lazily.

    Principal choices and, for the context-splitting rules, all multiset
    partitions of the side contexts are generated in a fixed order, so a
    caller that stops early never builds the instances after that point.
    """
    distinct = {LEFT: _distinct(s.antecedent), RIGHT: _distinct(s.succedent)}
    for name in RULE_ORDER:
        rule = RULES[name]
        if not cfg.rule_enabled(name):
            continue
        if rule.kind == AXIOM:
            if axiom_check(s):
                yield RuleInstance(name, s, (), s.antecedent[0])
            continue
        active, passive = s.side(rule.side), s.side(_OTHER[rule.side])
        for f in distinct[rule.side]:
            if not _can_be_principal(rule, f):
                continue
            rest = _remove_one(active, f)
            if rule.kind == SPLIT:
                splits = _split_premises(rule.side, rest, passive, f)
                yield from (RuleInstance(name, s, premises, f) for premises in splits)
            else:
                premises = tuple(
                    _orient(rule.side, rest + new(f), passive) for new in _REPLACEMENTS[rule.kind]
                )
                yield RuleInstance(name, s, premises, f)


# ---------------------------------------------------------------------------
# checking


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _instance_ok(inst: RuleInstance, cfg: LogicConfig) -> Optional[str]:
    """None when valid, else a reason string.  Validation is independent of
    the enumeration in :func:`rule_instances`: it solves multiset equations
    instead of replaying the search's split generation."""
    name, c, prem, recorded = inst.rule, inst.conclusion, inst.premises, inst.principal
    rule = RULES.get(name)
    if rule is None:
        return f"unknown rule {name!r}"
    if not cfg.rule_enabled(name):
        return f"rule {name} not enabled by this configuration"
    if len(prem) != _arity(rule):
        return f"rule {name} takes {_arity(rule)} premise(s), got {len(prem)}"

    if rule.kind == AXIOM:
        if not axiom_check(c):
            return "axiom must be a literal identity"
        if recorded is not None and recorded != c.antecedent[0]:
            return "recorded principal does not match the axiom literal"
        return None

    side, other = rule.side, _OTHER[rule.side]
    active = c.side(side)
    principals = [
        f
        for f in _distinct(active)
        if _can_be_principal(rule, f) and (recorded is None or recorded == f)
    ]
    if rule.kind == SPLIT:
        p1, p2 = prem
        for f in principals:
            if f.left not in p1.side(side) or f.right not in p2.side(side):
                continue
            split_ok = _union(
                _remove_one(p1.side(side), f.left), _remove_one(p2.side(side), f.right)
            ) == _remove_one(active, f)
            if split_ok and _union(p1.side(other), p2.side(other)) == c.side(other):
                return None
        return f"{name}: premises do not split the context of any principal formula"

    if any(p.side(other) != c.side(other) for p in prem):
        return f"{name}: passive side must be unchanged"
    for f in principals:
        rest = _remove_one(active, f)
        expected = (_union(rest, new(f)) for new in _REPLACEMENTS[rule.kind])
        if all(p.side(side) == e for p, e in zip(prem, expected)):
            return None
    return f"{name}: no principal formula matches the premises"


def check_proof(p: ProofTree, cfg: LogicConfig) -> CheckResult:
    """Validate every node against the enabled rule schemas.

    The verdict is truthy/falsy; on failure the result carries the child-index
    path to the first offending node and a reason.  Nodes are checked in
    pre-order, each against its parent's premise first.
    """
    stack: list[tuple[ProofTree, tuple[int, ...], Optional[Sequent]]] = [(p, (), None)]
    while stack:
        tree, path, premise = stack.pop()
        if premise is not None and tree.conclusion != premise:
            return CheckResult(False, path, "child conclusion differs from premise")
        reason = _instance_ok(tree.node, cfg)
        if reason is not None:
            return CheckResult(False, path, reason)
        premises = tree.node.premises
        if len(tree.children) != len(premises):
            return CheckResult(False, path, "children do not match premises")
        for i in reversed(range(len(premises))):
            stack.append((tree.children[i], path + (i,), premises[i]))
    return CheckResult(True)


def dualize_proof(p: ProofTree) -> ProofTree:
    """Mechanical dual: swap sides, dualize formulas, mirror rule labels."""

    def node(tree: ProofTree, children: list, _depth: int) -> ProofTree:
        inst = tree.node
        dual_inst = RuleInstance(
            rule=_DUAL_RULE[inst.rule],
            conclusion=dual_sequent(inst.conclusion),
            premises=tuple(dual_sequent(q) for q in inst.premises),
            principal=dual(inst.principal) if inst.principal is not None else None,
        )
        return ProofTree(dual_inst, tuple(children))

    return fold_proof(p, node)

"""Backward proof search with definitive non-provability verdicts.

One engine decides every configuration: a memoised depth-first search for a
proof of height at most a budget, run over a sequence of budgets.  A round
that cuts no branch at its budget has swept the whole space, so its failure
is a definitive NotProvable.  With contraction disabled every rule's premises
are strictly smaller than its conclusion, so a single round at the depth
limit suffices; a lone literal with no twin (weakening off too) or a failed
premise of an invertible rule then settles a sequent without a sweep.  With
contraction enabled premises can grow and the space is usually infinite; the
rounds then deepen the budget one step at a time (iterative deepening), which
finds a minimal-height derivation whenever one exists and reports Unknown
when a limit binds.  Repeated sequents along a branch need no dedicated loop
check: a proof with such a repeat can always be shortened past it, and the
budget already bounds every branch.  The search keeps its own stack of
suspended frames, one per open sequent, so the height of a proof costs heap,
not Python frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Optional, Union

from .formulas import Binary, Conn, Formula, PosAtom, dual, expand_connectives, qubit_of
from .kernel import (
    AT_EXPAND,
    CONTRACT,
    INVERTIBLE,
    RULES,
    LogicConfig,
    ProofTree,
    Sequent,
    check_proof,
    literal_refuted,
    rule_instances,
)

PROVABLE = "provable"
NOT_PROVABLE = "not_provable"
UNKNOWN = "unknown"


class GoalRejectedError(ValueError):
    """The configuration does not admit this goal (e.g. @/$ under linear)."""


class _Limit(Exception):
    def __init__(self, which: str):
        self.which = which
        super().__init__(which)


@dataclass(frozen=True)
class SearchLimits:
    max_depth: int = 64
    max_nodes: int = 1_000_000
    # optional cap on how many copies of one formula backward contraction may
    # pile up on a side; capped branches count as truncations, so a capped
    # search can report Provable or Unknown but never a definitive NotProvable
    max_copies: Optional[int] = None

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("search limits must be positive")
        if self.max_copies is not None and self.max_copies <= 0:
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    max_depth: int
    # deterministic work counters: rule instances generated, answers taken
    # from a memo table, branches cut by the depth or height budget, sequents
    # refuted by their literals, and invertible instances committed to
    instances: int = 0
    memo_hits: int = 0
    cuts: int = 0
    refuted: int = 0
    committed: int = 0


@dataclass(frozen=True)
class SearchResult:
    verdict: str
    goal: Sequent
    proof: Optional[ProofTree]
    limit_hit: Optional[str]
    stats: SearchStats

    @property
    def is_provable(self) -> bool:
        return self.verdict == PROVABLE

    @property
    def is_not_provable(self) -> bool:
        return self.verdict == NOT_PROVABLE

    @property
    def is_unknown(self) -> bool:
        return self.verdict == UNKNOWN


def expand_sequent(s: Sequent) -> Sequent:
    """Rewrite every @/$ node on both sides by its definition."""
    return Sequent.of(
        (expand_connectives(f) for f in s.antecedent),
        (expand_connectives(f) for f in s.succedent),
    )


def _cfg_sig(cfg: LogicConfig) -> tuple:
    # at_mode is applied before the search proper, so it is not part of the key
    return (cfg.weakening, cfg.contraction, cfg.allow_ent)


# The memo tables: sequent -> the first proof found for it (a tree knows its
# height); sequent -> the budget its search failed at (inf: failed outright).
_Tables = tuple[dict[Sequent, ProofTree], dict[Sequent, float]]

_INF = float("inf")
_OPEN = object()  # a memo lookup's answer when the sequent must be searched

# Tables shared across calls, one pair per configuration.  Only searches
# without contraction use them: those record outright failures only, which
# hold at every budget.  A search with contraction starts from fresh tables,
# so its budget-limited failures and node-limited verdicts do not depend on
# earlier calls.
_MEMO: dict[tuple, _Tables] = {}


def clear_memo() -> None:
    _MEMO.clear()


class _Search:
    """Memoised DFS for a proof within a height budget, run round by round.

    ``_dfs(seq, budget)`` decides "a proof of height at most ``budget``
    exists".  A failure with no cut below it means the backward search tree
    under the sequent is finite and fully swept, so it holds at every budget
    (recorded as ``inf``), as does a failure a pruning settles.  The depth
    a node sits at is ``round - budget + 1``.  ``_dfs`` is one loop over a
    stack of ``_expand`` generators, one per open sequent: the top one either
    yields a premise the memo cannot answer, which is pushed, or returns, and
    its answer is sent to the one below.
    """

    def __init__(self, cfg: LogicConfig, limits: SearchLimits):
        self.cfg = cfg
        self.limits = limits
        self.success, self.fail_at = (
            ({}, {}) if cfg.contraction else _MEMO.setdefault(_cfg_sig(cfg), ({}, {}))
        )
        self.round = 0
        self.nodes = 0
        self.deepest = 0
        self.instances = 0
        self.memo_hits = 0
        self.cuts = 0
        self.refuted = 0
        self.committed = 0
        # the prunings hold in the contraction-free regimes only (CHANGES.md)
        self.refute, self.commit = not (cfg.weakening or cfg.contraction), not cfg.contraction

    def run(self, goal: Sequent) -> tuple[Optional[ProofTree], Optional[str]]:
        top = self.limits.max_depth
        for budget in range(1, top + 1) if self.cfg.contraction else (top,):
            self.round = budget
            cuts_before = self.cuts
            found = self._dfs(goal, budget)
            if found is not None:
                return found, None
            if self.cuts == cuts_before:
                return None, None
        return None, "depth"

    def _lookup(self, seq: Sequent, budget: int):
        """The memo's answer for ``seq`` at ``budget``: a proof, None for a
        failure, or ``_OPEN`` when the sequent has to be searched."""
        cached = self.success.get(seq)
        if cached is not None and cached.height() <= budget:
            self.memo_hits += 1
            return cached
        failed_at = self.fail_at.get(seq)
        if failed_at is not None and budget <= failed_at:
            self.memo_hits += 1
            if failed_at != _INF:
                self.cuts += 1  # that failure was budget-limited
            return None
        if budget == 0:
            self.cuts += 1
            return None
        return _OPEN

    def _dfs(self, goal: Sequent, budget: int) -> Optional[ProofTree]:
        answer = self._lookup(goal, budget)
        if answer is not _OPEN:
            return answer
        stack, answer = [self._expand(goal, budget)], None
        while stack:
            try:
                stack.append(self._expand(*stack[-1].send(answer)))
                answer = None
            except StopIteration as done:
                stack.pop()
                answer = done.value
        return answer

    def _expand(
        self, seq: Sequent, budget: int
    ) -> Generator[tuple[Sequent, int], Optional[ProofTree], Optional[ProofTree]]:
        """One frame of :meth:`_dfs`: the sequent, its budget, its lazy
        instances, the one being tried with its premises' proofs so far, and
        the cut count on entry.  It yields each premise the memo cannot answer
        and is sent back that premise's proof, or None."""
        self.nodes += 1
        if self.nodes > self.limits.max_nodes:
            raise _Limit("nodes")
        self.deepest = max(self.deepest, self.round - budget + 1)
        if self.refute and literal_refuted(seq):
            self.refuted += 1
            self.fail_at[seq] = _INF
            return None
        cuts_before = self.cuts
        for inst in rule_instances(seq, self.cfg):
            self.instances += 1
            if self.limits.max_copies is not None and RULES[inst.rule].kind == CONTRACT:
                grown = inst.premises[0].side(RULES[inst.rule].side)
                if grown.count(inst.principal) > self.limits.max_copies:
                    self.cuts += 1
                    continue
            children: list[ProofTree] = []
            for premise in inst.premises:
                sub = self._lookup(premise, budget - 1)
                if sub is _OPEN:
                    sub = yield premise, budget - 1
                if sub is None:
                    break
                children.append(sub)
            else:
                found = ProofTree(inst, tuple(children))
                self.success.setdefault(seq, found)  # a stored proof that did not fit stays
                return found
            if self.commit and inst.rule in INVERTIBLE and self.fail_at.get(premise) == _INF:
                # the premise has no proof at any height, so neither has seq
                self.committed += 1
                self.fail_at[seq] = _INF
                return None
        if self.cuts == cuts_before:
            self.fail_at[seq] = _INF
        elif self.cfg.contraction:  # a budget-limited failure: only for this call's tables
            self.fail_at[seq] = budget
        return None

    def stats(self) -> SearchStats:
        counters = (self.instances, self.memo_hits, self.cuts, self.refuted, self.committed)
        return SearchStats(self.nodes, self.deepest, *counters)


def prove(s: Sequent, cfg: LogicConfig, limits: Optional[SearchLimits] = None) -> SearchResult:
    """Decide ``s`` under ``cfg``; sound and complete for the cut-free system.

    Provable results always carry a tree revalidated by the independent
    checker.  NotProvable is only ever reported from a fully exhausted search,
    never from a limit hit.
    """
    limits = limits or SearchLimits()
    if not cfg.allow_ent and s.contains_conn(Conn.ENT, Conn.SEC):
        raise GoalRejectedError(f"configuration {cfg.describe()!r} rejects goals containing @/$")
    goal = expand_sequent(s) if cfg.at_mode == AT_EXPAND else s

    tree: Optional[ProofTree] = None
    engine = _Search(cfg, limits)
    try:
        tree, limit_hit = engine.run(goal)
    except _Limit as cut:
        limit_hit = cut.which

    stats = engine.stats()
    if tree is not None:
        verdict_check = check_proof(tree, cfg)
        if not verdict_check:
            raise RuntimeError(
                f"internal error: search produced a proof rejected by the checker "
                f"({verdict_check.reason} at {verdict_check.path})"
            )
        return SearchResult(PROVABLE, goal, tree, None, stats)
    if limit_hit is not None:
        return SearchResult(UNKNOWN, goal, None, limit_hit, stats)
    return SearchResult(NOT_PROVABLE, goal, None, None, stats)


# ---------------------------------------------------------------------------
# equivalence and idempotence


EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str
    forward: SearchResult  # f |- g
    backward: SearchResult  # g |- f

    @property
    def failing_directions(self) -> tuple[str, ...]:
        out = []
        if self.forward.is_not_provable:
            out.append(FORWARD)
        if self.backward.is_not_provable:
            out.append(BACKWARD)
        return tuple(out)


def decide_equivalence(
    f: Formula, g: Formula, cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> EquivalenceResult:
    """Mutual derivability of two formulas under the given configuration."""
    fwd = prove(Sequent.of((f,), (g,)), cfg, limits)
    bwd = prove(Sequent.of((g,), (f,)), cfg, limits)
    if fwd.is_provable and bwd.is_provable:
        verdict = EQUIVALENT
    elif fwd.is_not_provable or bwd.is_not_provable:
        verdict = NOT_EQUIVALENT
    else:
        verdict = UNKNOWN
    return EquivalenceResult(verdict, fwd, bwd)


WEAKENING = "weakening"
CONTRACTION = "contraction"


@dataclass(frozen=True)
class IdempotenceReport:
    connective: str
    config: LogicConfig
    compound: Formula
    single: Formula
    idempotent: Optional[bool]  # None when a limit made the search indeterminate
    forward: SearchResult  # compound |- single
    backward: SearchResult  # single |- compound
    forward_rescue: tuple[str, ...]
    backward_rescue: tuple[str, ...]


def _as_conn(connective: Union[Conn, str]) -> Conn:
    return connective if isinstance(connective, Conn) else Conn(connective)


def _idempotence_pair(conn: Conn) -> tuple[Formula, Formula]:
    # @ is tested on the qubit proposition, $ on its dual shape: the two
    # tests are then mechanical duals of each other, so the connectives
    # provably receive the same verdict in every configuration and mode.
    if conn is Conn.ENT:
        single: Formula = qubit_of("A")
    elif conn is Conn.SEC:
        single = dual(qubit_of("A"))
    else:
        single = PosAtom("X")
    return Binary(conn, single, single), single


def _rescuers(goal: Sequent, cfg: LogicConfig, limits: Optional[SearchLimits]) -> tuple[str, ...]:
    # A rescuing proof only needs to rebalance the two copies produced by the
    # test pair, so a budget tied to the goal size is ample; it keeps the
    # contraction-only probe (whose search space is infinite when the goal is
    # not rescued) from burning the full node budget.
    base = limits or SearchLimits()
    probe = SearchLimits(
        max_depth=min(base.max_depth, max(8, goal.size() + 2)),
        max_nodes=min(base.max_nodes, 200_000),
        max_copies=2,
    )
    out = []
    for name, single in ((WEAKENING, LogicConfig(True, False, cfg.at_mode, cfg.allow_ent)),
                         (CONTRACTION, LogicConfig(False, True, cfg.at_mode, cfg.allow_ent))):
        if prove(goal, single, probe).is_provable:
            out.append(name)
    return tuple(out)


def decide_idempotence(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> IdempotenceReport:
    """Is ``X . X`` interderivable with ``X`` under ``cfg``?

    Failing directions are re-tried with each structural rule singly enabled
    to attribute which missing rule the direction needed.  Results are pure
    and cached per (connective, configuration, limits).
    """
    return _decide_idempotence_cached(_as_conn(connective), cfg, limits)


@lru_cache(maxsize=512)
def _decide_idempotence_cached(
    conn: Conn, cfg: LogicConfig, limits: Optional[SearchLimits]
) -> IdempotenceReport:
    compound, single = _idempotence_pair(conn)
    eq = decide_equivalence(compound, single, cfg, limits)
    idempotent: Optional[bool]
    if eq.verdict == EQUIVALENT:
        idempotent = True
    elif eq.verdict == NOT_EQUIVALENT:
        idempotent = False
    else:
        idempotent = None
    fwd_rescue = _rescuers(eq.forward.goal, cfg, limits) if eq.forward.is_not_provable else ()
    bwd_rescue = _rescuers(eq.backward.goal, cfg, limits) if eq.backward.is_not_provable else ()
    return IdempotenceReport(
        connective=conn.value,
        config=cfg,
        compound=compound,
        single=single,
        idempotent=idempotent,
        forward=eq.forward,
        backward=eq.backward,
        forward_rescue=fwd_rescue,
        backward_rescue=bwd_rescue,
    )

"""Backward proof search with definitive non-provability verdicts.

With weakening and contraction both on (classical) a goal is decided by
construction.  The calculus is then G3c over independent literals, so a
goal is provable exactly when B2 validates it: a goal B2 falsifies is
settled before anything is built, with the model and valuation as its
certificate (``kernel.countermodel``), and the proof of any other is built
in one pass that never retries a choice (``_Construction``).  Such a proof
is not minimal-height, and only the node limit bounds its construction.

Every other configuration is decided by one search: a memoised depth-first
search for a proof of height at most a budget, run over a sequence of
budgets.  A round that cuts no branch at its budget has swept the whole
space, so its failure is a definitive NotProvable.  A sequent false in a
finite model that validates every enabled rule has no proof, so each node
is evaluated in one such model, the strongest that fits the goal's layout
(``kernel.Evaluator``: one per layout, kept with the memo and shared by
the goals with that layout, looked up at the first node it is needed), and
one that the model falsifies fails outright; a context split with a
premise the model falsifies is skipped before its premises are built, so
such a premise is never a node.  With contraction disabled every rule's
premises are strictly smaller than its conclusion, so no proof is taller
than the goal's size: one round at that budget cuts nothing, the depth
limit does not apply, and a formula that cannot meet the other side's
literals at axioms (weakening off too: a literal without its twin there,
an ``&`` on the left or ``|`` on the right neither of whose subformulas
can, another compound formula one of whose subformulas cannot) or a
failed premise of an invertible rule settles a sequent without a sweep
too.  With contraction alone premises can grow and the space is usually
infinite.  A goal a model falsifies is settled before any search, as in
the classical case; otherwise the rounds deepen the budget one step at a
time up to the depth limit (iterative deepening), which finds a
minimal-height derivation whenever one exists and reports Unknown when a
limit binds.  There a sequent whose proof-height lower bound
(``kernel.HeightBound``) exceeds its budget is cut before it is expanded,
as in IDA*: the cut removes only branches that would fail, and since every
sequent but an axiom needs height 2, a round's frontier at budget 1
expands axioms only.  A bound of ``inf`` proves that the sequent has no
proof, so it fails outright.  Repeated sequents along a branch need no
dedicated loop check: a proof with such a repeat can always be shortened
past it, and the budget already bounds every branch.  Both engines keep
their own stack, one entry per open sequent, so the height of a proof
costs heap, not Python frames.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional, Union

from .formulas import Binary, Conn, Formula, PosAtom, dual, expand_connectives, qubit_of
from .kernel import (
    AT_EXPAND,
    AXIOM,
    BOTH,
    BRANCH,
    CONTRACT,
    INVERTIBLE,
    LEFT,
    PICK_LEFT,
    PICK_RIGHT,
    RIGHT,
    SPLIT,
    WEAKEN,
    Countermodel,
    Evaluator,
    HeightBound,
    Layouts,
    LogicConfig,
    ProofTree,
    RuleInstance,
    Sequent,
    apply_rule,
    boolean_countermodel,
    check_proof,
    literal_refuted,
    rule_instances,
    _BY_SHAPE,
    _INF,
    _plan,
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


class _SearchLimits(NamedTuple):
    max_depth: int = 64
    max_nodes: int = 1_000_000


class SearchLimits(_SearchLimits):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SearchLimits":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("search limits must be positive")
        return self


DEFAULT_LIMITS = SearchLimits()


class SearchStats(NamedTuple):
    nodes_expanded: int
    max_depth: int
    # deterministic work counters: rule instances generated, answers taken
    # from a memo table, branches cut by the depth or height budget, sequents
    # refuted by their literals (a formula on one side cannot meet the other
    # side's literals at axioms; weakening and contraction off), invertible
    # instances committed to, splits skipped for a literal-refuted or
    # model-falsified premise, nodes falsified by a finite model (literal
    # refutation first; the model is checked at nodes and at split
    # premises, so a premise it falsifies is a node only outside a split),
    # and the sequents kernel.HeightBound settled at lookup: cut when the
    # bound is finite, failed outright when it is inf.  The rest of cuts are
    # budget-limited failures the memo replayed.  Only a search with
    # contraction has a budget that binds, so cuts and bounded are 0
    # without it.  A classical construction
    # fills nodes_expanded with the sequents it built, max_depth with its
    # proof's height, instances with those it drew and falsified with those
    # passed over for a premise B2 falsified; the rest stay 0
    instances: int = 0
    memo_hits: int = 0
    cuts: int = 0
    refuted: int = 0
    committed: int = 0
    pruned: int = 0
    falsified: int = 0
    bounded: int = 0


class SearchResult(NamedTuple):
    verdict: str
    goal: Sequent
    proof: Optional[ProofTree]
    limit_hit: Optional[str]
    stats: SearchStats
    countermodel: Optional[Countermodel] = None  # what settled a NotProvable goal without a search

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


class _Tables(NamedTuple):
    success: dict[Sequent, ProofTree]  # sequent -> the first proof found for it (a tree knows its height)
    fail_at: dict[Sequent, float]  # sequent -> the budget its search failed at (inf: failed outright)
    layouts: Layouts  # the finite model's evaluators by layout, which hold values only


_OPEN = object()  # a memo lookup's answer when the sequent must be searched

# Tables shared across calls, one set per configuration.  Only searches
# without contraction use them: no budget binds there, so every failure
# they record is outright and every proof fits.  A search with contraction
# starts from fresh tables, so its budget-limited failures and node-limited
# verdicts do not depend on earlier calls.
_MEMO: dict[tuple, _Tables] = {}


def clear_memo() -> None:
    _MEMO.clear()


def _tables(cfg: LogicConfig) -> _Tables:
    """The memo tables of a search under ``cfg``."""
    if cfg.contraction:
        return _Tables({}, {}, Layouts(cfg))
    sig = _cfg_sig(cfg)
    tables = _MEMO.get(sig)
    if tables is None:
        tables = _MEMO[sig] = _Tables({}, {}, Layouts(cfg))
    return tables


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

    countermodel: Optional[Countermodel] = None  # the search certifies nothing

    def __init__(self, cfg: LogicConfig, limits: SearchLimits, tables: _Tables):
        self.cfg = cfg
        self.limits = limits
        self.success, self.fail_at, self.layouts = tables
        self.evaluator: Optional[Evaluator] = None  # the goal's, looked up at the first node it is needed
        self.goal: Optional[Sequent] = None
        self.round = 0
        self.nodes = 0
        self.deepest = 0
        self.instances = 0
        self.memo_hits = 0
        self.cuts = 0
        self.refuted = 0
        self.committed = 0
        self.pruned = 0
        self.falsified = 0
        self.bounded = 0
        # with contraction weakening is off, as the bound needs: prove takes
        # weakening and contraction together to _Construction
        self.bound = HeightBound() if cfg.contraction else None
        # the prunings are used in the contraction-free regimes only (CHANGES.md);
        # no split is built with a premise the model falsifies, or, where
        # literal refutation is on, with a refuted one
        self.refute, self.commit = not (cfg.weakening or cfg.contraction), not cfg.contraction

    def run(self, goal: Sequent) -> tuple[Optional[ProofTree], Optional[str]]:
        self.goal = goal
        # without contraction no proof is taller than the goal's size, so one round there cuts nothing
        for budget in range(1, self.limits.max_depth + 1) if self.cfg.contraction else (goal.size(),):
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
        failure, or ``_OPEN`` when the sequent has to be searched.  A
        sequent whose height bound exceeds the budget is settled here,
        before any frame is pushed for it: cut when the bound is finite,
        failed outright when it is ``inf``."""
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
        if self.bound is None or budget >= (bound := self.bound(seq)):
            return _OPEN  # the bound fits, or there is none: no budget binds without contraction
        self.bounded += 1
        if bound == _INF:  # no proof at any height
            self.fail_at[seq] = _INF
        else:
            self.cuts += 1
        return None

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
        if self.evaluator is None:  # looked up here, so a goal the literals refute never pays for it
            self.evaluator = self.layouts.evaluator(self.goal)
        if self.evaluator.falsifies(seq):  # no proof at any height
            self.falsified += 1
            self.fail_at[seq] = _INF
            return None
        cuts_before = self.cuts
        for inst in rule_instances(seq, self.cfg, self._count_pruned, evaluator=self.evaluator):
            self.instances += 1
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
        else:  # a budget-limited failure: only with contraction, so only for this call's tables
            self.fail_at[seq] = budget
        return None

    def _count_pruned(self) -> None:
        self.pruned += 1

    def stats(self) -> SearchStats:
        counters = (self.instances, self.memo_hits, self.cuts, self.refuted, self.committed, self.pruned)
        return SearchStats(self.nodes, self.deepest, *counters, self.falsified, self.bounded)


_Chain = tuple[RuleInstance, ...]  # each instance's premise is the next one's conclusion, but the last's


class _Construction:
    """Builds a proof with weakening and contraction both on, in one pass
    that never retries a choice.

    The calculus is then G3c over independent literals, so a sequent is
    provable exactly when B2 validates it.  At each sequent the first
    instance of the search's plan, less its contraction and split rows,
    whose premises the goal's model all validates is taken; weakening comes
    first, so contexts shrink before anything branches.  Where none
    qualifies, or no model fits the goal, one G3c step is taken on the
    first compound formula (``_STEPS``), and a sequent of literals weakens
    down to ``L |- L``.  Each step is a chain of instances, and each lowers
    (connectives, occurrences).  Every premise taken is valid in B2, so the
    construction fails only past B2's valuation cap, at a leaf with no
    literal on both sides: the G3c steps are invertible, so the leaf's
    falsifying valuation falsifies the goal too.  The sequents are built
    from an explicit stack, each distinct one once.  Its axiom, structural
    and pick rows are always enabled here, so ``_BY_SHAPE`` names them.
    """

    def __init__(self, cfg: LogicConfig, limits: SearchLimits, tables: _Tables):
        self.cfg, self.limits, self.layouts = cfg, limits, tables.layouts
        self.evaluator: Optional[Evaluator] = None  # the goal's, looked up by run
        plan = _plan(cfg)
        self.plan = tuple(step for step in plan if step[1] not in (CONTRACT, SPLIT))
        self.first: dict[tuple, tuple[str, str]] = {}  # (side, connective) -> its first row's kind and name
        for name, kind, side, conn, _ in plan:
            if conn is not None:
                self.first.setdefault((side, conn), (kind, name))
        self.nodes = self.instances = self.falsified = self.height = 0
        self.countermodel: Optional[Countermodel] = None  # a failed leaf's valuation

    def run(self, goal: Sequent) -> tuple[Optional[ProofTree], None]:
        self.evaluator = self.layouts.evaluator(goal)
        built: dict[Sequent, ProofTree] = {}
        chains: dict[Sequent, _Chain] = {}  # a sequent on the stack -> its step
        stack = [goal]
        while stack:
            seq = stack[-1]
            chain = chains.get(seq)
            if chain is None:
                chain = chains[seq] = self._step(seq)
                if not chain:
                    self.countermodel = boolean_countermodel(goal, seq.antecedent)
                    return None, None
                self.nodes += len(chain)
                if self.nodes > self.limits.max_nodes:
                    raise _Limit("nodes")
                stack += [p for p in chain[-1].premises if p not in built]
                continue
            stack.pop()
            if seq not in built:  # else it was pushed twice
                tree = ProofTree(chain[-1], tuple(built[p] for p in chain[-1].premises))
                for inst in reversed(chain[:-1]):
                    tree = ProofTree(inst, (tree,))
                built[seq] = tree
        self.height = built[goal].height()
        return built[goal], None

    def _step(self, seq: Sequent) -> _Chain:
        """The step taken at ``seq``; empty at a leaf that fails."""
        falsifies = self.evaluator.falsifies
        if self.evaluator.model is not None:
            for inst in rule_instances(seq, self.cfg, None, self.plan):
                self.instances += 1
                if not any(map(falsifies, inst.premises)):
                    return (inst,)
                self.falsified += 1
        for side, pairs in ((LEFT, seq.ante_counts), (RIGHT, seq.succ_counts)):
            for f, _ in pairs:
                if isinstance(f, Binary):
                    kind, name = self.first[side, f.conn]
                    return _STEPS[kind](self, seq, side, f, name)
        succ = dict(seq.succ_counts)
        shared = next((lit for lit, _ in seq.ante_counts if lit in succ), None)
        if shared is None:
            return ()
        chain, axiom = self._each(WEAKEN, seq, ((LEFT, shared), (RIGHT, shared)))
        return (*chain, RuleInstance(_BY_SHAPE[AXIOM, None, None], axiom, (), shared))

    def _each(self, kind: str, seq: Sequent, spared: tuple) -> tuple[list[RuleInstance], Sequent]:
        """The structural row of ``kind`` applied once to each occurrence of
        ``seq`` but the (side, formula) occurrences ``spared``, and the
        sequent it ends at."""
        chain = []
        for side, pairs in ((LEFT, seq.ante_counts), (RIGHT, seq.succ_counts)):
            name = _BY_SHAPE[kind, side, None]
            for g, n in pairs:
                for _ in range(n - ((side, g) in spared)):
                    chain.append(apply_rule(seq, name, g))
                    seq = chain[-1].premises[0]
        return chain, seq

    def _as_is(self, seq: Sequent, side: str, f: Binary, name: str) -> _Chain:
        return (apply_rule(seq, name, f),)

    def _picks(self, seq: Sequent, side: str, f: Binary, name: str) -> _Chain:
        """``&L`` or ``|R``: contract ``f``, then one pick on each copy."""
        twice = apply_rule(seq, _BY_SHAPE[CONTRACT, side, None], f)
        one = apply_rule(twice.premises[0], name, f)
        return twice, one, apply_rule(one.premises[0], _BY_SHAPE[PICK_RIGHT, side, f.conn], f)

    def _split(self, seq: Sequent, side: str, f: Binary, name: str) -> _Chain:
        """Contract each context occurrence once, then split, giving each
        premise a full copy of the context."""
        chain, doubled = self._each(CONTRACT, seq, ((side, f),))
        return (*chain, apply_rule(seq, name, f)._replace(conclusion=doubled))

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, self.height, self.instances, falsified=self.falsified)


# a logical row's kind -> the G3c step on its principal formula
_STEPS = {
    BOTH: _Construction._as_is,
    BRANCH: _Construction._as_is,
    PICK_LEFT: _Construction._picks,
    SPLIT: _Construction._split,
}


def prove(s: Sequent, cfg: LogicConfig, limits: Optional[SearchLimits] = None) -> SearchResult:
    """Decide ``s`` under ``cfg``; sound and complete for the cut-free system.

    Provable results always carry a tree revalidated by the independent
    checker.  NotProvable is only ever reported from a fully exhausted search,
    where a sequent a finite model falsifies counts as swept, or, with
    contraction on, from a finite countermodel of the goal
    (``countermodel``, or a failed leaf of the classical construction),
    never from a limit hit.
    """
    limits = limits or DEFAULT_LIMITS
    if not cfg.allow_ent and s.contains_conn(Conn.ENT, Conn.SEC):
        raise GoalRejectedError(f"configuration {cfg.describe()!r} rejects goals containing @/$")
    goal = expand_sequent(s) if cfg.at_mode == AT_EXPAND else s
    tables = _tables(cfg)
    if cfg.contraction:  # where the search cannot be exhaustive, a model may settle the goal
        found = tables.layouts.countermodel(goal)
        if found is not None:
            return SearchResult(NOT_PROVABLE, goal, None, None, SearchStats(0, 0), found)

    tree: Optional[ProofTree] = None
    engine = (_Construction if cfg.weakening and cfg.contraction else _Search)(cfg, limits, tables)
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
    return SearchResult(NOT_PROVABLE, goal, None, None, stats, engine.countermodel)


# ---------------------------------------------------------------------------
# equivalence and idempotence


EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

FORWARD = "forward"
BACKWARD = "backward"


class EquivalenceResult(NamedTuple):
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


class IdempotenceReport(NamedTuple):
    connective: str
    config: LogicConfig
    compound: Formula
    single: Formula
    idempotent: Optional[bool]  # None when a limit made the search indeterminate
    forward: SearchResult  # compound |- single
    backward: SearchResult  # single |- compound
    # per failing direction: the rules that alone prove it, and those whose probe ended Unknown
    forward_rescue: tuple[str, ...]
    backward_rescue: tuple[str, ...]
    forward_undetermined: tuple[str, ...]
    backward_undetermined: tuple[str, ...]


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


def _rescuers(
    goal: Sequent, cfg: LogicConfig, limits: Optional[SearchLimits]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The structural rules that alone prove ``goal``, and those whose probe ended Unknown."""
    rescued, undetermined = [], []
    for name, single in ((WEAKENING, LogicConfig(True, False, cfg.at_mode, cfg.allow_ent)),
                         (CONTRACTION, LogicConfig(False, True, cfg.at_mode, cfg.allow_ent))):
        result = prove(goal, single, limits)
        if result.is_provable:
            rescued.append(name)
        elif result.is_unknown:
            undetermined.append(name)
    return tuple(rescued), tuple(undetermined)


def decide_idempotence(
    connective: Union[Conn, str], cfg: LogicConfig, limits: Optional[SearchLimits] = None
) -> IdempotenceReport:
    """Is ``X . X`` interderivable with ``X`` under ``cfg``?

    Failing directions are re-tried with each structural rule singly enabled
    to attribute which missing rule the direction needed; a probe that ends
    Unknown makes its rule undetermined, not a non-rescuer.
    """
    conn = Conn(connective)
    compound, single = _idempotence_pair(conn)
    eq = decide_equivalence(compound, single, cfg, limits)
    fwd = _rescuers(eq.forward.goal, cfg, limits) if eq.forward.is_not_provable else ((), ())
    bwd = _rescuers(eq.backward.goal, cfg, limits) if eq.backward.is_not_provable else ((), ())
    return IdempotenceReport(
        connective=conn.value,
        config=cfg,
        compound=compound,
        single=single,
        idempotent={EQUIVALENT: True, NOT_EQUIVALENT: False}.get(eq.verdict),
        forward=eq.forward,
        backward=eq.backward,
        forward_rescue=fwd[0],
        backward_rescue=bwd[0],
        forward_undetermined=fwd[1],
        backward_undetermined=bwd[1],
    )

"""Sequents, logic configurations, cut-free rules, and the proof checker.

Sequent sides are multisets (exchange is implicit): each side is stored once
as (formula, count) pairs in canonical order, so equality and hashing follow
multiset semantics, and premises are built by count arithmetic.

The rule set is the two-sided additive/multiplicative fragment plus the
primitive rules for ``@`` (right formation, left reflection) and their exact
mirror images for ``$``, with weakening and contraction available as toggles.
Axioms are literal-only; compound identity is derivable, not axiomatic.
Each rule is one row of :data:`RULES`; enumeration, checking, dualization
and rule gating all read those rows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .formulas import (
    DUAL_CONN,
    Binary,
    Conn,
    Formula,
    Frozen,
    dual,
    fold,
    is_literal,
    size as formula_size,
    sort_key,
)

# ---------------------------------------------------------------------------
# sequents

# A multiset of formulas as (formula, count) pairs, in canonical order (by
# sort key) and with every count positive: equal multisets are equal tuples.
Counts = tuple[tuple[Formula, int], ...]


def _counted(formulas: Iterable[Formula]) -> Counts:
    counts: dict[Formula, int] = {}
    for f in sorted(formulas, key=sort_key):
        counts[f] = counts.get(f, 0) + 1
    return tuple(counts.items())


def _flat(pairs: Counts) -> tuple[Formula, ...]:
    return tuple(f for f, n in pairs for _ in range(n))


class Sequent(Frozen):
    """``antecedent |- succedent``.  Each side is built once as
    :data:`Counts`, so equality is multiset equality and the hash is computed
    once.  ``antecedent`` and ``succedent`` give the sides as sorted tuples."""

    __slots__ = ("ante_counts", "succ_counts", "_hash")

    def __new__(cls, antecedent: Iterable[Formula], succedent: Iterable[Formula]) -> "Sequent":
        return _sequent(_counted(antecedent), _counted(succedent))

    @classmethod
    def of(cls, antecedent: Iterable[Formula], succedent: Iterable[Formula]) -> "Sequent":
        return cls(antecedent, succedent)

    @property
    def antecedent(self) -> tuple[Formula, ...]:
        return _flat(self.ante_counts)

    @property
    def succedent(self) -> tuple[Formula, ...]:
        return _flat(self.succ_counts)

    def counts(self, which: str) -> Counts:
        return self.ante_counts if which == LEFT else self.succ_counts

    def size(self) -> int:
        return sum(formula_size(f) * n for f, n in self.ante_counts + self.succ_counts)

    def contains_conn(self, *conns: Conn) -> bool:
        def node(f: Binary, left: bool, right: bool) -> bool:
            return f.conn in conns or left or right

        return any(fold(f, lambda _: False, node) for f, _ in self.ante_counts + self.succ_counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.ante_counts == other.ante_counts and self.succ_counts == other.succ_counts

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Sequent, (self.antecedent, self.succedent)

    def __repr__(self) -> str:
        return f"Sequent(antecedent={self.antecedent!r}, succedent={self.succedent!r})"

    def __str__(self) -> str:
        from .syntax import print_sequent

        return print_sequent(self)


def _sequent(ante: Counts, succ: Counts) -> Sequent:
    """The sequent with these sides, which must already be canonical."""
    s = object.__new__(Sequent)
    object.__setattr__(s, "ante_counts", ante)
    object.__setattr__(s, "succ_counts", succ)
    object.__setattr__(s, "_hash", hash((ante, succ)))
    return s


def dual_sequent(s: Sequent) -> Sequent:
    """Swap sides and dualize every formula."""
    return Sequent((dual(f) for f in s.succedent), (dual(f) for f in s.antecedent))


def _orient(side: str, active: Counts, passive: Counts) -> Sequent:
    """The sequent with ``active`` on ``side`` and ``passive`` on the other."""
    return _sequent(active, passive) if side == LEFT else _sequent(passive, active)


def _minus(pairs: Counts, i: int) -> Counts:
    """``pairs`` with one copy fewer of its ``i``-th formula."""
    f, n = pairs[i]
    if n == 1:
        return pairs[:i] + pairs[i + 1 :]
    return pairs[:i] + ((f, n - 1),) + pairs[i + 1 :]


def _plus(pairs: Counts, formulas: Iterable[Formula]) -> Counts:
    """``pairs`` with one copy more of each of ``formulas``."""
    for g in formulas:
        i = bisect_left(pairs, g.sort_key, key=_pair_key)
        if i < len(pairs) and pairs[i][0] is g:
            pairs = pairs[:i] + ((g, pairs[i][1] + 1),) + pairs[i + 1 :]
        else:
            pairs = pairs[:i] + ((g, 1),) + pairs[i:]
    return pairs


def _pair_key(pair: tuple[Formula, int]) -> tuple:
    return pair[0].sort_key


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


class _LogicConfig(NamedTuple):
    weakening: bool = False
    contraction: bool = False
    at_mode: str = AT_EXPAND
    allow_ent: bool = True


class LogicConfig(_LogicConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LogicConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.at_mode not in (AT_PRIMITIVE, AT_EXPAND):
            raise ValueError(f"unknown at_mode: {self.at_mode!r}")
        return self

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


class RuleInstance(NamedTuple):
    rule: str
    conclusion: Sequent
    premises: tuple[Sequent, ...]
    principal: Optional[Formula] = None


class ProofTree(Frozen):
    """A rule instance with a proof of each premise.  Equality, hashing and
    ``repr`` are ``object``'s, as for formulas: compared or printed field by
    field they would recurse through ``children``, and a memo-shared subproof
    would be walked once per occurrence."""

    __slots__ = ("node", "children", "_height")  # _height: nodes on the longest branch
    __match_args__ = ("node", "children")

    def __init__(self, node: RuleInstance, children: tuple["ProofTree", ...] = ()):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_height", 1 + max((c._height for c in children), default=0))

    def __reduce__(self):
        # one table of the distinct formulas, sequents and nodes, each row
        # naming earlier rows, so that neither pickling nor copying recurses
        # once per level and a formula shared by many sequents is written once
        rows: dict = {}  # formula, sequent or node -> its row; also fold's value table
        table: list = []

        def add(*fields) -> int:
            table.append(fields)
            return len(table) - 1

        def formula(f: Formula) -> int:
            return fold(f, lambda lit: add(type(lit), lit.name), lambda g, l, r: add(Binary, g.conn, l, r), rows)

        def sequent(s: Sequent) -> int:
            if s not in rows:
                rows[s] = add(Sequent, tuple(map(formula, s.antecedent)), tuple(map(formula, s.succedent)))
            return rows[s]

        for tree in _post_order(self):  # the distinct nodes, subproofs first
            rule, conclusion, premises, principal = tree.node
            rows[tree] = add(
                ProofTree,
                rule,
                sequent(conclusion),
                tuple(map(sequent, premises)),
                None if principal is None else formula(principal),
                tuple(rows[c] for c in tree.children),
            )
        return _rebuild_proof, (tuple(table),)

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


def _post_order(p: ProofTree) -> list[ProofTree]:
    """Each distinct node of ``p`` once, after its subproofs, which are
    visited in premise order."""
    done: dict[ProofTree, None] = {}  # trees hash by identity
    stack = [p]
    while stack:
        tree = stack[-1]
        pending = [c for c in tree.children if c not in done]
        if pending:  # come back once the subproofs are done
            stack += reversed(pending)
        elif stack.pop() not in done:  # it may have been pushed by two parents
            done[tree] = None
    return list(done)


def _rebuild_proof(table: tuple) -> ProofTree:
    """The proof a ``ProofTree.__reduce__`` table describes, through the
    constructors."""
    built: list = []
    for cls, *fields in table:
        if cls is Binary:
            conn, left, right = fields
            built.append(Binary(conn, built[left], built[right]))
        elif cls is Sequent:
            built.append(Sequent(*([built[i] for i in side] for side in fields)))
        elif cls is ProofTree:
            rule, conclusion, premises, principal, children = fields
            premises = tuple(built[i] for i in premises)
            principal = None if principal is None else built[principal]
            inst = RuleInstance(rule, built[conclusion], premises, principal)
            built.append(ProofTree(inst, tuple(built[i] for i in children)))
        else:  # a literal
            built.append(cls(*fields))
    return built[-1]


def walk_proof(p: ProofTree) -> Iterator[tuple[ProofTree, int]]:
    """Every node of ``p`` with its distance from the root, in post-order:
    after its subtrees, which come in premise order.  A subproof shared by
    two premises is walked under each."""
    stack = [(p, 0, False)]
    while stack:
        tree, depth, done = stack.pop()
        if done:
            yield tree, depth
        else:  # come back once the subtrees are walked
            stack.append((tree, depth, True))
            stack += [(c, depth + 1, False) for c in reversed(tree.children)]


def axiom_check(s: Sequent) -> bool:
    """Literal identity only; compound identity must be derived."""
    ante = s.ante_counts
    return len(ante) == 1 and ante[0][1] == 1 and ante == s.succ_counts and is_literal(ante[0][0])


# ---------------------------------------------------------------------------
# literal relevance

# With weakening off no rule deletes a formula or moves one across the
# turnstile: a passive formula reaches some premise, and the principal
# formula leaves a subformula on its side in some premise (one under &L and
# |R, both under the other rules).  Followed upward, a formula of a provable
# sequent thus ends at axioms L |- L whose other L comes from a formula of
# the other side: a literal needs a twin there, &L and |R need it for one
# subformula, and the other connectives for both.  That requirement is a
# conjunction of clauses "the other side has a literal of this mask", and a
# sequent is refuted when a clause of one of its formulas fails (CHANGES.md).
# The search applies this with contraction off too.  A formula's literal
# mask and its clauses on each side are its term's ``relevance`` slot, (mask,
# left clauses, right clauses), set when the term is built (formulas.py).

# A multiset with its relevance masks: (pairs, occurring, clauses).
# ``occurring`` has the bit of every literal in it, and ``clauses`` is the
# distinct clauses its formulas require of the other side; a literal's one
# clause is its own bit.
_Half = tuple[Counts, int, tuple[int, ...]]

_EMPTY: _Half = ((), 0, ())

# a side -> the index of its clauses in a relevance slot
_SLOT = {LEFT: 1, RIGHT: 2}


def _add(half: _Half, g: Formula, n: int, slot: int) -> _Half:
    """``half`` with ``n`` copies of ``g``, which sorts after its formulas,
    on the side whose :data:`_SLOT` is ``slot``."""
    if not n:
        return half
    pairs, occurring, clauses = half
    relevance = g.relevance
    for c in relevance[slot]:
        if c not in clauses:
            clauses += (c,)
    return pairs + ((g, n),), occurring | relevance[0], clauses


def _half(pairs: Counts, side: str) -> _Half:
    half, slot = _EMPTY, _SLOT[side]
    for g, n in pairs:
        half = _add(half, g, n, slot)
    return half


def _refuted(ante: _Half, succ: _Half) -> bool:
    """Some clause of a formula of one side has no literal on the other."""
    _, ante_occurring, ante_clauses = ante
    _, succ_occurring, succ_clauses = succ
    for mask in ante_clauses:
        if not mask & succ_occurring:
            return True
    for mask in succ_clauses:
        if not mask & ante_occurring:
            return True
    return False


def literal_refuted(s: Sequent) -> bool:
    """A formula on one side cannot meet the other side's literals at axioms:
    a literal has no twin there, or an ``&`` on the left or ``|`` on the right
    neither of its subformulas can, or another compound formula one of its
    subformulas.  With weakening off, the sequent then has no proof."""
    return _refuted(_half(s.ante_counts, LEFT), _half(s.succ_counts, RIGHT))


# ---------------------------------------------------------------------------
# proof-height lower bounds

# Two lower bounds on the height of a proof with weakening off (the lemma is
# in CHANGES.md).  Count: a proof of height h has at most N(h) formula
# occurrences, where N(1) = 2 and only a split builds a conclusion larger
# than its premises: N(h) = 2 N(h - 1) - 1 = 2^(h - 1) + 1 under a split,
# and 2 without one.  Literal depth: a leaf L |- L takes its two L's from
# one formula on each side of the root, and each step of the branch between
# them moves at most one of the two a level closer to its L; without a
# split, each other occurrence of the root needs a step of its own on that
# branch as well.  Premises hold only subformulas on the same side, so a
# split can occur above a sequent only if a split row can take one of its
# subformulas, on its side, as principal.

# a side -> the connectives a split row takes as principal there.  A search
# that meets @ or $ has their rows: linear rejects such goals, and expand
# mode rewrites them before the search starts
_SPLITS = {
    side: {r.conn for r in RULES.values() if r.kind == SPLIT and r.side == side} for side in (LEFT, RIGHT)
}

_INF = float("inf")


def _least(left: dict, right: dict, step: int) -> dict:
    """The least depth of each literal of ``left`` and ``right``, maps from
    literals to depths, taken ``step`` levels higher."""
    depths = {lit: d + step for lit, d in left.items()}
    for lit, d in right.items():
        if d + step < depths.get(lit, _INF):
            depths[lit] = d + step
    return depths


class HeightBound:
    """The larger of the two bounds, for the sequents of one goal searched
    with weakening off: 1 for an axiom, at least 2 for any other sequent,
    and ``inf`` where no proof can exist.  A term's summary on a side
    (whether a split can take one of its subformulas as principal, and the
    least depth of each of its literals) is computed at the first sequent
    that holds it; a sequent's bound is computed at every call."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[str, dict] = {LEFT: {}, RIGHT: {}}  # side -> fold's value table

    def _summary(self, f: Formula, side: str) -> tuple[bool, dict]:
        conns = _SPLITS[side]
        return fold(
            f,
            lambda lit: (False, {lit: 0}),
            lambda g, l, r: (g.conn in conns or l[0] or r[0], _least(l[1], r[1], 1)),
            self.terms[side],
        )

    def __call__(self, s: Sequent) -> float:
        if axiom_check(s):
            return 1
        split, least = False, []
        for side, pairs in ((LEFT, s.ante_counts), (RIGHT, s.succ_counts)):
            depths: dict = {}
            for f, _ in pairs:
                splits, below = self._summary(f, side)
                split = split or splits
                depths = _least(depths, below, 0)
            least.append(depths)
        left, right = least
        n = sum(count for _, count in s.ante_counts + s.succ_counts)
        meet = min((d + right[lit] for lit, d in left.items() if lit in right), default=_INF)
        # the least h with N(h) >= n
        count = 1 if n <= 2 else (n - 2).bit_length() + 1 if split else _INF
        return max(2, 1 + meet + (0 if split else n - 2), count)


# ---------------------------------------------------------------------------
# finite countermodels

# A sequent reads in a finite algebra as ``*antecedent <= par succedent``, an
# empty antecedent as the unit e of ``*`` and an empty succedent as f = ~e.
# If every rule a configuration enables preserves validity there, a sequent
# false under some valuation of its literals has no proof (CHANGES.md).  No
# rule relates A and ~A, so each literal is a variable of its own, and the
# rules of @ and $ are shaped like those of par and *, so they read as those.
# Both models are chains, elements 0..n-1 in order, where ~x is n-1-x and &
# and | are min and max.


class Model(NamedTuple):
    name: str
    elements: tuple[str, ...]  # the elements' names, bottom first
    ops: dict[Conn, tuple[tuple[int, ...], ...]]  # connective -> its table, [left][right]
    unit: int  # e
    weakening: bool  # whether weakening preserves validity


def _model(name: str, elements: tuple[str, ...], times: tuple, unit: int, weakening: bool) -> Model:
    top = len(elements) - 1
    span = range(len(elements))
    par = tuple(tuple(top - times[top - x][top - y] for y in span) for x in span)
    ops = {
        Conn.WITH: tuple(tuple(min(x, y) for y in span) for x in span),
        Conn.PLUS: tuple(tuple(max(x, y) for y in span) for x in span),
        Conn.TIMES: times,
        Conn.PAR: par,
        Conn.ENT: par,
        Conn.SEC: times,
    }
    return Model(name, elements, ops, unit, weakening)


# B2, the Boolean algebra: * is &, par is |.  It validates every rule.
# M4, the chain 0 < e < f < 1: 0 absorbs, e is the unit and f * f = 1, so
# x <= x * x validates contraction.  Weakening fails: |- holds (e <= f), and
# A |- does not at A = 1.  A model comes after those it subsumes: M4
# falsifies every sequent that B2 does but |- (CHANGES.md).
MODELS = (
    _model("B2", ("0", "1"), ((0, 0), (0, 1)), 1, True),
    _model("M4", ("0", "e", "f", "1"), ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), 1, False),
)

# A model serves a goal only when its valuations of the goal's literals on
# both sides, n ** k for k such literals, are at most this many.
VALUATIONS = 4096

Countermodel = tuple[str, tuple[tuple[str, str], ...]]  # (model, ((literal, element), ...))


def models(cfg: LogicConfig) -> tuple[Model, ...]:
    """The models of :data:`MODELS` that validate every rule ``cfg`` enables."""
    return tuple(m for m in MODELS if m.weakening or not cfg.weakening)


# A model is evaluated under all its valuations at once.  A value in an
# n-element chain is n bitmasks, its planes: bit i of plane t is set when the
# value under valuation i is at least t, so plane 0 is all ones.  Every
# operation is monotone, so plane t of x . y is the OR of x[a] & y[b] over
# the minimal pairs (a, b) with a . b >= t, read from each table once, here.
Planes = tuple[int, ...]


def _minimal_pairs(table: tuple) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Level by level from t = 1, the minimal pairs (a, b) with
    ``table[a][b] >= t``.  The table is monotone, so those pairs are an
    up-set, and a pair is minimal when neither lower neighbour is in it."""
    span = range(len(table))
    levels = []
    for t in span[1:]:
        above = [(a, b) for a in span for b in span if table[a][b] >= t]
        levels.append(tuple((a, b) for a, b in above if (a - 1, b) not in above and (a, b - 1) not in above))
    return tuple(levels)


_PAIRS = {m.name: {conn: _minimal_pairs(table) for conn, table in m.ops.items()} for m in MODELS}


def _combine(levels: tuple, ones: int, x: Planes, y: Planes) -> Planes:
    """``x . y`` for the connective whose minimal pairs are ``levels``."""
    out = [ones]
    for level in levels:
        plane = 0
        for a, b in level:
            plane |= x[a] & y[b]
        out.append(plane)
    return tuple(out)


def _literals(pairs: Counts) -> frozenset[Formula]:
    """The literals of ``pairs``, each distinct subterm visited once."""
    seen: set[Formula] = set()
    stack = [f for f, _ in pairs]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            if isinstance(g, Binary):
                stack += (g.left, g.right)
    return frozenset(g for g in seen if not isinstance(g, Binary))


# (model name, k) -> for k literals that run through their values: all
# ones, the planes of the j-th literal, the empty sides (e, f) and the
# extremes (bottom, top).  Valuation i gives the j-th literal the j-th
# base-n digit of i, the first literal's the most significant.  This table
# outlives every Layouts: each prove with contraction on, and each
# countermodel call, builds a fresh Layouts, and this is what they share
# (without it, warm report_matrix measured about 1.7% slower).
_FRAMES: dict[tuple[str, int], tuple] = {}


def _frame(model: Model, k: int) -> tuple:
    frame = _FRAMES.get((model.name, k))
    if frame is None:
        n = len(model.elements)
        ones = (1 << n**k) - 1

        def constant(value: int) -> Planes:
            return (ones,) * (value + 1) + (0,) * (n - 1 - value)

        digits = []
        for j in range(k):
            # digit j is at least t on the top n - t of every n blocks of d bits
            d = n ** (k - 1 - j)
            periods = ones // ((1 << n * d) - 1)
            digits.append(tuple(((1 << (n - t) * d) - 1 << t * d) * periods for t in range(n)))
        empty = constant(model.unit), constant(n - 1 - model.unit)
        frame = _FRAMES[model.name, k] = ones, digits, empty, (constant(0), constant(n - 1))
    return frame


class Evaluator:
    """One model evaluated under one layout: the k literals ``shared``, in
    canonical order, run through their values, and every other literal
    takes its side's extreme, the top on the left and the bottom on the
    right.

    Every operation is monotone, so a literal on one side of a goal need
    only take that extreme, and only the literals on both sides run through
    their values: a model fits when n ** k is at most :data:`VALUATIONS`.
    No rule moves a formula across the turnstile, and premises hold only
    subformulas on the same side, so every sequent of a goal's search has
    the goal's literals on the same sides: the goal's layout loses none of
    its countermodels.  A term's planes on a side, and a half's value
    (:meth:`half`), depend only on the layout, so one evaluator serves every
    goal with that layout (:class:`Layouts`).  With no model, none is
    falsified."""

    __slots__ = ("model", "pairs", "ones", "width", "empty", "extremes", "planes", "halves")

    def __init__(self, model: Optional[Model], shared: list[Formula]):
        self.model = model
        if model is not None:
            self.pairs = _PAIRS[model.name]
            self.ones, digits, self.empty, self.extremes = _frame(model, len(shared))
            self.width = self.ones.bit_length()
            # side -> term -> its planes there; side -> half -> its packed value
            self.planes: dict[str, dict[Formula, Planes]] = {
                side: dict(zip(shared, digits)) for side in (LEFT, RIGHT)
            }
            self.halves: dict[str, dict[Counts, int]] = {LEFT: {}, RIGHT: {}}

    def _node(self, g: Binary, x: Planes, y: Planes) -> Planes:
        return _combine(self.pairs[g.conn], self.ones, x, y)

    def value(self, f: Formula, side: str) -> Planes:
        """The planes of ``f`` on ``side``."""
        planes = self.planes[side]
        found = planes.get(f)
        if found is None:
            extreme = self.extremes[side == LEFT]  # a literal not in the table is one-sided
            found = fold(f, lambda _: extreme, self._node, planes)
        return found

    def half(self, pairs: Counts, side: str) -> int:
        """The value of ``pairs`` on ``side``, their ``*`` on the left and
        their ``par`` on the right (the empty side's constant when there are
        none), with its planes from 1 up packed into one integer, plane t
        from bit (t - 1) * n ** k; computed once per layout.  A sequent is
        false under some valuation exactly when its left half's value AND-NOT
        its right half's value is not 0; nodes (:meth:`falsifies`) and the
        premises of splits are tested this way, from one table."""
        table = self.halves[side]
        value = table.get(pairs)
        if value is None:
            left = side == LEFT
            levels, ones, planes = self.pairs[Conn.TIMES if left else Conn.PAR], self.ones, None
            for f, count in pairs:
                v = self.value(f, side)
                for _ in range(count):
                    planes = v if planes is None else _combine(levels, ones, planes, v)
            width, value = self.width, 0
            for plane in (self.empty[not left] if planes is None else planes)[:0:-1]:
                value = value << width | plane
            table[pairs] = value
        return value

    def falsifies(self, s: Sequent) -> bool:
        """The model is false on ``s`` under some valuation."""
        return self.model is not None and (
            self.half(s.ante_counts, LEFT) & ~self.half(s.succ_counts, RIGHT)
        ) != 0


class Layouts:
    """The :class:`Evaluator` of every layout met under one configuration,
    keyed by the layout's shared literals, and the literals of every goal
    side met.  The tables hold values only, so they live as long as the
    search memo they serve."""

    __slots__ = ("cfg", "literals", "evaluators")

    def __init__(self, cfg: LogicConfig):
        self.cfg = cfg
        self.literals: dict[Counts, frozenset[Formula]] = {}
        self.evaluators: dict[frozenset[Formula], Evaluator] = {}

    def _literals(self, pairs: Counts) -> frozenset[Formula]:
        found = self.literals.get(pairs)
        if found is None:
            found = self.literals[pairs] = _literals(pairs)
        return found

    def evaluator(self, goal: Sequent) -> Evaluator:
        """The evaluator of ``goal``'s layout, for the goal and its search."""
        shared = self._literals(goal.ante_counts) & self._literals(goal.succ_counts)
        found = self.evaluators.get(shared)
        if found is None:
            k = len(shared)
            model = next((m for m in reversed(models(self.cfg)) if len(m.elements) ** k <= VALUATIONS), None)
            found = self.evaluators[shared] = Evaluator(model, sorted(shared, key=sort_key))
        return found

    def countermodel(self, s: Sequent) -> Optional[Countermodel]:
        """The model of ``s``'s layout and the lowest valuation under which
        it is false on ``s``, read off the planes of each literal of ``s``."""
        evaluator = self.evaluator(s)
        if evaluator.model is None:
            return None
        # the OR of the planes of the halves' AND-NOT: the falsifying valuations
        packed = evaluator.half(s.ante_counts, LEFT) & ~evaluator.half(s.succ_counts, RIGHT)
        mask, ones, width = 0, evaluator.ones, evaluator.width
        while packed:
            mask |= packed & ones
            packed >>= width
        if not mask:
            return None
        i = (mask & -mask).bit_length() - 1
        left = self._literals(s.ante_counts)
        elements, valuation = evaluator.model.elements, []
        for lit in sorted(left | self._literals(s.succ_counts), key=sort_key):
            planes = evaluator.value(lit, LEFT if lit in left else RIGHT)
            valuation.append((str(lit), elements[sum(plane >> i & 1 for plane in planes[1:])]))
        return evaluator.model.name, tuple(valuation)


def boolean_countermodel(s: Sequent, true: Iterable[Formula]) -> Countermodel:
    """B2 with the literals ``true`` at 1 and every other literal of ``s``
    at 0."""
    b2, true = MODELS[0], set(true)
    literals = _literals(s.ante_counts + s.succ_counts)
    return b2.name, tuple((str(lit), b2.elements[lit in true]) for lit in sorted(literals, key=sort_key))


def countermodel(s: Sequent, cfg: LogicConfig) -> Optional[Countermodel]:
    """The model :class:`Layouts` takes for ``s`` and a valuation of every
    literal of ``s`` under which ``s`` is false there; None when it is not."""
    return Layouts(cfg).countermodel(s)


# ---------------------------------------------------------------------------
# enumeration


def _splits(
    pairs: Counts, side: str, first: Optional[Formula] = None, second: Optional[Formula] = None
) -> list:
    """Every (part, rest) split of a multiset on ``side``, as two
    :data:`_Half`.  The splits come in product order: each formula's count in
    ``part`` runs up from 0, the first formula's slowest.  ``first`` joins
    every part and ``second`` every rest."""
    counts = dict(pairs)
    splits: list[tuple[_Half, _Half]] = [(_EMPTY, _EMPTY)]
    slot = _SLOT[side]
    for g in sorted({*counts, first, second} - {None}, key=sort_key):
        m, one, two = counts.get(g, 0), int(g is first), int(g is second)
        splits = [
            (_add(part, g, k + one, slot), _add(rest, g, m - k + two, slot))
            for part, rest in splits
            for k in range(m + 1)
        ]
    return splits


def _split_premises(
    side: str,
    rest: Counts,
    passive: Counts,
    f: Binary,
    prune: Optional[Callable[[], object]],
    evaluator: Optional[Evaluator],
    refute: bool,
):
    """Both premises of a context-splitting rule, for every split of the
    contexts; the antecedent split is the outer loop on either side.  With
    ``prune``, a split is skipped, and ``prune()`` called, before either
    premise is built when a premise has no proof: with ``refute``, when it
    is literal-refuted, and with an ``evaluator`` that has a model, when the
    model falsifies it.  A pair that passes the relevance check meets the
    model through its halves' values (:meth:`Evaluator.half`): a succedent
    half's is looked up once per call, an antecedent half's once per outer
    iteration."""
    if side == LEFT:
        ante_splits, succ_splits = _splits(rest, LEFT, f.left, f.right), _splits(passive, RIGHT)
    else:
        ante_splits, succ_splits = _splits(passive, LEFT), _splits(rest, RIGHT, f.left, f.right)
    model = prune is not None and evaluator is not None and evaluator.model is not None
    succ_values = [None] * len(succ_splits) if model else None  # the complements of each split's values
    for a1, a2 in ante_splits:
        ante_values = None
        for j, (s1, s2) in enumerate(succ_splits):
            if refute and (_refuted(a1, s1) or _refuted(a2, s2)):
                prune()
                continue
            if model:
                if ante_values is None:
                    ante_values = evaluator.half(a1[0], LEFT), evaluator.half(a2[0], LEFT)
                succ = succ_values[j]
                if succ is None:
                    succ = succ_values[j] = ~evaluator.half(s1[0], RIGHT), ~evaluator.half(s2[0], RIGHT)
                if ante_values[0] & succ[0] or ante_values[1] & succ[1]:
                    prune()
                    continue
            yield _sequent(a1[0], s1[0]), _sequent(a2[0], s2[0])


# A configuration's rule plan: its enabled rows in RULE_ORDER, each as
# (name, kind, side, connective, replacements), built once per configuration.
_Step = tuple[str, str, Optional[str], Optional[Conn], tuple]
_PLANS: dict[LogicConfig, tuple[_Step, ...]] = {}


def _plan(cfg: LogicConfig) -> tuple[_Step, ...]:
    plan = _PLANS.get(cfg)
    if plan is None:
        rows = (RULES[name] for name in RULE_ORDER if cfg.rule_enabled(name))
        plan = _PLANS[cfg] = tuple((*row, _REPLACEMENTS.get(row.kind, ())) for row in rows)
    return plan


def _by_conn(pairs: Counts) -> dict:
    """The positions of ``pairs``' formulas by main connective, in side order;
    None maps to every position, the candidates of a structural rule."""
    index: dict = {None: range(len(pairs))}
    for i, (f, _) in enumerate(pairs):
        if isinstance(f, Binary):
            index.setdefault(f.conn, []).append(i)
    return index


def rule_instances(
    s: Sequent,
    cfg: LogicConfig,
    prune: Optional[Callable[[], object]] = None,
    plan: Optional[tuple[_Step, ...]] = None,
    evaluator: Optional[Evaluator] = None,
) -> Iterator[RuleInstance]:
    """Every backward-applicable instance with conclusion ``s``, lazily.

    The rows of ``cfg``'s plan are tried in order, or those of ``plan``, a
    sub-sequence of it, and each row's principal formulas in side order.
    Principal choices and, for the context-splitting rules, all multiset
    partitions of the side contexts are generated in a fixed order, so a
    caller that stops early never builds the instances after that point.
    With ``prune``, the splits with a premise that has no proof are left
    out, ``prune()`` is called once for each, and the rest keep their order:
    with weakening and contraction off, those with a :func:`literal_refuted`
    premise, and with an ``evaluator``, those with a premise its model
    falsifies.
    """
    refute = prune is not None and not (cfg.weakening or cfg.contraction)
    index = None  # side -> the positions of its formulas by connective
    for name, kind, side, conn, replacements in plan or _plan(cfg):
        if kind == AXIOM:
            if axiom_check(s):
                yield RuleInstance(name, s, (), s.ante_counts[0][0])
            continue
        if index is None:
            index = {LEFT: _by_conn(s.ante_counts), RIGHT: _by_conn(s.succ_counts)}
        active, passive = (s.ante_counts, s.succ_counts) if side == LEFT else (s.succ_counts, s.ante_counts)
        for i in index[side].get(conn, ()):
            f = active[i][0]
            rest = _minus(active, i)
            if kind == SPLIT:
                splits = _split_premises(side, rest, passive, f, prune, evaluator, refute)
                yield from (RuleInstance(name, s, premises, f) for premises in splits)
            else:
                premises = tuple(_orient(side, _plus(rest, new(f)), passive) for new in replacements)
                yield RuleInstance(name, s, premises, f)


def apply_rule(s: Sequent, name: str, f: Formula) -> RuleInstance:
    """The instance of rule ``name``, not the axiom, on ``s`` with principal
    ``f``, a formula on the rule's side.  A context-splitting rule gives
    each premise the whole context, as a :data:`BRANCH` rule does."""
    row = RULES[name]
    active, passive = (s.ante_counts, s.succ_counts) if row.side == LEFT else (s.succ_counts, s.ante_counts)
    rest = _minus(active, [g for g, _ in active].index(f))
    replacements = _REPLACEMENTS.get(row.kind, _REPLACEMENTS[BRANCH])
    premises = tuple(_orient(row.side, _plus(rest, new(f)), passive) for new in replacements)
    return RuleInstance(name, s, premises, f)


# ---------------------------------------------------------------------------
# checking


class CheckResult(NamedTuple):
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _bag(first: Counts, second: Counts = (), formulas: Iterable[Formula] = ()) -> dict[Formula, int]:
    """The multiset sum of two count vectors and some formulas."""
    bag: dict[Formula, int] = {}
    for f, n in (*first, *second, *((g, 1) for g in formulas)):
        bag[f] = bag.get(f, 0) + n
    return bag


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
    active = c.counts(side)
    principals = [
        f for f, _ in active if _can_be_principal(rule, f) and (recorded is None or recorded == f)
    ]
    # each equation adds the principal formula to the premises' side and its
    # replacement to the conclusion's, so both sides are sums of multisets
    if rule.kind == SPLIT:
        p1, p2 = prem
        one, two = p1.counts(side), p2.counts(side)
        for f in principals:
            # one = ctx1 + f.left and two = ctx2 + f.right, where ctx1 + ctx2 = active - f
            if f.left not in dict(one) or f.right not in dict(two):
                continue
            split_ok = _bag(one, two, (f,)) == _bag(active, (), (f.left, f.right))
            if split_ok and _bag(p1.counts(other), p2.counts(other)) == _bag(c.counts(other)):
                return None
        return f"{name}: premises do not split the context of any principal formula"

    if any(p.counts(other) != c.counts(other) for p in prem):
        return f"{name}: passive side must be unchanged"
    for f in principals:
        expected = (_bag(active, (), new(f)) for new in _REPLACEMENTS[rule.kind])
        if all(_bag(p.counts(side), (), (f,)) == e for p, e in zip(prem, expected)):
            return None
    return f"{name}: no principal formula matches the premises"


def check_proof(p: ProofTree, cfg: LogicConfig) -> CheckResult:
    """Validate every node against the enabled rule schemas.

    The verdict is truthy/falsy; on failure the result carries the child-index
    path to the first offending node and a reason.  Nodes are checked in
    pre-order, each against its parent's premise first.
    """
    checked: set[ProofTree] = set()  # a later occurrence is compared with its premise only
    stack: list[tuple[ProofTree, tuple[int, ...], Optional[Sequent]]] = [(p, (), None)]
    while stack:
        tree, path, premise = stack.pop()
        if premise is not None and tree.conclusion != premise:
            return CheckResult(False, path, "child conclusion differs from premise")
        if tree in checked:
            continue
        reason = _instance_ok(tree.node, cfg)
        if reason is not None:
            return CheckResult(False, path, reason)
        premises = tree.node.premises
        if len(tree.children) != len(premises):
            return CheckResult(False, path, "children do not match premises")
        checked.add(tree)
        for i in reversed(range(len(premises))):
            stack.append((tree.children[i], path + (i,), premises[i]))
    return CheckResult(True)


def dualize_proof(p: ProofTree) -> ProofTree:
    """Mechanical dual: swap sides, dualize formulas, mirror rule labels.
    Each distinct node is dualized once, so a shared subproof stays shared."""
    duals: dict[ProofTree, ProofTree] = {}
    for tree in _post_order(p):
        inst = tree.node
        dual_inst = RuleInstance(
            rule=_DUAL_RULE[inst.rule],
            conclusion=dual_sequent(inst.conclusion),
            premises=tuple(dual_sequent(q) for q in inst.premises),
            principal=dual(inst.principal) if inst.principal is not None else None,
        )
        duals[tree] = ProofTree(dual_inst, tuple(duals[c] for c in tree.children))
    return duals[p]

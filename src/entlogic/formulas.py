"""Formula language: literals, binary connectives, duality and rewriting maps.

Negation exists only on atoms; negating a compound formula means taking its
involutive De Morgan dual.  The entanglement connective ``@`` and its dual
``$`` are only meaningful on qubit-shaped operands (an atom conjoined /
disjoined with its own negation), and the maps that need to look inside an
``@``/``$`` node raise :class:`ShapeError` when that does not hold.

Formula terms are hash-consed: the constructors look every term up in one
intern table, so structurally equal formulas are the same object.  Equality
and hashing are therefore object identity, and each term's sort key is
computed once, when it is built.  The table holds its terms weakly, so a term
that nothing else references leaves it.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from operator import attrgetter
from typing import Union


class Conn(Enum):
    """Binary connectives, valued by their surface tokens."""

    WITH = "&"    # additive conjunction
    PLUS = "|"    # additive disjunction
    TIMES = "*"   # multiplicative conjunction
    PAR = "par"   # multiplicative disjunction
    ENT = "@"     # entanglement
    SEC = "$"     # dual of entanglement

    # Members are singletons, so identity hashing agrees with equality and
    # keeps the intern-table lookup of a Binary free of Python-level calls.
    __hash__ = object.__hash__


# Fixed total order used by sorting keys and printers.
_CONN_INDEX = {c: i for i, c in enumerate(Conn)}

DUAL_CONN = {
    Conn.WITH: Conn.PLUS,
    Conn.PLUS: Conn.WITH,
    Conn.TIMES: Conn.PAR,
    Conn.PAR: Conn.TIMES,
    Conn.ENT: Conn.SEC,
    Conn.SEC: Conn.ENT,
}

ADDITIVE = (Conn.WITH, Conn.PLUS)

_ATOM_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class ShapeError(ValueError):
    """An @/$ node was built over (or inspected with) non-qubit operands."""


# Every live formula term, keyed by its class and fields.  The children of a
# Binary are interned before it, so the key compares them by identity.  The
# constructors look a term up here first and build it only when it is absent.
_TERMS: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()


def _intern(cls, fields: tuple, sort_key: tuple):
    """Build the term of class ``cls`` with ``fields`` and enter it in the
    table; if another thread entered one first, that one is returned."""
    term = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(term, name, value)
    object.__setattr__(term, "sort_key", sort_key)
    return _TERMS.setdefault((cls, *fields), term)


class _Term:
    """What the interned formula classes share: immutable fields, the
    dataclass-style ``repr``, and pickling and copying through the
    constructors, none of which recurses.  Equality and hashing stay
    ``object``'s (identity)."""

    __slots__ = ("sort_key", "__weakref__")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the distinct subterms in post-order, operands named by their row
        rows: list = []

        def row(*fields) -> int:
            rows.append(fields)
            return len(rows) - 1

        fold(self, lambda lit: row(type(lit), lit.name), lambda g, l, r: row(Binary, g.conn, l, r))
        return _rebuild, (tuple(rows),)

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]
        while stack:  # pending text and terms, the next one on top
            x = stack.pop()
            if isinstance(x, str):
                out.append(x)
            elif isinstance(x, Binary):
                stack += ")", x.right, ", right=", x.left, f"Binary(conn={x.conn!r}, left="
            else:
                out.append(f"{type(x).__qualname__}(name={x.name!r})")
        return "".join(out)


def _rebuild(rows: tuple) -> "Formula":
    """The term a ``__reduce__`` table describes, through the constructors."""
    built: list = []
    for cls, *fields in rows:
        if cls is Binary:
            conn, left, right = fields
            fields = conn, built[left], built[right]
        built.append(cls(*fields))
    return built[-1]


class PosAtom(_Term):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> "PosAtom":
        return _TERMS.get((cls, name)) or _intern(cls, (name,), (0, name, 0))

    def __str__(self) -> str:
        return self.name


class NegAtom(_Term):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> "NegAtom":
        return _TERMS.get((cls, name)) or _intern(cls, (name,), (0, name, 1))

    def __str__(self) -> str:
        return "~" + self.name


class Binary(_Term):
    __slots__ = __match_args__ = ("conn", "left", "right")

    def __new__(cls, conn: Conn, left: "Formula", right: "Formula") -> "Binary":
        return _TERMS.get((cls, conn, left, right)) or _intern(
            cls, (conn, left, right), (1, _CONN_INDEX[conn], left.sort_key, right.sort_key)
        )

    def __str__(self) -> str:
        from .syntax import print_formula

        return print_formula(self)


Formula = Union[PosAtom, NegAtom, Binary]


def _check_atom_name(name: str) -> str:
    if not _ATOM_RE.match(name or ""):
        raise ValueError(f"invalid atom identifier: {name!r}")
    return name


def is_literal(f: Formula) -> bool:
    return isinstance(f, (PosAtom, NegAtom))


def fold(f: Formula, leaf, node, value=None):
    """Evaluate ``f`` bottom-up: ``leaf(lit)`` at each literal and
    ``node(b, left_value, right_value)`` at each compound ``b``.

    The walk keeps its own stack, so nesting depth costs heap, not Python
    frames, and each distinct subterm is evaluated once, left before right.
    ``value`` maps subterms to values already known, and the walk adds to it.
    """
    if not isinstance(f, Binary):
        return leaf(f)  # a literal needs no table
    value = {} if value is None else value
    stack = [f]
    while stack:
        g = stack[-1]
        if g in value:
            stack.pop()
        elif not isinstance(g, Binary):
            value[g] = leaf(stack.pop())
        elif g.left in value and g.right in value:
            value[stack.pop()] = node(g, value[g.left], value[g.right])
        else:
            stack += (g.right, g.left)  # the left operand is evaluated first
    return value[f]


def size(f: Formula) -> int:
    """Number of nodes in the formula tree."""
    return fold(f, lambda _: 1, lambda _, l, r: 1 + l + r)


# Total order on formulas, used for canonical multiset layout: atoms by name
# then polarity, before compounds by connective then operands.
sort_key = attrgetter("sort_key")


def dual(f: Formula) -> Formula:
    """De Morgan dual: flip literal polarity, exchange &/|, */par, @/$."""
    return fold(
        f,
        lambda lit: NegAtom(lit.name) if isinstance(lit, PosAtom) else PosAtom(lit.name),
        lambda g, l, r: Binary(DUAL_CONN[g.conn], l, r),
    )


def is_qubit_shaped(f: Formula) -> bool:
    """An atom paired with its own negation under & or | (either order).

    This is the shape family closed under :func:`dual`, so @/$ operands stay
    well-formed when a whole formula is dualized.
    """
    if not isinstance(f, Binary) or f.conn not in ADDITIVE:
        return False
    l, r = f.left, f.right
    if isinstance(l, PosAtom) and isinstance(r, NegAtom):
        return l.name == r.name
    if isinstance(l, NegAtom) and isinstance(r, PosAtom):
        return l.name == r.name
    return False


def qubit_atom(f: Formula) -> str:
    """Underlying atom of a qubit-shaped formula."""
    if not is_qubit_shaped(f):
        raise ShapeError(f"not qubit-shaped: {f}")
    return f.left.name


@dataclass(frozen=True)
class QubitFormula:
    """A named qubit proposition; its formula image is atom & ~atom."""

    atom: str

    def __post_init__(self):
        _check_atom_name(self.atom)

    def formula(self) -> Binary:
        return Binary(Conn.WITH, PosAtom(self.atom), NegAtom(self.atom))


def qubit_of(atom: str) -> Binary:
    """The compound proposition A & ~A standing for a superposed qubit."""
    return QubitFormula(_check_atom_name(atom)).formula()


def _qubit_node(conn: Conn, left: Formula, right: Formula) -> Binary:
    if not (is_qubit_shaped(left) and is_qubit_shaped(right)):
        raise ShapeError(f"{conn.value} needs qubit-shaped operands, got {left} {conn.value} {right}")
    return Binary(conn, left, right)


def ent(left: Formula, right: Formula) -> Binary:
    """Entanglement node; operands must be qubit-shaped."""
    return _qubit_node(Conn.ENT, left, right)


def sec(left: Formula, right: Formula) -> Binary:
    """Dual-entanglement node; operands must be qubit-shaped."""
    return _qubit_node(Conn.SEC, left, right)


def _expansion(outer: Conn, inner: Conn, a: str, b: str) -> Binary:
    """(A inner B) outer (~A inner ~B)."""
    return Binary(outer, Binary(inner, PosAtom(a), PosAtom(b)), Binary(inner, NegAtom(a), NegAtom(b)))


def expand_entanglement(qa: QubitFormula, qb: QubitFormula) -> Binary:
    """Defining expansion of @: (A par B) & (~A par ~B)."""
    return _expansion(Conn.WITH, Conn.PAR, qa.atom, qb.atom)


def expand_sec(qa: QubitFormula, qb: QubitFormula) -> Binary:
    """Defining expansion of $: (A * B) | (~A * ~B)."""
    return _expansion(Conn.PLUS, Conn.TIMES, qa.atom, qb.atom)


_EXPAND = {Conn.ENT: expand_entanglement, Conn.SEC: expand_sec}


def _expand_node(g: Binary, left: Formula, right: Formula) -> Formula:
    if g.conn in _EXPAND:
        return _EXPAND[g.conn](QubitFormula(qubit_atom(g.left)), QubitFormula(qubit_atom(g.right)))
    return Binary(g.conn, left, right)


def expand_connectives(f: Formula) -> Formula:
    """Rewrite every @/$ node by its definition; other structure unchanged."""
    return fold(f, lambda lit: lit, _expand_node)


_COLLAPSE = {Conn.TIMES: Conn.WITH, Conn.PAR: Conn.PLUS}


def classical_collapse(f: Formula) -> Formula:
    """Map into the structural fragment: rewrite each @/$ node by its
    definition, then * -> & and par -> |.  So @ becomes (A|B)&(~A|~B) and $
    becomes (A&B)|(~A&~B); non-qubit @/$ operands raise :class:`ShapeError`."""
    return fold(
        expand_connectives(f),
        lambda lit: lit,
        lambda g, l, r: Binary(_COLLAPSE.get(g.conn, g.conn), l, r),
    )

"""Formula language: literals, binary connectives, duality and rewriting maps.

Negation exists only on atoms; negating a compound formula means taking its
involutive De Morgan dual.  The entanglement connective ``@`` and its dual
``$`` are only meaningful on qubit-shaped operands (an atom conjoined /
disjoined with its own negation), and the maps that need to look inside an
``@``/``$`` node raise :class:`ShapeError` when that does not hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Union


class Conn(Enum):
    """Binary connectives, valued by their surface tokens."""

    WITH = "&"    # additive conjunction
    PLUS = "|"    # additive disjunction
    TIMES = "*"   # multiplicative conjunction
    PAR = "par"   # multiplicative disjunction
    ENT = "@"     # entanglement
    SEC = "$"     # dual of entanglement


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
MULTIPLICATIVE = (Conn.TIMES, Conn.PAR)
ENTANGLEMENT = (Conn.ENT, Conn.SEC)

_ATOM_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class ShapeError(ValueError):
    """An @/$ node was built over (or inspected with) non-qubit operands."""


@dataclass(frozen=True)
class PosAtom:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NegAtom:
    name: str

    def __str__(self) -> str:
        return "~" + self.name


@dataclass(frozen=True)
class Binary:
    conn: Conn
    left: "Formula"
    right: "Formula"

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


def size(f: Formula) -> int:
    """Number of nodes in the formula tree."""
    if is_literal(f):
        return 1
    return 1 + size(f.left) + size(f.right)


@lru_cache(maxsize=None)
def sort_key(f: Formula):
    """Total order on formulas; used for canonical multiset layout."""
    if isinstance(f, PosAtom):
        return (0, f.name, 0)
    if isinstance(f, NegAtom):
        return (0, f.name, 1)
    return (1, _CONN_INDEX[f.conn], sort_key(f.left), sort_key(f.right))


def dual(f: Formula) -> Formula:
    """De Morgan dual: flip literal polarity, exchange &/|, */par, @/$."""
    match f:
        case PosAtom(name):
            return NegAtom(name)
        case NegAtom(name):
            return PosAtom(name)
        case Binary(conn, left, right):
            return Binary(DUAL_CONN[conn], dual(left), dual(right))
    raise TypeError(f"not a formula: {f!r}")


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


def ent(left: Formula, right: Formula) -> Binary:
    """Entanglement node; operands must be qubit-shaped."""
    if not (is_qubit_shaped(left) and is_qubit_shaped(right)):
        raise ShapeError(f"@ needs qubit-shaped operands, got {left} @ {right}")
    return Binary(Conn.ENT, left, right)


def sec(left: Formula, right: Formula) -> Binary:
    """Dual-entanglement node; operands must be qubit-shaped."""
    if not (is_qubit_shaped(left) and is_qubit_shaped(right)):
        raise ShapeError(f"$ needs qubit-shaped operands, got {left} $ {right}")
    return Binary(Conn.SEC, left, right)


def expand_entanglement(qa: QubitFormula, qb: QubitFormula) -> Binary:
    """Defining expansion of @: (A par B) & (~A par ~B)."""
    a, b = qa.atom, qb.atom
    return Binary(
        Conn.WITH,
        Binary(Conn.PAR, PosAtom(a), PosAtom(b)),
        Binary(Conn.PAR, NegAtom(a), NegAtom(b)),
    )


def expand_sec(qa: QubitFormula, qb: QubitFormula) -> Binary:
    """Defining expansion of $: (A * B) | (~A * ~B)."""
    a, b = qa.atom, qb.atom
    return Binary(
        Conn.PLUS,
        Binary(Conn.TIMES, PosAtom(a), PosAtom(b)),
        Binary(Conn.TIMES, NegAtom(a), NegAtom(b)),
    )


def expand_connectives(f: Formula) -> Formula:
    """Rewrite every @/$ node by its definition; other structure unchanged."""
    match f:
        case PosAtom() | NegAtom():
            return f
        case Binary(Conn.ENT, left, right):
            return expand_entanglement(
                QubitFormula(qubit_atom(left)), QubitFormula(qubit_atom(right))
            )
        case Binary(Conn.SEC, left, right):
            return expand_sec(
                QubitFormula(qubit_atom(left)), QubitFormula(qubit_atom(right))
            )
        case Binary(conn, left, right):
            return Binary(conn, expand_connectives(left), expand_connectives(right))
    raise TypeError(f"not a formula: {f!r}")


def classical_collapse(f: Formula) -> Formula:
    """Map into the structural fragment: * -> &, par -> |, and each @/$ node
    to its additive image (A|B)&(~A|~B) resp. (A&B)|(~A&~B).

    The @/$ cases need qubit-shaped operands to name the atoms; anything else
    raises :class:`ShapeError`.
    """
    match f:
        case PosAtom() | NegAtom():
            return f
        case Binary(Conn.ENT, left, right):
            a, b = qubit_atom(left), qubit_atom(right)
            return Binary(
                Conn.WITH,
                Binary(Conn.PLUS, PosAtom(a), PosAtom(b)),
                Binary(Conn.PLUS, NegAtom(a), NegAtom(b)),
            )
        case Binary(Conn.SEC, left, right):
            a, b = qubit_atom(left), qubit_atom(right)
            return Binary(
                Conn.PLUS,
                Binary(Conn.WITH, PosAtom(a), PosAtom(b)),
                Binary(Conn.WITH, NegAtom(a), NegAtom(b)),
            )
        case Binary(conn, left, right):
            target = {Conn.TIMES: Conn.WITH, Conn.PAR: Conn.PLUS}.get(conn, conn)
            return Binary(target, classical_collapse(left), classical_collapse(right))
    raise TypeError(f"not a formula: {f!r}")

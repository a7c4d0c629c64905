"""Independent checker for countermodel certificates.

Deliberately separate from the package's evaluator: the two models are
written here from their definitions (M4's product as a rule, not a table),
a formula is evaluated by plain recursion, and a search for a falsifying
valuation tries every valuation of every literal, with no monotonicity
shortcut.  It needs nothing from the package beyond the formula terms.

A sequent ``G |- D`` is true under a valuation when the product of ``G``
(the unit e when empty) is at most the par of ``D`` (f = ~e when empty).
``@`` reads as par and ``$`` as the product.
"""

from __future__ import annotations

from itertools import product

from entlogic.formulas import Binary, Conn

# each model's elements in order, bottom first, and its unit e
ELEMENTS = {"B2": ("0", "1"), "M4": ("0", "e", "f", "1")}
UNIT = {"B2": "1", "M4": "e"}
WEAKENING = {"B2": True, "M4": False}  # whether the model validates weakening


def _rank(model: str, x: str) -> int:
    return ELEMENTS[model].index(x)


def neg(model: str, x: str) -> str:
    """Involution: the order reversed."""
    elements = ELEMENTS[model]
    return elements[len(elements) - 1 - elements.index(x)]


def times(model: str, x: str, y: str) -> str:
    if model == "B2":
        return "1" if x == y == "1" else "0"
    # M4: 0 absorbs, e is the unit, and any other product is the top
    if "0" in (x, y):
        return "0"
    if x == "e":
        return y
    if y == "e":
        return x
    return "1"


def par(model: str, x: str, y: str) -> str:
    return neg(model, times(model, neg(model, x), neg(model, y)))


def value(model: str, f, valuation: dict) -> str:
    if not isinstance(f, Binary):
        return valuation[str(f)]
    x, y = value(model, f.left, valuation), value(model, f.right, valuation)
    if f.conn is Conn.WITH:
        return min(x, y, key=lambda v: _rank(model, v))
    if f.conn is Conn.PLUS:
        return max(x, y, key=lambda v: _rank(model, v))
    if f.conn in (Conn.TIMES, Conn.SEC):
        return times(model, x, y)
    return par(model, x, y)


def falsified(model: str, seq, valuation: dict) -> bool:
    """``seq`` is false in ``model`` under ``valuation`` (literal text -> element)."""
    left = UNIT[model]
    for f in seq.antecedent:
        left = times(model, left, value(model, f, valuation))
    right = neg(model, UNIT[model])
    for f in seq.succedent:
        right = par(model, right, value(model, f, valuation))
    return _rank(model, left) > _rank(model, right)


def literals(seq) -> list[str]:
    found: set[str] = set()

    def walk(f) -> None:
        if isinstance(f, Binary):
            walk(f.left)
            walk(f.right)
        else:
            found.add(str(f))

    for f in seq.antecedent + seq.succedent:
        walk(f)
    return sorted(found)


def refutation(model: str, seq) -> dict | None:
    """A valuation of every literal of ``seq`` that falsifies it in ``model``,
    found by trying them all; None when ``seq`` is valid there."""
    names = literals(seq)
    for values in product(ELEMENTS[model], repeat=len(names)):
        valuation = dict(zip(names, values))
        if falsified(model, seq, valuation):
            return valuation
    return None


def applicable(weakening: bool) -> list[str]:
    """The models sound for a configuration with or without weakening."""
    return [m for m in ELEMENTS if WEAKENING[m] or not weakening]

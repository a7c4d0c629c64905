"""Seeded inputs for every workload, built without importing entlogic.

Formulas are plain tuples: ``("+", "A")`` and ``("-", "A")`` for literals,
``(conn, left, right)`` for binary nodes, with ``conn`` one of the surface
tokens ``& | * par @ $``.  ``text`` renders them in the printer's canonical
form (the grammar in the top-level README), so a goal fed in as text can be
compared with what the program renders back.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

STANDARD = ("&", "|", "*", "par")
ENTANGLING = ("@", "$")
ATOMS = ("A", "B")


def pos(name: str) -> tuple:
    return ("+", name)


def neg(name: str) -> tuple:
    return ("-", name)


def is_literal(f: tuple) -> bool:
    return f[0] in ("+", "-")


def qubit(name: str) -> tuple:
    return ("&", pos(name), neg(name))


def _is_q_sugar(f: tuple) -> bool:
    return f[0] == "&" and f[1] == ("+", f[1][1]) and f[2] == ("-", f[1][1])


def text(f: tuple) -> str:
    if f[0] == "+":
        return f[1]
    if f[0] == "-":
        return "~" + f[1]
    if _is_q_sugar(f):
        return f"Q({f[1][1]})"

    def operand(x: tuple) -> str:
        return text(x) if is_literal(x) or _is_q_sugar(x) else f"({text(x)})"

    return f"{operand(f[1])} {f[0]} {operand(f[2])}"


def size(f: tuple) -> int:
    return 1 if is_literal(f) else 1 + size(f[1]) + size(f[2])


class Goal:
    """A sequent as two lists of formula texts, plus its source text."""

    __slots__ = ("ante", "succ")

    def __init__(self, ante, succ):
        self.ante = list(ante)
        self.succ = list(succ)

    @property
    def text(self) -> str:
        left, right = ", ".join(self.ante), ", ".join(self.succ)
        return " ".join(part for part in (left, "|-", right) if part)

    def key(self) -> tuple:
        return tuple(sorted(self.ante)), tuple(sorted(self.succ))


def split_sequent_text(line: str) -> tuple:
    """Multiset key of a rendered sequent (formulas never contain commas)."""
    left, _, right = line.partition("|-")
    sides = [[x.strip() for x in side.split(",") if x.strip()] for side in (left, right)]
    return tuple(sorted(sides[0])), tuple(sorted(sides[1]))


# ---------------------------------------------------------------------------
# family: the criterion-7 enumeration of tests/test_acceptance.py, rebuilt here


def _pool(lits: list, qubit_pairs: list) -> list:
    pool = list(lits)
    for conn in STANDARD:
        pool.extend((conn, l, r) for l in lits for r in lits)
    for conn in ENTANGLING:
        pool.extend((conn, qubit(x), qubit(y)) for x, y in qubit_pairs)
    return pool


def family() -> list:
    """All 42,560 family sequents as (ante, succ) formula tuples, in test order."""
    seen, out = set(), []

    def add(ante, succ):
        if sum(map(size, ante + succ)) > 12:
            return
        key = (tuple(sorted(map(text, ante))), tuple(sorted(map(text, succ))))
        if key not in seen:
            seen.add(key)
            out.append((ante, succ))

    pool = _pool([pos("A"), neg("A")], [("A", "A")])
    sides = [()] + [(f,) for f in pool] + list(combinations_with_replacement(pool, 2))
    for ante in sides:
        for succ in sides:
            add(ante, succ)
    pool2 = _pool([pos("A"), neg("A"), pos("B"), neg("B")], [(x, y) for x in "AB" for y in "AB"])
    sides2 = [()] + [(f,) for f in pool2]
    for ante in sides2:
        for succ in sides2:
            add(ante, succ)
    return out


# ---------------------------------------------------------------------------
# splits: goals shaped like the hypothesis oracle test, plus the wide series


def qubit_shapes(name: str) -> list:
    p, n = pos(name), neg(name)
    return [("&", p, n), ("&", n, p), ("|", n, p), ("|", p, n)]


LITERALS = [lit for a in ATOMS for lit in (pos(a), neg(a))]
ALL_QUBIT_SHAPES = [shape for a in ATOMS for shape in qubit_shapes(a)]


def random_formula(rng: random.Random, depth: int) -> tuple:
    branch = rng.randrange(3) if depth > 0 else 0
    if branch == 0:
        return rng.choice(LITERALS)
    if branch == 1:
        conn = rng.choice(STANDARD)
        return (conn, random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return (rng.choice(ENTANGLING), rng.choice(ALL_QUBIT_SHAPES), rng.choice(ALL_QUBIT_SHAPES))


def random_goals(seed: int, count: int) -> list:
    """At most 2 formulas per side, depth at most 2, @/$ over every qubit shape."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ante = [random_formula(rng, 2) for _ in range(rng.randint(0, 2))]
        succ = [random_formula(rng, 2) for _ in range(rng.randint(0, 2))]
        out.append((ante, succ))
    return out


def wide_goal(k: int) -> tuple:
    """``A par B, C0..C(k-1) |- D, E``: no Ci can ever meet an axiom."""
    ante = [("par", pos("A"), pos("B"))] + [pos(f"C{i}") for i in range(k)]
    return ante, [pos("D"), pos("E")]


def to_goal(ante, succ) -> Goal:
    return Goal(map(text, ante), map(text, succ))


# ---------------------------------------------------------------------------
# stored oracle verdicts (regenerate with perfbench/make_verdicts.py)


def load_verdicts(name: str) -> str:
    return "".join((DATA / f"{name}.txt").read_text().split())


def save_verdicts(name: str, verdicts: str) -> None:
    lines = [verdicts[i : i + 100] for i in range(0, len(verdicts), 100)]
    (DATA / f"{name}.txt").write_text("\n".join(lines) + "\n")

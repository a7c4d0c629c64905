"""Independent brute-force provability oracle for cross-checking the engine.

Deliberately separate from the package's search code: premises are re-derived
inline per connective, context splits are enumerated as index subsets rather
than multiplicity vectors, and provability is decided by naive recursion over
the shrinking premise measure.  Structural rules are out of scope: the oracle
covers exactly the terminating (no-weakening, no-contraction) fragment.
A sequent is keyed by its two sides as sorted formula tuples, so the oracle
needs nothing from the package beyond the formula terms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from entlogic.formulas import Binary, Conn, is_literal, sort_key


def _sorted(*formulas) -> tuple:
    return tuple(sorted(formulas, key=sort_key))


@lru_cache(maxsize=None)
def _index_splits(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every (chosen, rest) pair of index subsets of ``range(n)``."""
    idx = range(n)
    return tuple(
        (chosen, tuple(i for i in idx if i not in chosen))
        for r in range(n + 1)
        for chosen in combinations(idx, r)
    )


def _splits(items: tuple) -> list[tuple[tuple, tuple]]:
    # a subsequence of a sorted tuple is sorted
    return [
        (tuple(items[i] for i in chosen), tuple(items[i] for i in rest))
        for chosen, rest in _index_splits(len(items))
    ]


def provable(seq) -> bool:
    """Does the sequent ``seq`` (anything with ``antecedent`` and
    ``succedent`` tuples) have a proof without weakening and contraction?"""
    return _provable(_sorted(*seq.antecedent), _sorted(*seq.succedent))


@lru_cache(maxsize=None)
def _provable(ante: tuple, succ: tuple) -> bool:
    if len(ante) == 1 and len(succ) == 1 and ante[0] == succ[0] and is_literal(ante[0]):
        return True

    def without(side: tuple, i: int) -> tuple:
        return side[:i] + side[i + 1 :]

    for i, f in enumerate(ante):
        if not isinstance(f, Binary):
            continue
        rest = without(ante, i)
        if f.conn is Conn.WITH:
            if _provable(_sorted(*rest, f.left), succ):
                return True
            if _provable(_sorted(*rest, f.right), succ):
                return True
        elif f.conn is Conn.PLUS:
            if _provable(_sorted(*rest, f.left), succ) and _provable(_sorted(*rest, f.right), succ):
                return True
        elif f.conn in (Conn.TIMES, Conn.SEC):
            if _provable(_sorted(*rest, f.left, f.right), succ):
                return True
        elif f.conn in (Conn.PAR, Conn.ENT):
            for a1, a2 in _splits(rest):
                for s1, s2 in _splits(succ):
                    if _provable(_sorted(*a1, f.left), s1) and _provable(_sorted(*a2, f.right), s2):
                        return True

    for i, f in enumerate(succ):
        if not isinstance(f, Binary):
            continue
        rest = without(succ, i)
        if f.conn is Conn.PLUS:
            if _provable(ante, _sorted(*rest, f.left)):
                return True
            if _provable(ante, _sorted(*rest, f.right)):
                return True
        elif f.conn is Conn.WITH:
            if _provable(ante, _sorted(*rest, f.left)) and _provable(ante, _sorted(*rest, f.right)):
                return True
        elif f.conn in (Conn.PAR, Conn.ENT):
            if _provable(ante, _sorted(*rest, f.left, f.right)):
                return True
        elif f.conn in (Conn.TIMES, Conn.SEC):
            for a1, a2 in _splits(ante):
                for s1, s2 in _splits(rest):
                    if _provable(a1, _sorted(*s1, f.left)) and _provable(a2, _sorted(*s2, f.right)):
                        return True

    return False

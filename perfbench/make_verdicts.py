"""Regenerate the stored oracle verdicts from tests/oracle.py.

Run from the repository root:  python3 perfbench/make_verdicts.py
The brute-force oracle takes about half a minute on the family.  It writes
perfbench/data/family.txt (42,560 verdicts in enumeration order) and
perfbench/data/splits.txt (the fixed random goals, in generation order), one
character per goal: 1 provable, 0 not provable.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
from entlogic.formulas import Binary, Conn, NegAtom, PosAtom  # noqa: E402
from entlogic.kernel import Sequent  # noqa: E402

import inputs  # noqa: E402
from workloads import SPLITS_COUNT, SPLITS_SEED  # noqa: E402


def to_formula(f: tuple):
    if f[0] == "+":
        return PosAtom(f[1])
    if f[0] == "-":
        return NegAtom(f[1])
    return Binary(Conn(f[0]), to_formula(f[1]), to_formula(f[2]))


def verdicts(goals) -> str:
    return "".join(
        "1" if oracle.provable(Sequent.of(map(to_formula, a), map(to_formula, s))) else "0"
        for a, s in goals
    )


def main() -> None:
    fam = inputs.family()
    if len(fam) != 42_560:
        raise SystemExit(f"family has {len(fam)} sequents, expected 42560")
    inputs.save_verdicts("family", verdicts(fam))
    inputs.save_verdicts("splits", verdicts(inputs.random_goals(SPLITS_SEED, SPLITS_COUNT)))


if __name__ == "__main__":
    main()

"""Surface syntax: tokenizer, parser and printers.

Grammar (ASCII only)::

    sequent := list "|-" list
    list    := (formula ("," formula)*)?
    formula := term (BINOP term)?
    term    := "~"? (ATOM | "Q(" ATOM ")" | "(" formula ")")
    BINOP   := "&" | "|" | "*" | "par" | "@" | "$"
    ATOM    := [A-Z][A-Za-z0-9_]*

Every compound operand must be parenthesized (one operator per level), so a
chain like ``A & B & C`` is rejected instead of silently associating.
``Q(A)`` is sugar for ``A & ~A``; ``~`` on a compound computes the dual.

The tokenizer is one regex scan into ``(kind, text, start, end)`` tuples, and
the parser carries each finished term as ``(formula, start, end)``; a
:class:`SourceSpan` is built only for a :class:`ParseError`.
"""

from __future__ import annotations

import json
import re
from functools import partial
from typing import NamedTuple

from .formulas import (
    Binary,
    Conn,
    Formula,
    NegAtom,
    PosAtom,
    dual,
    ent,
    fold,
    is_qubit_shaped,
    qubit_of,
    sec,
)
from . import kernel


class _SourceSpan(NamedTuple):
    start: int
    end: int


class SourceSpan(_SourceSpan):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SourceSpan":
        self = super().__new__(cls, *args, **kwargs)
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad span: {self.start}..{self.end}")
        return self


class ParseError(Exception):
    """Syntax or operand-shape failure, located in the input text."""

    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = tuple(expected)
        detail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {span.start}{detail}")


# One match per token: the whitespace before it, then one alternation tried
# left to right, so "|-" wins over "|" and BAD takes any other character.
_TOKEN_RE = re.compile(
    r"""\s*(?:
    (?P<TURNSTILE>\|-) | (?P<AMP>&) | (?P<PIPE>\|) | (?P<STAR>\*) | (?P<AT>@)
    | (?P<DOLLAR>\$) | (?P<TILDE>~) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
    | (?P<IDENT>[A-Z][A-Za-z0-9_]*) | (?P<KEYWORD>[a-z]+) | (?P<BAD>\S)
    )""",
    re.VERBOSE,
)

_BINOP_CONN = {
    "AMP": Conn.WITH,
    "PIPE": Conn.PLUS,
    "STAR": Conn.TIMES,
    "PAR": Conn.PAR,
    "AT": Conn.ENT,
    "DOLLAR": Conn.SEC,
}

_TERM_START = ("~", "an atom", "Q(", "(")


def _error(at: tuple, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """An error located at a token or a finished term; both tuples end with
    their start and end offsets."""
    return ParseError(SourceSpan(at[-2], at[-1]), message, expected)


def _tokenize(text: str) -> list[tuple]:
    """The ``(kind, text, start, end)`` tokens of ``text``, then an EOF token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = (kind, m.group(kind), m.start(kind), m.end())
        if kind == "KEYWORD":
            if tok[1] != "par":
                raise _error(tok, f"unknown keyword {tok[1]!r}")
            tok = ("PAR",) + tok[1:]
        elif kind == "BAD":
            raise _error(tok, f"unexpected character {tok[1]!r}")
        tokens.append(tok)
    tokens.append(("EOF", "", len(text), len(text)))
    return tokens


def _expect(tok: tuple, kind: str, what: str) -> None:
    if tok[0] != kind:
        raise _error(tok, f"expected {what}", (what,))


def _formula(tokens: list, i: int) -> tuple[tuple, int]:
    """The formula that starts at token ``i`` as ``(formula, start, end)``,
    and the index of the token after it.

    An explicit stack of open formulas, so nesting depth costs heap, not
    Python stack.  A frame is [the offset of its "(", that of the "~" before
    it or None, its left operand, its operator token]; the outermost frame has
    no "(".
    """
    stack: list[list] = [[None, None, None, None]]
    while True:
        tilde = None
        if tokens[i][0] == "TILDE":
            tilde = tokens[i][2]
            i += 1
        tok = tokens[i]
        if tok[0] == "LPAREN":
            stack.append([tok[2], tilde, None, None])
            i += 1
            continue
        if tok[0] != "IDENT":
            raise _error(tok, "expected a formula term", _TERM_START)
        if tok[1] == "Q" and tokens[i + 1][0] == "LPAREN":
            _expect(tokens[i + 2], "IDENT", "an atom")
            _expect(tokens[i + 3], "RPAREN", ")")
            value = (qubit_of(tokens[i + 2][1]), tok[2], tokens[i + 3][3])
            i += 4
        else:
            value = (PosAtom(tok[1]), tok[2], tok[3])
            i += 1
        if tilde is not None:
            value = (dual(value[0]), tilde, value[2])
        # feed the finished term to the open formulas, closing each one it
        # completes
        while True:
            lparen, tilde, left, op = stack[-1]
            if left is None and tokens[i][0] in _BINOP_CONN:
                stack[-1][2:] = value, tokens[i]
                i += 1
                break  # the right operand comes next
            if left is not None:
                value = _binary(left, op, value, tokens[i])
            stack.pop()
            if not stack:
                return value, i
            _expect(tokens[i], "RPAREN", ")")
            end = tokens[i][3]
            i += 1
            value = (value[0], lparen, end) if tilde is None else (dual(value[0]), tilde, end)


def _binary(left: tuple, op: tuple, right: tuple, nxt: tuple) -> tuple:
    conn = _BINOP_CONN[op[0]]
    if conn in (Conn.ENT, Conn.SEC):
        for operand in (left, right):
            if not is_qubit_shaped(operand[0]):
                raise _error(
                    operand,
                    f"operand of {op[1]!r} must be qubit-shaped "
                    "(an atom with its own negation, e.g. Q(A))",
                )
    if nxt[0] in _BINOP_CONN:
        raise _error(nxt, "chained operators need explicit parentheses", ("(", ")"))
    return Binary(conn, left[0], right[0]), left[1], right[2]


def _formula_list(tokens: list, i: int, stop_kind: str) -> tuple[list[Formula], int]:
    items: list[Formula] = []
    if tokens[i][0] == stop_kind:
        return items, i
    while True:
        value, i = _formula(tokens, i)
        items.append(value[0])
        if tokens[i][0] != "COMMA":
            return items, i
        i += 1


def _expect_end(tok: tuple, what: str) -> None:
    if tok[0] != "EOF":
        raise _error(tok, f"unexpected {tok[1]!r} after {what}")


def parse_formula(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    tokens = _tokenize(text)
    value, i = _formula(tokens, 0)
    _expect_end(tokens[i], "formula")
    return value[0]


def parse_sequent(text: str) -> "kernel.Sequent":
    """Parse ``Gamma |- Delta`` with comma-separated, possibly empty sides."""
    tokens = _tokenize(text)
    turnstiles = [t for t in tokens if t[0] == "TURNSTILE"]
    if not turnstiles:
        raise _error(tokens[-1], "missing |-", ("|-",))
    if len(turnstiles) > 1:
        raise _error(turnstiles[1], "sequent must contain exactly one |-")
    antecedent, i = _formula_list(tokens, 0, "TURNSTILE")
    _expect(tokens[i], "TURNSTILE", "|-")
    succedent, i = _formula_list(tokens, i + 1, "EOF")
    _expect_end(tokens[i], "sequent")
    return kernel.Sequent.of(antecedent, succedent)


# ---------------------------------------------------------------------------
# printing


def _is_q_sugar(f: Formula) -> bool:
    return (
        isinstance(f, Binary)
        and f.conn is Conn.WITH
        and isinstance(f.left, PosAtom)
        and isinstance(f.right, NegAtom)
        and f.left.name == f.right.name
    )


def _render(f: Formula, negated: str, q_sugar: str, conn_text: dict, opening: str, closing: str) -> str:
    """Print ``f`` token by token from an explicit stack of pending parts.

    ``negated`` and ``q_sugar`` format an atom name, ``conn_text`` maps each
    connective to its infix text, and an operand other than a literal or
    ``Q(..)`` goes between ``opening`` and ``closing``.  Tokens are joined
    once at the end, so time and memory grow with the output, at any depth.
    """
    out: list[str] = []
    stack: list = [f]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is str:
            out.append(x)
        elif kind is PosAtom:
            out.append(x.name)
        elif kind is NegAtom:
            out.append(negated.format(x.name))
        elif _is_q_sugar(x):
            out.append(q_sugar.format(x.left.name))
        else:  # pushed in reverse: left operand, connective, right operand
            for part in (x.right, conn_text[x.conn], x.left):
                if type(part) is Binary and not _is_q_sugar(part):
                    stack += (closing, part, opening)
                else:
                    stack.append(part)
    return "".join(out)


_TEXT = ("~{}", "Q({})", {c: f" {c.value} " for c in Conn}, "(", ")")


def print_formula(f: Formula) -> str:
    """Canonical text; ``parse_formula(print_formula(f))`` rebuilds ``f``."""
    return _render(f, *_TEXT)


def print_sequent(s: "kernel.Sequent") -> str:
    left = ", ".join(print_formula(f) for f in s.antecedent)
    right = ", ".join(print_formula(f) for f in s.succedent)
    return f"{left} |- {right}".strip()


_LATEX_CONN = {
    Conn.WITH: r" \mathbin{\&} ",
    Conn.PLUS: r" \vee ",
    Conn.TIMES: r" \otimes ",
    Conn.PAR: r" \wp ",
    Conn.ENT: r" \mathbin{@} ",
    Conn.SEC: r" \mathbin{\S} ",
}
_LATEX = (r"{}^{{\perp}}", "Q_{{{}}}", _LATEX_CONN, r"\left(", r"\right)")


def formula_to_latex(f: Formula) -> str:
    return _render(f, *_LATEX)


def sequent_to_latex(s: "kernel.Sequent") -> str:
    left = ", ".join(formula_to_latex(f) for f in s.antecedent)
    right = ", ".join(formula_to_latex(f) for f in s.succedent)
    return f"{left} \\vdash {right}".strip()


def _latex_label(rule: str) -> str:
    return rule.replace("$", r"\$").replace("&", r"\&")


# The proof tables' version, a literal's row, and the constructor of each
# connective's row (@ and $ check their operands).
PROOF_VERSION = 2
_LITERAL_RE = re.compile(r"(~?)([A-Z][A-Za-z0-9_]*)\Z")
_BUILD = {c.value: partial(Binary, c) for c in Conn} | {Conn.ENT.value: ent, Conn.SEC.value: sec}


def proof_to_dict(p: "kernel.ProofTree") -> dict:
    """The proof as flat tables whose indices point to earlier rows: a
    ``formulas`` row is a literal's text or ``[conn, i, j]``, a ``sequents`` row
    ``[[antecedent], [succedent]]``, a ``nodes`` row ``[sequent, rule, [premise
    nodes]]``.  Each distinct formula, sequent and node is written once."""
    tables: dict = {"formulas": [], "sequents": [], "nodes": []}
    rows: dict = {}  # formula, sequent or node -> its row; also fold's value table

    def row(table: str, value) -> int:
        tables[table].append(value)
        return len(tables[table]) - 1

    def literal(lit: Formula) -> int:
        return row("formulas", str(lit))

    def binary(g: Binary, left: int, right: int) -> int:
        return row("formulas", [g.conn.value, left, right])

    for tree in kernel._post_order(p):
        s = tree.conclusion
        if s not in rows:
            sides = (s.antecedent, s.succedent)
            rows[s] = row("sequents", [[fold(f, literal, binary, rows) for f in side] for side in sides])
        rows[tree] = row("nodes", [rows[s], tree.node.rule, [rows[c] for c in tree.children]])
    return {"version": PROOF_VERSION, **tables, "root": rows[p]}


def _index(ref, limit: int, what: str = "index") -> int:
    if type(ref) is not int or not 0 <= ref < limit:  # Python would read -1 as the last row
        raise ValueError(f"{what} {ref!r} is not in range({limit})")
    return ref


def _row(x, shape: str, length: int | None = None) -> list:
    if type(x) is not list or length not in (None, len(x)):
        raise ValueError(f"expected {shape}, got {x!r}")
    return x


def proof_from_dict(d: dict) -> "kernel.ProofTree":
    """The proof :func:`proof_to_dict` wrote, rebuilt in one forward pass through
    the constructors.  A malformed table raises :class:`ValueError` (or, for a
    bad ``@``/``$`` operand, :class:`ShapeError`) naming the table and row."""
    if type(d) is not dict or d.get("version") != PROOF_VERSION:
        raise ValueError(f"proof version: expected {PROOF_VERSION}")
    formulas, sequents, nodes = [], [], []

    def formula(x, i: int) -> Formula:
        if type(x) is str:
            m = _LITERAL_RE.match(x)
            if m is None:
                raise ValueError(f"{x!r} is not a literal")
            return (NegAtom if m[1] else PosAtom)(m[2])
        conn, left, right = _row(x, "a literal or [conn, i, j]", 3)
        if type(conn) is not str or conn not in _BUILD:
            raise ValueError(f"unknown connective {conn!r}")
        return _BUILD[conn](formulas[_index(left, i)], formulas[_index(right, i)])

    def sequent(x, _i: int) -> "kernel.Sequent":
        sides = _row(x, "[[antecedent], [succedent]]", 2)
        ante, succ = ([formulas[_index(j, len(formulas))] for j in _row(side, "a list")] for side in sides)
        return kernel.Sequent(ante, succ)

    def node(x, i: int) -> "kernel.ProofTree":
        s, rule, premises = _row(x, "[sequent, rule, [premise nodes]]", 3)
        if type(rule) is not str:
            raise ValueError(f"rule {rule!r} is not a string")
        children = tuple(nodes[_index(j, i)] for j in _row(premises, "a list"))
        conclusion = sequents[_index(s, len(sequents))]
        inst = kernel.RuleInstance(rule, conclusion, tuple(c.conclusion for c in children))
        return kernel.ProofTree(inst, children)

    tables = ("formulas", formulas, formula), ("sequents", sequents, sequent), ("nodes", nodes, node)
    for table, rows, build in tables:
        for i, x in enumerate(_row(d.get(table), f"a list of {table}")):
            try:
                rows.append(build(x, i))
            except ValueError as err:  # ShapeError keeps its class
                raise type(err)(f"proof {table} row {i}: {err}") from None
    return nodes[_index(d.get("root"), len(nodes), "proof root")]


def proof_from_json(text: str) -> "kernel.ProofTree":
    return proof_from_dict(json.loads(text))


def print_proof(p: "kernel.ProofTree", format: str = "text") -> str:
    """Render a proof tree as indented text, bussproofs LaTeX, or JSON."""
    if format == "text":
        lines: list[str] = []

        def line(tree: "kernel.ProofTree", _children: list, depth: int) -> None:
            lines.append("  " * depth + f"{print_sequent(tree.conclusion)}   [{tree.node.rule}]")

        kernel.fold_proof(p, line)
        return "\n".join(lines)
    if format == "latex":
        lines = [r"\begin{prooftree}"]

        def emit(tree: "kernel.ProofTree", _children: list, _depth: int) -> None:
            if not tree.children:
                lines.append(r"\AxiomC{}")
            lines.append(rf"\RightLabel{{$\mathit{{{_latex_label(tree.node.rule)}}}$}}")
            infc = {0: "Unary", 1: "Unary", 2: "Binary"}[len(tree.children)]
            lines.append(rf"\{infc}InfC{{${sequent_to_latex(tree.conclusion)}$}}")

        kernel.fold_proof(p, emit)
        lines.append(r"\end{prooftree}")
        return "\n".join(lines)
    if format == "json":
        return json.dumps(proof_to_dict(p), indent=2, sort_keys=True)
    raise ValueError(f"unknown proof format: {format!r}")

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

The tokenizer is one ``findall`` into plain token strings, and a token's kind
is read from its text.  The parser carries token indices; the tokens' offsets
are worked out again only for a :class:`ParseError`, so a text that parses
builds no :class:`SourceSpan`.  :func:`print_formula` caches the text it
returns on the term it printed.
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


# One match per token: the whitespace before it, then the token, tried left
# to right, so "|-" wins over "|" and any other character is a token alone.
_TOKEN_RE = re.compile(r"\s*(\|-|[A-Z][A-Za-z0-9_]*|[a-z]+|\S)")

_BINOP_CONN = {c.value: c for c in Conn}

# The tokens that are not atoms; "" ends the token list.
_NOT_ATOM = frozenset(("|-", "~", "(", ")", ",", "", *_BINOP_CONN))

_TERM_START = ("~", "an atom", "Q(", "(")


def _error(text: str, first: int, last: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """An error from the start of token ``first`` of ``text`` to the end of
    token ``last``; the index past the last token stands for the text's end."""
    spans = [m.span(1) for m in _TOKEN_RE.finditer(text)] + [(len(text), len(text))]
    return ParseError(SourceSpan(spans[first][0], spans[last][1]), message, expected)


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then ``""``.  The first unknown keyword or
    character in text order is an error, before any syntax error."""
    tokens = _TOKEN_RE.findall(text)
    atoms = set(tokens).difference(_NOT_ATOM)
    # all of them start with a capital iff the least is >= "A" and the greatest < "["
    if atoms and not "A" <= min(atoms) <= max(atoms) < "[":
        i = next(i for i, tok in enumerate(tokens) if tok not in _NOT_ATOM and not "A" <= tok < "[")
        tok = tokens[i]
        what = "unknown keyword" if "a" <= tok[0] <= "z" else "unexpected character"
        raise _error(text, i, i, f"{what} {tok!r}")
    tokens.append("")
    return tokens


def _expect(text: str, i: int, ok: bool, what: str) -> None:
    if not ok:
        raise _error(text, i, i, f"expected {what}", (what,))


def _formula(text: str, tokens: list, i: int) -> tuple[Formula, int]:
    """The formula that starts at token ``i``, and the index of the token
    after it.

    An explicit stack of open formulas, so nesting depth costs heap, not
    Python stack.  A frame is [the index of its "(" or of the "~" before it,
    whether a "~" is there, its left operand, the index where that operand
    starts, the index of its operator]; the outermost frame has no "(".
    """
    stack: list[list] = [[0, False, None, 0, 0]]
    while True:
        start = i  # of the term read next, "~" included
        tilde = tokens[i] == "~"
        i += tilde
        tok = tokens[i]
        if tok == "(":
            stack.append([start, tilde, None, 0, 0])
            i += 1
            continue
        if tok in _NOT_ATOM:
            raise _error(text, i, i, "expected a formula term", _TERM_START)
        if tok == "Q" and tokens[i + 1] == "(":
            _expect(text, i + 2, tokens[i + 2] not in _NOT_ATOM, "an atom")
            _expect(text, i + 3, tokens[i + 3] == ")", ")")
            value = qubit_of(tokens[i + 2])
            value = dual(value) if tilde else value
            i += 4
        else:
            value = NegAtom(tok) if tilde else PosAtom(tok)
            i += 1
        # feed the finished term to the open formulas, closing each one it
        # completes
        while True:
            frame = stack[-1]
            if frame[2] is None and tokens[i] in _BINOP_CONN:
                frame[2:] = value, start, i
                i += 1
                break  # the right operand comes next
            if frame[2] is not None:
                value = _binary(text, tokens, frame, value, start, i)
            stack.pop()
            if not stack:
                return value, i
            _expect(text, i, tokens[i] == ")", ")")
            i += 1
            start = frame[0]
            value = dual(value) if frame[1] else value


def _binary(text: str, tokens: list, frame: list, right: Formula, start: int, i: int) -> Binary:
    """The node of ``frame``'s left operand and operator with ``right``, the
    term from token ``start`` to the token before ``i``."""
    left, left_start, op = frame[2:]
    conn = _BINOP_CONN[tokens[op]]
    if conn in (Conn.ENT, Conn.SEC):
        for operand, first, last in ((left, left_start, op - 1), (right, start, i - 1)):
            if not is_qubit_shaped(operand):
                shape = "qubit-shaped (an atom with its own negation, e.g. Q(A))"
                raise _error(text, first, last, f"operand of {tokens[op]!r} must be {shape}")
    if tokens[i] in _BINOP_CONN:
        raise _error(text, i, i, "chained operators need explicit parentheses", ("(", ")"))
    return Binary(conn, left, right)


def _formula_list(text: str, tokens: list, i: int, stop: str) -> tuple[list[Formula], int]:
    items: list[Formula] = []
    if tokens[i] == stop:
        return items, i
    while True:
        value, i = _formula(text, tokens, i)
        items.append(value)
        if tokens[i] != ",":
            return items, i
        i += 1


def _expect_end(text: str, tokens: list, i: int, what: str) -> None:
    if tokens[i]:
        raise _error(text, i, i, f"unexpected {tokens[i]!r} after {what}")


def parse_formula(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    tokens = _tokenize(text)
    value, i = _formula(text, tokens, 0)
    _expect_end(text, tokens, i, "formula")
    return value


def parse_sequent(text: str) -> "kernel.Sequent":
    """Parse ``Gamma |- Delta`` with comma-separated, possibly empty sides."""
    tokens = _tokenize(text)
    turnstiles = tokens.count("|-")
    if not turnstiles:
        raise _error(text, len(tokens) - 1, len(tokens) - 1, "missing |-", ("|-",))
    if turnstiles > 1:
        i = tokens.index("|-", tokens.index("|-") + 1)
        raise _error(text, i, i, "sequent must contain exactly one |-")
    antecedent, i = _formula_list(text, tokens, 0, "|-")
    _expect(text, i, tokens[i] == "|-", "|-")
    succedent, i = _formula_list(text, tokens, i + 1, "")
    _expect_end(text, tokens, i, "sequent")
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
    """Canonical text; ``parse_formula(print_formula(f))`` rebuilds ``f``.

    The text is kept on ``f`` the first time ``f`` is printed, never on its
    subterms, so the cache holds no text that a call did not return."""
    try:
        return f.text
    except AttributeError:
        text = _render(f, *_TEXT)
        object.__setattr__(f, "text", text)
        return text


def print_sequent(s: "kernel.Sequent") -> str:
    left = ", ".join(map(print_formula, s.antecedent))
    right = ", ".join(map(print_formula, s.succedent))
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
        return "\n".join(
            "  " * depth + f"{print_sequent(tree.conclusion)}   [{tree.node.rule}]"
            for tree, depth in kernel.walk_proof(p)
        )
    if format == "latex":
        lines = [r"\begin{prooftree}"]
        for tree, _ in kernel.walk_proof(p):
            if not tree.children:
                lines.append(r"\AxiomC{}")
            lines.append(rf"\RightLabel{{$\mathit{{{_latex_label(tree.node.rule)}}}$}}")
            infc = {0: "Unary", 1: "Unary", 2: "Binary"}[len(tree.children)]
            lines.append(rf"\{infc}InfC{{${sequent_to_latex(tree.conclusion)}$}}")
        lines.append(r"\end{prooftree}")
        return "\n".join(lines)
    if format == "json":
        return json.dumps(proof_to_dict(p), indent=2, sort_keys=True)
    raise ValueError(f"unknown proof format: {format!r}")

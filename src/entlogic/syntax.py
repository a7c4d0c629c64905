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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .formulas import (
    Binary,
    Conn,
    Formula,
    NegAtom,
    PosAtom,
    dual,
    is_literal,
    is_qubit_shaped,
    qubit_of,
)
from . import kernel


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad span: {self.start}..{self.end}")


class ParseError(Exception):
    """Syntax or operand-shape failure, located in the input text."""

    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = tuple(expected)
        detail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {span.start}{detail}")


# one alternation tried left to right, so "|-" wins over "|"
_TOKEN_RE = re.compile(
    r"""
    (?P<TURNSTILE>\|-) | (?P<AMP>&) | (?P<PIPE>\|) | (?P<STAR>\*) | (?P<AT>@)
    | (?P<DOLLAR>\$) | (?P<TILDE>~) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
    | (?P<IDENT>[A-Z][A-Za-z0-9_]*) | (?P<KEYWORD>[a-z]+)
    """,
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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(SourceSpan(i, i + 1), f"unexpected character {text[i]!r}")
        tok = Token(m.lastgroup, m.group(), i, m.end())
        if tok.kind == "KEYWORD":
            if tok.text != "par":
                raise ParseError(tok.span, f"unknown keyword {tok.text!r}")
            tok = Token("PAR", tok.text, tok.start, tok.end)
        tokens.append(tok)
        i = m.end()
    tokens.append(Token("EOF", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, f"expected {what}", (what,))
        return self.advance()

    def formula(self) -> tuple[Formula, SourceSpan]:
        # An explicit stack of open formulas, so nesting depth costs heap, not
        # Python stack.  A frame is [its "(" token, the "~" before that "(",
        # its left operand, its operator]; the outermost frame has no "(".
        stack: list[list] = [[None, None, None, None]]
        while True:
            tilde = self.advance() if self.peek().kind == "TILDE" else None
            if self.peek().kind == "LPAREN":
                stack.append([self.advance(), tilde, None, None])
                continue
            value = self._negated(tilde, *self.term_core())
            # feed the finished term to the open formulas, closing each one
            # it completes
            while True:
                lparen, tilde, left, op = stack[-1]
                if left is None and self.peek().kind in _BINOP_CONN:
                    stack[-1][2:] = value, self.advance()
                    break  # the right operand comes next
                if left is not None:
                    value = self._binary(left, op, value)
                stack.pop()
                if not stack:
                    return value
                close = self.expect("RPAREN", ")")
                value = self._negated(tilde, value[0], SourceSpan(lparen.start, close.end))

    @staticmethod
    def _negated(tilde, f: Formula, span: SourceSpan) -> tuple[Formula, SourceSpan]:
        if tilde is None:
            return f, span
        return dual(f), SourceSpan(tilde.start, span.end)

    def _binary(self, left, op: Token, right) -> tuple[Formula, SourceSpan]:
        (lf, lspan), (rf, rspan) = left, right
        conn = _BINOP_CONN[op.kind]
        if conn in (Conn.ENT, Conn.SEC):
            for operand, span in ((lf, lspan), (rf, rspan)):
                if not is_qubit_shaped(operand):
                    raise ParseError(
                        span,
                        f"operand of {op.text!r} must be qubit-shaped "
                        "(an atom with its own negation, e.g. Q(A))",
                    )
        nxt = self.peek()
        if nxt.kind in _BINOP_CONN:
            raise ParseError(
                nxt.span,
                "chained operators need explicit parentheses",
                ("(", ")"),
            )
        return Binary(conn, lf, rf), SourceSpan(lspan.start, rspan.end)

    def term_core(self) -> tuple[Formula, SourceSpan]:
        """An atom or ``Q(atom)``; :meth:`formula` handles parentheses."""
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "Q" and self.peek().kind == "LPAREN":
                self.advance()
                atom = self.expect("IDENT", "an atom")
                close = self.expect("RPAREN", ")")
                return qubit_of(atom.text), SourceSpan(tok.start, close.end)
            return PosAtom(tok.text), tok.span
        raise ParseError(tok.span, "expected a formula term", _TERM_START)

    def formula_list(self, stop_kinds: tuple[str, ...]) -> list[Formula]:
        items: list[Formula] = []
        if self.peek().kind in stop_kinds:
            return items
        f, _ = self.formula()
        items.append(f)
        while self.peek().kind == "COMMA":
            self.advance()
            f, _ = self.formula()
            items.append(f)
        return items


def parse_formula(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    p = _Parser(text)
    f, _ = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(tok.span, f"unexpected {tok.text!r} after formula")
    return f


def parse_sequent(text: str) -> "kernel.Sequent":
    """Parse ``Gamma |- Delta`` with comma-separated, possibly empty sides."""
    p = _Parser(text)
    turnstiles = [t for t in p.tokens if t.kind == "TURNSTILE"]
    if not turnstiles:
        raise ParseError(SourceSpan(len(text), len(text)), "missing |-", ("|-",))
    if len(turnstiles) > 1:
        raise ParseError(turnstiles[1].span, "sequent must contain exactly one |-")
    antecedent = p.formula_list(stop_kinds=("TURNSTILE",))
    p.expect("TURNSTILE", "|-")
    succedent = p.formula_list(stop_kinds=("EOF",))
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(tok.span, f"unexpected {tok.text!r} after sequent")
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


def _operand_text(f: Formula) -> str:
    if is_literal(f) or _is_q_sugar(f):
        return print_formula(f)
    return f"({print_formula(f)})"


def print_formula(f: Formula) -> str:
    """Canonical text; ``parse_formula(print_formula(f))`` rebuilds ``f``."""
    if isinstance(f, PosAtom):
        return f.name
    if isinstance(f, NegAtom):
        return "~" + f.name
    if _is_q_sugar(f):
        return f"Q({f.left.name})"
    return f"{_operand_text(f.left)} {f.conn.value} {_operand_text(f.right)}"


def print_sequent(s: "kernel.Sequent") -> str:
    left = ", ".join(print_formula(f) for f in s.antecedent)
    right = ", ".join(print_formula(f) for f in s.succedent)
    out = "|-"
    if left:
        out = left + " " + out
    if right:
        out = out + " " + right
    return out


_LATEX_CONN = {
    Conn.WITH: r"\mathbin{\&}",
    Conn.PLUS: r"\vee",
    Conn.TIMES: r"\otimes",
    Conn.PAR: r"\wp",
    Conn.ENT: r"\mathbin{@}",
    Conn.SEC: r"\mathbin{\S}",
}


def formula_to_latex(f: Formula) -> str:
    if isinstance(f, PosAtom):
        return f.name
    if isinstance(f, NegAtom):
        return f.name + r"^{\perp}"
    if _is_q_sugar(f):
        return f"Q_{{{f.left.name}}}"

    def operand(x: Formula) -> str:
        if is_literal(x) or _is_q_sugar(x):
            return formula_to_latex(x)
        return r"\left(" + formula_to_latex(x) + r"\right)"

    return f"{operand(f.left)} {_LATEX_CONN[f.conn]} {operand(f.right)}"


def sequent_to_latex(s: "kernel.Sequent") -> str:
    left = ", ".join(formula_to_latex(f) for f in s.antecedent)
    right = ", ".join(formula_to_latex(f) for f in s.succedent)
    return f"{left} \\vdash {right}".strip()


def _latex_label(rule: str) -> str:
    return rule.replace("$", r"\$").replace("&", r"\&")


def proof_to_dict(p: "kernel.ProofTree") -> dict:
    return {
        "sequent": print_sequent(p.node.conclusion),
        "rule": p.node.rule,
        "premises": [proof_to_dict(c) for c in p.children],
    }


def proof_from_dict(d: dict) -> "kernel.ProofTree":
    children = tuple(proof_from_dict(c) for c in d.get("premises", []))
    conclusion = parse_sequent(d["sequent"])
    inst = kernel.RuleInstance(
        rule=d["rule"],
        conclusion=conclusion,
        premises=tuple(c.node.conclusion for c in children),
        principal=None,
    )
    return kernel.ProofTree(inst, children)


def proof_from_json(text: str) -> "kernel.ProofTree":
    return proof_from_dict(json.loads(text))


def print_proof(p: "kernel.ProofTree", format: str = "text") -> str:
    """Render a proof tree as indented text, bussproofs LaTeX, or JSON."""
    if format == "text":
        lines: list[str] = []

        def walk(node: "kernel.ProofTree", depth: int) -> None:
            for child in node.children:
                walk(child, depth + 1)
            lines.append("  " * depth + f"{print_sequent(node.node.conclusion)}   [{node.node.rule}]")

        walk(p, 0)
        return "\n".join(lines)
    if format == "latex":
        lines = [r"\begin{prooftree}"]

        def emit(node: "kernel.ProofTree") -> None:
            for child in node.children:
                emit(child)
            if not node.children:
                lines.append(r"\AxiomC{}")
            lines.append(rf"\RightLabel{{$\mathit{{{_latex_label(node.node.rule)}}}$}}")
            infc = {0: "Unary", 1: "Unary", 2: "Binary"}[len(node.children)]
            lines.append(rf"\{infc}InfC{{${sequent_to_latex(node.node.conclusion)}$}}")

        emit(p)
        lines.append(r"\end{prooftree}")
        return "\n".join(lines)
    if format == "json":
        return json.dumps(proof_to_dict(p), indent=2, sort_keys=True)
    raise ValueError(f"unknown proof format: {format!r}")

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


def proof_to_dict(p: "kernel.ProofTree") -> dict:
    def node(tree: "kernel.ProofTree", premises: list, _depth: int) -> dict:
        return {"sequent": print_sequent(tree.conclusion), "rule": tree.node.rule, "premises": premises}

    return kernel.fold_proof(p, node)


def proof_from_dict(d: dict) -> "kernel.ProofTree":
    def node(d: dict, children: list, _depth: int) -> "kernel.ProofTree":
        inst = kernel.RuleInstance(
            rule=d["rule"],
            conclusion=parse_sequent(d["sequent"]),
            premises=tuple(c.conclusion for c in children),
            principal=None,
        )
        return kernel.ProofTree(inst, tuple(children))

    return kernel.fold_proof(d, node, lambda d: d.get("premises", []))


def proof_from_json(text: str) -> "kernel.ProofTree":
    return proof_from_dict(json.loads(text))


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for string-keyed data, from
    an explicit stack: the standard encoder recurses once per nesting level."""
    out: list[str] = []
    stack: list = [(obj, "\n")]  # pending text and (value, its line break)
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif not isinstance(x[0], (dict, list, tuple)) or not x[0]:
            out.append(json.dumps(x[0]))
        else:
            value, newline = x
            opening, closing = "{}" if isinstance(value, dict) else "[]"
            items = sorted(value.items()) if opening == "{" else [(None, v) for v in value]
            inner = newline + "  "
            stack.append(newline + closing)
            for i in reversed(range(len(items))):
                key, v = items[i]
                label = "" if key is None else json.dumps(key) + ": "
                stack += (v, inner), ("," if i else opening) + inner + label
    return "".join(out)


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
        return to_json(proof_to_dict(p))
    raise ValueError(f"unknown proof format: {format!r}")

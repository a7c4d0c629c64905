"""Command-line front-end.

Exit codes: 0 for Provable / successful analysis, 1 for a definitive
NotProvable (so shell scripts can assert non-provability), 2 when a search
limit left the question open, 64 for usage, parse, or goal-rejection errors,
70 when the program itself failed (an internal error, never a verdict).
All state comes from argv; identical invocations print identical bytes
(timings are deliberately excluded from the output).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .formulas import Conn
from .kernel import AT_EXPAND, AT_PRIMITIVE, LogicConfig
from .search import (
    NOT_PROVABLE,
    PROVABLE,
    UNKNOWN,
    SearchLimits,
    SearchResult,
    decide_idempotence,
    prove,
)
from .selfref import (
    AnalyzerError,
    build_report,
    matrix_row_to_dict,
    matrix_to_text,
    report_matrix,
    report_to_dict,
)
from .syntax import (
    ParseError,
    formula_to_latex,
    parse_formula,
    parse_sequent,
    print_formula,
    print_proof,
    print_sequent,
    proof_to_dict,
    to_json,
)
from . import quantum

EX_OK = 0
EX_NOT_PROVABLE = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_INTERNAL = 70

CONNECTIVE_TOKENS = tuple(c.value for c in Conn)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 64, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--logic", choices=("basic", "linear", "classical"), default="basic")
    common.add_argument("--at-mode", choices=(AT_PRIMITIVE, AT_EXPAND), default=AT_EXPAND)
    common.add_argument("--max-depth", type=int, default=64)
    common.add_argument("--max-nodes", type=int, default=1_000_000)
    common.add_argument("--format", choices=("text", "latex", "json"), default="text")

    parser = _Parser(prog="entlogic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_prove = sub.add_parser("prove", parents=[common], help="decide a sequent")
    p_prove.add_argument("sequent")
    p_prove.add_argument(
        "--compare-at-modes",
        action="store_true",
        help="also run the other @-handling mode and report whether verdicts agree",
    )

    p_expand = sub.add_parser("expand", parents=[common], help="rewrite @/$ by definition")
    p_expand.add_argument("formula")

    p_idem = sub.add_parser("idempotence", parents=[common], help="decide X.X -||- X")
    p_idem.add_argument("connective", metavar="CONNECTIVE")

    p_selfref = sub.add_parser("selfref", parents=[common], help="self-reference report")
    p_selfref.add_argument("connective", metavar="CONNECTIVE")

    sub.add_parser("report-matrix", parents=[common], help="all connectives x presets")

    p_quantum = sub.add_parser("quantum", parents=[common], help="state-vector oracle")
    q_sub = p_quantum.add_subparsers(dest="quantum_command", required=True)
    q_clone = q_sub.add_parser("clone", parents=[common])
    q_clone.add_argument("state", nargs="+", help="zero | one | cat | custom aRe aIm bRe bIm")
    q_sep = q_sub.add_parser("separable", parents=[common])
    q_sep.add_argument("state", nargs="+", help="bell name (phi+/phi-/psi+/psi-) or LIT*LIT product")
    return parser


def _config(args) -> LogicConfig:
    return LogicConfig.preset(args.logic, at_mode=args.at_mode)


def _limits(args) -> SearchLimits:
    try:
        return SearchLimits(max_depth=args.max_depth, max_nodes=args.max_nodes)
    except ValueError as err:
        raise _UsageError(str(err))


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _fmt_complex(z: complex) -> str:
    re = f"{z.real:.12g}"
    im = f"{z.imag:.12g}"
    if im == "0" or im == "-0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.12g}i"


def _fmt_state(state: quantum.QuantumState) -> str:
    n = state.num_qubits
    labels = ("|0>", "|1>") if n == 1 else ("|00>", "|01>", "|10>", "|11>")
    terms = [
        f"{_fmt_complex(a)}{label}"
        for a, label in zip(state.amplitudes, labels)
        if abs(a) > quantum.TOLERANCE
    ]
    return " + ".join(terms) if terms else "0"


def _verdict_message(result: SearchResult) -> str:
    if result.verdict == PROVABLE:
        return "Provable"
    if result.verdict == NOT_PROVABLE:
        return "NotProvable (exhaustive)"
    return f"Unknown (max_{result.limit_hit} reached)"


def _verdict_exit(result: SearchResult) -> int:
    return {PROVABLE: EX_OK, NOT_PROVABLE: EX_NOT_PROVABLE, UNKNOWN: EX_UNKNOWN}[result.verdict]


def _cmd_prove(args) -> int:
    goal = parse_sequent(args.sequent)
    cfg = _config(args)
    limits = _limits(args)
    result = prove(goal, cfg, limits)

    comparison = None
    if args.compare_at_modes:
        other_mode = AT_EXPAND if args.at_mode == AT_PRIMITIVE else AT_PRIMITIVE
        other = prove(goal, LogicConfig.preset(args.logic, at_mode=other_mode), limits)
        comparison = (other_mode, other)

    if args.format == "json":
        payload = {
            "command": "prove",
            "input": print_sequent(goal),
            "searched": print_sequent(result.goal),
            "logic": args.logic,
            "at_mode": args.at_mode,
            "verdict": result.verdict,
            "limit_hit": result.limit_hit,
            "proof": proof_to_dict(result.proof) if result.proof else None,
            "nodes_expanded": result.stats.nodes_expanded,
        }
        if comparison:
            payload["comparison"] = {
                "at_mode": comparison[0],
                "verdict": comparison[1].verdict,
                "agree": comparison[1].verdict == result.verdict,
            }
        _emit(to_json(payload))
    else:
        _emit(_verdict_message(result))
        if result.proof is not None:
            _emit(print_proof(result.proof, args.format))
        if comparison:
            agree = "agree" if comparison[1].verdict == result.verdict else "DISAGREE"
            _emit(
                f"comparison [{comparison[0]}]: {_verdict_message(comparison[1])} "
                f"-> verdicts {agree}"
            )
    return _verdict_exit(result)


def _cmd_expand(args) -> int:
    from .formulas import expand_connectives

    f = parse_formula(args.formula)
    expanded = expand_connectives(f)
    if args.format == "json":
        payload = {"command": "expand", "input": print_formula(f), "expanded": print_formula(expanded)}
        _emit(to_json(payload))
    elif args.format == "latex":
        _emit(formula_to_latex(expanded))
    else:
        _emit(print_formula(expanded))
    return EX_OK


def _check_connective(token: str) -> str:
    if token not in CONNECTIVE_TOKENS:
        raise _UsageError(f"unknown connective {token!r}; use one of {', '.join(CONNECTIVE_TOKENS)}")
    return token


def _cmd_idempotence(args) -> int:
    token = _check_connective(args.connective)
    report = decide_idempotence(token, _config(args), _limits(args))
    fwd = print_sequent(report.forward.goal)
    bwd = print_sequent(report.backward.goal)
    if args.format == "json":
        payload = {
            "command": "idempotence",
            "connective": token,
            "logic": args.logic,
            "at_mode": args.at_mode,
            "idempotent": report.idempotent,
            "directions": {
                fwd: {"verdict": report.forward.verdict, "rescued_by": list(report.forward_rescue)},
                bwd: {"verdict": report.backward.verdict, "rescued_by": list(report.backward_rescue)},
            },
        }
        _emit(to_json(payload))
    else:
        idem = {True: "yes", False: "no", None: "indeterminate"}[report.idempotent]
        _emit(f"connective: {token}")
        _emit(f"logic: {args.logic}")
        _emit(f"idempotent: {idem}")
        for name, res, rescue in (
            ("direction " + fwd, report.forward, report.forward_rescue),
            ("direction " + bwd, report.backward, report.backward_rescue),
        ):
            line = f"{name}: {_verdict_message(res)}"
            if rescue:
                line += f"; provable with {' or '.join(rescue)} alone"
            _emit(line)
    return EX_UNKNOWN if report.idempotent is None else EX_OK


def _cmd_selfref(args) -> int:
    token = _check_connective(args.connective)
    report = build_report(token, _config(args), _limits(args))
    if args.format == "json":
        _emit(to_json({"command": "selfref", **report_to_dict(report)}))
    else:
        d = report_to_dict(report)
        for key in (
            "connective",
            "logic",
            "idempotent",
            "has_fixed_point",
            "physical_link",
            "basis_clonable",
            "classification",
            "liar_outcome",
        ):
            _emit(f"{key}: {d[key]}")
        _emit(f"liar: {report.liar.rendering()}")
        _emit(f"note: {report.liar.note}")
        _emit(f"footnote: {report.footnote}")
    return EX_OK


def _cmd_report_matrix(args) -> int:
    rows = report_matrix(at_mode=args.at_mode, limits=_limits(args))
    if args.format == "json":
        _emit(to_json([matrix_row_to_dict(r) for r in rows]))
    else:
        _emit(matrix_to_text(rows))
    return EX_OK


def _parse_single_state(words: list[str]) -> quantum.QuantumState:
    if words[0] == "custom":
        if len(words) != 5:
            raise _UsageError("custom state needs four numbers: aRe aIm bRe bIm")
        try:
            vals = [float(w) for w in words[1:]]
        except ValueError:
            raise _UsageError(f"bad number in custom state: {' '.join(words[1:])}")
        try:
            return quantum.make_qubit(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        except ValueError as err:
            raise _UsageError(str(err))
    if len(words) != 1:
        raise _UsageError(f"unexpected state arguments: {' '.join(words)}")
    name = words[0].lower()
    factory = {"zero": quantum.zero, "one": quantum.one, "cat": quantum.cat}.get(name)
    if factory is None:
        raise _UsageError(f"unknown state literal {name!r}; use zero, one, cat, or custom")
    return factory()


def _parse_two_qubit_state(words: list[str]) -> quantum.QuantumState:
    if len(words) == 1:
        word = words[0].lower()
        if word in quantum.BELL_NAMES:
            return quantum.bell_state(word)
        if "*" in word:
            left, _, right = word.partition("*")
            return quantum.tensor(_parse_single_state([left]), _parse_single_state([right]))
    raise _UsageError(
        f"expected a Bell name ({', '.join(quantum.BELL_NAMES)}) or a product like cat*zero, "
        f"got {' '.join(words)!r}"
    )


def _cmd_quantum(args) -> int:
    if args.quantum_command == "clone":
        psi = _parse_single_state(args.state)
        outcome = quantum.try_clone(psi)
        if args.format == "json":
            payload = {
                "command": "quantum clone",
                "input": _fmt_state(psi),
                "produced": _fmt_state(outcome.produced),
                "intended": _fmt_state(outcome.intended),
                "success": outcome.success,
                "fidelity_with_intended": round(outcome.fidelity_with_intended, 12),
                "produced_separable": quantum.is_separable(outcome.produced),
            }
            _emit(to_json(payload))
        else:
            _emit(f"input: {_fmt_state(psi)}")
            _emit(f"produced: {_fmt_state(outcome.produced)}")
            _emit(f"intended: {_fmt_state(outcome.intended)}")
            _emit(f"success: {'true' if outcome.success else 'false'}")
            _emit(f"fidelity_with_intended: {outcome.fidelity_with_intended:.12g}")
            _emit(f"produced_separable: {'true' if quantum.is_separable(outcome.produced) else 'false'}")
        return EX_OK
    if args.quantum_command == "separable":
        state = _parse_two_qubit_state(args.state)
        verdict = quantum.is_separable(state)
        if args.format == "json":
            payload = {
                "command": "quantum separable",
                "state": _fmt_state(state),
                "separable": verdict,
            }
            _emit(to_json(payload))
        else:
            _emit(f"state: {_fmt_state(state)}")
            _emit(f"separable: {'true' if verdict else 'false'}")
        return EX_OK
    raise _UsageError(f"unknown quantum command {args.quantum_command!r}")


_COMMANDS = {
    "prove": _cmd_prove,
    "expand": _cmd_expand,
    "idempotence": _cmd_idempotence,
    "selfref": _cmd_selfref,
    "report-matrix": _cmd_report_matrix,
    "quantum": _cmd_quantum,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except AnalyzerError as err:  # a search limit left a sub-question open
        print(f"unknown: {err}", file=sys.stderr)
        return EX_UNKNOWN
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

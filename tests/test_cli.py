import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entlogic
from entlogic.cli import main
from entlogic.kernel import LogicConfig, check_proof
from entlogic.search import SearchLimits, clear_memo, prove
from entlogic.syntax import parse_sequent, proof_from_dict, proof_from_json, proof_to_dict

SRC = str(Path(entlogic.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's entlogic."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env
    )


def test_prove_not_provable_exits_1(capsys):
    code, out, _ = run(capsys, "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "basic")
    assert code == 1
    assert out.strip() == "NotProvable (exhaustive)"


def test_prove_provable_exits_0_with_tree(capsys):
    code, out, _ = run(
        capsys, "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "classical", "--at-mode", "primitive"
    )
    assert code == 0
    assert out.splitlines()[0] == "Provable"
    assert "[@-form]" in out and "[weak-R]" in out


def test_prove_latex_format(capsys):
    code, out, _ = run(
        capsys,
        "prove",
        "Q(A) |- Q(A)@Q(A)",
        "--logic",
        "classical",
        "--at-mode",
        "primitive",
        "--format",
        "latex",
    )
    assert code == 0
    assert r"\begin{prooftree}" in out
    assert r"\RightLabel{$\mathit{weak-R}$}" in out


def test_prove_json_proof_reingested_by_checker(capsys):
    code, out, _ = run(
        capsys,
        "prove",
        "Q(A)@Q(A) |- Q(A)",
        "--logic",
        "classical",
        "--at-mode",
        "primitive",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "provable"
    tree = proof_from_dict(payload["proof"])
    assert check_proof(tree, LogicConfig.preset("classical", at_mode="primitive"))


def test_prove_unknown_exits_2(capsys):
    code, out, _ = run(
        capsys,
        "prove",
        "Q(A) |- Q(A)@Q(A)",
        "--logic",
        "classical",
        "--max-nodes",
        "3",
    )
    assert code == 2
    assert out.startswith("Unknown")


def test_prove_parse_error_exits_64(capsys):
    code, _, err = run(capsys, "prove", "A |- A |- A")
    assert code == 64
    assert "error:" in err


def test_prove_linear_rejects_ent_goal(capsys):
    code, _, err = run(capsys, "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "linear")
    assert code == 64
    assert "rejects" in err


def test_prove_compare_at_modes(capsys):
    code, out, _ = run(
        capsys, "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "basic", "--compare-at-modes"
    )
    assert code == 1
    assert "verdicts agree" in out


def test_usage_error_exits_64(capsys):
    code, _, err = run(capsys, "prove")
    assert code == 64
    code, _, err = run(capsys, "idempotence", "xor")
    assert code == 64
    code, _, err = run(capsys, "prove", "A |- A", "--logic", "fuzzy")
    assert code == 64


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "Q(A) @ Q(B)")
    assert code == 0
    assert out.strip() == "(A par B) & (~A par ~B)"
    code, out, _ = run(capsys, "expand", "Q(A) @ Q(B)", "--format", "json")
    payload = json.loads(out)
    assert payload["expanded"] == "(A par B) & (~A par ~B)"


def test_idempotence_command(capsys):
    code, out, _ = run(capsys, "idempotence", "par", "--logic", "basic")
    assert code == 0
    assert "idempotent: no" in out
    assert "provable with weakening alone" in out
    assert "provable with contraction alone" in out


def test_idempotence_json(capsys):
    code, out, _ = run(capsys, "idempotence", "&", "--logic", "basic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["idempotent"] is True


def test_idempotence_indeterminate_exits_2(capsys):
    code, out, _ = run(
        capsys, "idempotence", "@", "--logic", "classical",
        "--max-depth", "2", "--max-nodes", "40",
    )
    assert code == 2
    assert "indeterminate" in out


def test_idempotence_rejected_under_linear(capsys):
    code, _, err = run(capsys, "idempotence", "@", "--logic", "linear")
    assert code == 64
    assert "rejects" in err


def test_selfref_command_json(capsys):
    code, out, _ = run(capsys, "selfref", "@", "--logic", "basic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "GeneralizedSelfReference"
    assert payload["liar_outcome"] == "no-paradox"


def test_selfref_rejected_under_linear(capsys):
    code, _, err = run(capsys, "selfref", "@", "--logic", "linear")
    assert code == 64


def test_report_matrix_row_count(capsys):
    code, out, _ = run(capsys, "report-matrix")
    assert code == 0
    assert len(out.strip().splitlines()) == 20  # header + rule + 18 rows
    code, out, _ = run(capsys, "report-matrix", "--format", "json")
    assert len(json.loads(out)) == 18


def test_quantum_clone_outputs(capsys):
    code, out, _ = run(capsys, "quantum", "clone", "cat", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is False
    assert payload["fidelity_with_intended"] == pytest.approx(0.5)
    code, out, _ = run(capsys, "quantum", "clone", "zero")
    assert "success: true" in out


def test_quantum_clone_custom_state(capsys):
    code, out, _ = run(capsys, "quantum", "clone", "custom", "0.6", "0", "0.8", "0")
    assert code == 0
    assert "success: false" in out
    code, _, err = run(capsys, "quantum", "clone", "custom", "1", "0")
    assert code == 64
    code, _, err = run(capsys, "quantum", "clone", "custom", "0", "0", "0", "0")
    assert code == 64


def test_quantum_separable(capsys):
    code, out, _ = run(capsys, "quantum", "separable", "phi+")
    assert code == 0
    assert "separable: false" in out
    code, out, _ = run(capsys, "quantum", "separable", "cat*zero")
    assert code == 0
    assert "separable: true" in out
    code, _, _ = run(capsys, "quantum", "separable", "nonsense")
    assert code == 64


def test_output_is_deterministic(capsys):
    argv = ["prove", "Q(A)@Q(A) |- Q(A)", "--logic", "classical", "--at-mode", "primitive", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ["report-matrix", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_module_entry_point_subprocess():
    proc = python("-m", "entlogic", "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "basic")
    assert proc.returncode == 1
    assert proc.stdout.strip() == "NotProvable (exhaustive)"


def test_internal_error_exits_70_without_a_verdict(capsys, monkeypatch):
    # a failure of the program itself must not read as NotProvable (1)
    def broken_prove(*args, **kwargs):
        raise RuntimeError("search crashed")

    monkeypatch.setattr("entlogic.cli.prove", broken_prove)
    code, out, err = run(capsys, "prove", "A |- A")
    assert code == 70
    assert out == ""
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("selfref", "@", "--logic", "classical"), ("report-matrix",)])
def test_analysis_left_open_by_a_limit_exits_2(capsys, argv):
    # an indeterminate idempotence verdict is a search limit, not a crash (70)
    code, out, err = run(capsys, *argv, "--max-depth", "2", "--max-nodes", "40")
    assert code == 2
    assert out == ""
    assert err.startswith("unknown: ") and "indeterminate" in err
    assert err.count("\n") == 1


def test_deeply_nested_goal_proves_with_checked_proof():
    # 5,000 levels is far beyond the interpreter's recursion limit: the
    # parser and the formula walkers must not grow the Python stack
    for depth in (400, 5000):
        text = "A"
        for _ in range(depth - 1):
            text = f"({text} & A)"
        proc = python("-m", "entlogic", "prove", text + " |- A", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "provable"
        tree = proof_from_json(json.dumps(payload["proof"]))
        assert check_proof(tree, LogicConfig.preset("basic"))


def test_proof_taller_than_the_recursion_limit_prints():
    # at --max-depth 3000 the search takes &L1 down all 2,000 levels, so the
    # proof is 2,001 nodes tall: the search, the checker and the printers
    # must not grow the Python stack per proof level
    text = "A & A"
    for _ in range(1999):
        text = f"({text}) & A"
    for fmt, lines in (("text", 2002), ("latex", 4006)):
        argv = ("prove", text + " |- A", "--max-depth", "3000", "--format", fmt)
        proc = python("-m", "entlogic", *argv)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        assert out[0] == "Provable" and len(out) == lines
    # the LaTeX tree starts at the axiom and ends on the 2,000-deep goal
    assert out[2] == r"\AxiomC{}" and out[-2].startswith(r"\UnaryInfC{$\left(")
    # JSON nests twice per proof level; the emitter keeps its own stack
    proc = python("-m", "entlogic", *argv[:-1], "json")
    assert proc.returncode == 0, proc.stderr
    # Rebuilding the 2,001 sequents from their text parses 12 M characters,
    # so the emitted proof is compared with the checked tree of the same
    # search.  The standard decoder and dict comparison recurse per nesting
    # level, so they run with room for that.
    cfg = LogicConfig.preset("basic")
    tree = prove(parse_sequent(text + " |- A"), cfg, SearchLimits(max_depth=3000)).proof
    clear_memo()  # or the shared memo keeps the 2,000 chain formulas alive
    assert tree.height() == 2001 and check_proof(tree, cfg)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "provable" and payload["proof"] == proof_to_dict(tree)
    finally:
        sys.setrecursionlimit(limit)


def test_cli_import_does_not_load_numpy():
    proc = python("-c", "import sys, entlogic.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

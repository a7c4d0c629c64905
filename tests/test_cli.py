import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import entlogic
from entlogic.cli import main
from entlogic.kernel import LogicConfig, check_proof
from entlogic.search import SearchStats, clear_memo
from entlogic.syntax import parse_sequent, proof_from_dict, proof_from_json

import countermodels

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


def test_stuck_classical_goal_is_refuted_by_b2(capsys):
    # the contraction search of this goal grows its contexts and did not
    # finish at the default limits; B2 falsifies it before any search
    start = time.perf_counter()
    code, out, _ = run(capsys, "prove", "A par B, C |- D", "--logic", "classical")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "NotProvable (countermodel B2)\n")
    code, out, _ = run(capsys, "prove", "A par B, C |- D", "--logic", "classical", "--format", "json")
    assert json.loads(out)["countermodel"] == {"model": "B2", "valuation": {"A": "1", "B": "1", "C": "1", "D": "0"}}


@pytest.mark.parametrize("k", [8, 16])
def test_wide_classical_goal_is_built_at_once(capsys, k):
    # iterative deepening took 4.5 s at k = 5, re-exploring contraction and
    # weakening of each Ci in every round.  The construction weakens the
    # goal down to an axiom, guided by B2 at k = 8; at k = 16, past B2's
    # valuation cap, it decomposes A par B and weakens each premise
    cs = ", ".join(f"C{i}" for i in range(k))
    text = f"A par B, {cs} |- D, {cs}"
    start = time.perf_counter()
    code, out, _ = run(capsys, "prove", text, "--logic", "classical", "--format", "json")
    assert time.perf_counter() - start < 1.0
    payload = json.loads(out)
    assert (code, payload["verdict"]) == (0, "provable")
    tree = proof_from_dict(payload["proof"])
    assert tree.conclusion == parse_sequent(text)
    assert check_proof(tree, LogicConfig.preset("classical"))


@pytest.mark.parametrize("at_mode", ["primitive", "expand"])
@pytest.mark.parametrize("text", ["A par B, C |- D", "|-", "Q(A) @ Q(B) |- A", "A * ~A |- Q(B) $ Q(B), C"])
def test_json_countermodel_is_a_certificate(capsys, text, at_mode):
    # the independent evaluator confirms that the valuation falsifies the
    # searched sequent in the model named
    code, out, _ = run(capsys, "prove", text, "--logic", "classical", "--at-mode", at_mode, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["verdict"], payload["nodes_expanded"]) == (1, "not_provable", 0)
    certificate = payload["countermodel"]
    searched = parse_sequent(payload["searched"])
    assert sorted(certificate["valuation"]) == countermodels.literals(searched)
    assert countermodels.falsified(certificate["model"], searched, certificate["valuation"])


def test_json_without_a_countermodel_keeps_its_keys(capsys):
    keys = {"command", "input", "searched", "logic", "at_mode", "verdict", "limit_hit", "proof", "nodes_expanded", "stats"}
    for argv in (("Q(A) |- Q(A)@Q(A)",), ("Q(A) |- Q(A)@Q(A)", "--logic", "classical")):
        _, out, _ = run(capsys, "prove", *argv, "--format", "json")
        assert set(json.loads(out)) == keys


def test_json_carries_every_search_counter():
    # a fresh interpreter, so that no earlier call has filled the shared
    # memo and the counters are the same on every run; pruned counts the
    # splits skipped, each for a literal-refuted premise, before a proof
    proc = python("-m", "entlogic", "prove", "A par B, C |- A * C, B", "--logic", "basic", "--format", "json")
    payload = json.loads(proc.stdout)
    assert (proc.returncode, payload["verdict"]) == (0, "provable")
    assert list(payload["stats"]) == sorted(SearchStats._fields)
    assert payload["stats"] == {
        "nodes_expanded": 5, "max_depth": 3, "instances": 5, "memo_hits": 0, "cuts": 0,
        "refuted": 0, "committed": 0, "pruned": 5, "falsified": 0, "bounded": 0,
    }
    assert payload["stats"]["nodes_expanded"] == payload["nodes_expanded"]


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
    code, out, _ = run(
        capsys, "prove", "Q(A) |- Q(A)@Q(A)", "--logic", "basic", "--compare-at-modes", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["comparison"] == {"at_mode": "primitive", "verdict": "not_provable", "agree": True}


def test_usage_error_exits_64(capsys):
    code, _, err = run(capsys, "prove")
    assert code == 64
    code, _, err = run(capsys, "idempotence", "xor")
    assert code == 64
    code, _, err = run(capsys, "prove", "A |- A", "--logic", "fuzzy")
    assert code == 64
    for argv, message in (
        (("prove", "A |- A", "--max-depth", "0"), "search limits must be positive"),
        (("quantum", "clone", "custom", "x", "0", "1", "0"), "bad number in custom state: x 0 1 0"),
        (("quantum", "clone", "zero", "one"), "unexpected state arguments: zero one"),
        (("quantum", "clone", "plus"), "unknown state literal 'plus'; use zero, one, cat, or custom"),
    ):
        assert run(capsys, *argv) == (64, "", f"error: {message}\n")


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "Q(A) @ Q(B)")
    assert code == 0
    assert out.strip() == "(A par B) & (~A par ~B)"
    code, out, _ = run(capsys, "expand", "Q(A) @ Q(B)", "--format", "json")
    payload = json.loads(out)
    assert payload["expanded"] == "(A par B) & (~A par ~B)"
    code, out, _ = run(capsys, "expand", "Q(A) @ Q(B)", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\left(A \wp B\right) \mathbin{\&} \left(A^{\perp} \wp B^{\perp}\right)"


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
    assert [d["undetermined"] for d in payload["directions"].values()] == [[], []]


def test_idempotence_marks_an_unknown_probe_undetermined(capsys):
    # two nodes leave the searched probes open, and each is marked; M4 still
    # settles the contraction probe of X * X |- X, which is not marked.  The
    # memo is cleared first: a stored failure or proof would answer a probe
    clear_memo()
    code, out, _ = run(capsys, "idempotence", "*", "--logic", "basic", "--max-nodes", "2")
    assert code == 0
    assert "direction X * X |- X: NotProvable (exhaustive); undetermined with weakening alone\n" in out
    assert (
        "direction X |- X * X: NotProvable (exhaustive); undetermined with weakening or contraction alone\n"
        in out
    )
    # at the default limits every probe is decided, so weakening alone
    # rescues X * X |- X and contraction alone X |- X * X
    code, out, _ = run(capsys, "idempotence", "*", "--logic", "basic")
    assert code == 0
    assert "direction X * X |- X: NotProvable (exhaustive); provable with weakening alone\n" in out
    assert "direction X |- X * X: NotProvable (exhaustive); provable with contraction alone\n" in out
    assert "undetermined" not in out
    code, out, _ = run(capsys, "idempotence", "*", "--logic", "basic", "--format", "json")
    directions = json.loads(out)["directions"]
    assert directions["X * X |- X"] == {"verdict": "not_provable", "rescued_by": ["weakening"], "undetermined": []}
    assert directions["X |- X * X"] == {"verdict": "not_provable", "rescued_by": ["contraction"], "undetermined": []}
    code, out, _ = run(capsys, "idempotence", "&", "--logic", "basic")
    assert "undetermined" not in out


def test_idempotence_indeterminate_exits_2(capsys):
    code, out, _ = run(
        capsys, "idempotence", "@", "--logic", "classical",
        "--max-depth", "2", "--max-nodes", "5",
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


def test_selfref_command_text(capsys):
    code, out, _ = run(capsys, "selfref", "@", "--logic", "basic")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[:2] == ["connective: @", "logic: basic"]
    assert lines[7] == "liar_outcome: no-paradox"
    assert [line.split(":")[0] for line in lines[8:]] == ["liar", "note", "footnote"]
    assert lines[8].endswith("(no paradox)")


def test_selfref_rejected_under_linear(capsys):
    code, _, err = run(capsys, "selfref", "@", "--logic", "linear")
    assert code == 64


def test_report_matrix_row_count(capsys):
    code, out, _ = run(capsys, "report-matrix")
    assert code == 0
    assert len(out.strip().splitlines()) == 21  # at_mode + header + rule + 18 rows
    code, out, _ = run(capsys, "report-matrix", "--format", "json")
    assert len(json.loads(out)) == 18


@pytest.mark.parametrize("mode", ["primitive", "expand"])
def test_report_matrix_names_its_at_mode(capsys, mode):
    code, out, _ = run(capsys, "report-matrix", "--at-mode", mode)
    assert code == 0
    assert out.splitlines()[0] == f"at_mode: {mode}"
    code, out, _ = run(capsys, "report-matrix", "--at-mode", mode, "--format", "json")
    assert code == 0
    assert {row["at_mode"] for row in json.loads(out)} == {mode}


def test_quantum_clone_outputs(capsys):
    code, out, _ = run(capsys, "quantum", "clone", "cat", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is False
    assert payload["fidelity_with_intended"] == pytest.approx(0.5)
    code, out, _ = run(capsys, "quantum", "clone", "zero")
    assert "success: true" in out
    code, out, _ = run(capsys, "quantum", "clone", "zero", "--format", "json")
    assert code == 0
    assert json.loads(out)["success"] is True


def test_quantum_clone_custom_state(capsys):
    code, out, _ = run(capsys, "quantum", "clone", "custom", "0.6", "0", "0.8", "0")
    assert code == 0
    assert "success: false" in out
    # an imaginary amplitude prints with its i
    code, out, _ = run(capsys, "quantum", "clone", "custom", "0.6", "0.8", "0", "0")
    assert code == 0
    assert out.splitlines()[0] == "input: 0.6+0.8i|0>"
    code, _, err = run(capsys, "quantum", "clone", "custom", "1", "0")
    assert code == 64
    code, _, err = run(capsys, "quantum", "clone", "custom", "0", "0", "0", "0")
    assert code == 64
    # NaN passes no normalisation test, and |a|^2 of 1e200 leaves the float
    # range: both are the user's input, not a fault of the program
    for amplitudes in (("nan", "0", "0", "0"), ("1e200", "0", "0", "0")):
        code, out, err = run(capsys, "quantum", "clone", "custom", *amplitudes)
        assert code == 64 and out == ""


def test_quantum_separable(capsys):
    code, out, _ = run(capsys, "quantum", "separable", "phi+")
    assert code == 0
    assert "separable: false" in out
    code, out, _ = run(capsys, "quantum", "separable", "phi+", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "quantum separable",
        "separable": False,
        "state": "0.707106781187|00> + 0.707106781187|11>",
    }
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


def test_console_script_entry_point_subprocess():
    # main_entry is what the entlogic console script runs
    code = "import sys; from entlogic.cli import main_entry; sys.argv = ['entlogic', 'prove', 'A |- A']; main_entry()"
    proc = python("-c", code)
    assert proc.returncode == 0
    assert proc.stdout == "Provable\nA |- A   [axiom]\n"


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


def test_stray_value_error_exits_70_not_64(capsys, monkeypatch):
    # user-input ValueErrors become usage errors where they arise; one from
    # the program itself is its own fault, not the user's
    def broken_prove(*args, **kwargs):
        raise ValueError("search crashed")

    monkeypatch.setattr("entlogic.cli.prove", broken_prove)
    code, out, err = run(capsys, "prove", "A |- A")
    assert code == 70
    assert out == ""
    assert err.startswith("internal error: ValueError")


_SEARCH_OPTIONS = (("--logic", "basic"), ("--at-mode", "expand"), ("--max-depth", "64"), ("--max-nodes", "1000"))
_QUANTUM = (("quantum", "clone", "zero"), ("quantum", "separable", "phi+"))
_UNREAD_OPTIONS = [
    *[("expand", "A", *option) for option in _SEARCH_OPTIONS],
    ("report-matrix", "--logic", "basic"),
    *[("quantum", *option, "clone", "zero") for option in (*_SEARCH_OPTIONS, ("--format", "json"))],
    *[(*command, *option) for command in _QUANTUM for option in _SEARCH_OPTIONS],
    *[
        (*command, "--format", "latex")
        for command in (("idempotence", "*"), ("selfref", "@"), ("report-matrix",), *_QUANTUM)
    ],
]


@pytest.mark.parametrize("argv", _UNREAD_OPTIONS, ids=" ".join)
def test_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # accepting it would silently ignore what the user asked for
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_format_before_the_quantum_command_is_named(capsys):
    code, out, err = run(capsys, "quantum", "--format", "json", "clone", "zero")
    assert (code, out) == (64, "")
    assert err.startswith("error: argument --format: give it after clone or separable")
    with pytest.raises(SystemExit):
        run(capsys, "quantum", "-h")
    assert "--format" not in capsys.readouterr().out


@pytest.mark.parametrize("option", _SEARCH_OPTIONS, ids=lambda option: option[0])
def test_search_option_before_the_quantum_command_is_named(capsys, option):
    code, out, err = run(capsys, "quantum", *option, "clone", "zero")
    assert (code, out) == (64, "")
    assert err == f"error: argument {option[0]}: the quantum commands take no search options\n"
    with pytest.raises(SystemExit):
        run(capsys, "quantum", "-h")
    assert option[0] not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [("selfref", "@", "--logic", "classical"), ("report-matrix",)])
def test_analysis_left_open_by_a_limit_exits_2(capsys, argv):
    # an indeterminate idempotence verdict is a search limit, not a crash (70)
    code, out, err = run(capsys, *argv, "--max-depth", "2", "--max-nodes", "5")
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
    # the depth limit does not bind without contraction, so the search takes
    # &L1 down all 2,000 levels and the proof is 2,001 nodes tall: the search,
    # the checker and the printers must not grow the Python stack per level
    text = "A & A"
    for _ in range(1999):
        text = f"({text}) & A"
    for fmt, lines in (("text", 2002), ("latex", 4006)):
        argv = ("prove", text + " |- A", "--format", fmt)
        proc = python("-m", "entlogic", *argv)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        assert out[0] == "Provable" and len(out) == lines
    # the LaTeX tree starts at the axiom and ends on the 2,000-deep goal
    assert out[2] == r"\AxiomC{}" and out[-2].startswith(r"\UnaryInfC{$\left(")
    # the JSON proof is flat tables, so the standard decoder reads it
    proc = python("-m", "entlogic", *argv[:-1], "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "provable"
    tree = proof_from_dict(payload["proof"])
    assert tree.height() == 2001 and tree.conclusion == parse_sequent(text + " |- A")
    assert check_proof(tree, LogicConfig.preset("basic"))


def test_cli_import_does_not_load_numpy():
    # nor dataclasses and the inspect module it loads, whose import is a large
    # share of each CLI call's start-up
    code = (
        "import sys\n"
        "heavy = {'numpy', 'dataclasses', 'inspect'}\n"
        "import entlogic.selfref\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "import entlogic.cli\n"
        "print(sorted(heavy & set(sys.modules)))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]

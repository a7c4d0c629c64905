"""The four workloads: their inputs, one pass each, and the checks on their outputs.

A pass is one whole round of a workload's operations, started in fresh
interpreters, so every pass begins with cold caches.  Checks compare with
answers made apart from the program: the brute-force oracle's stored
verdicts, the paper's tables, and CLI outputs derived by hand.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
CHILD_TIMEOUT_S = 170

FAMILY_SLICE = 500
SPLITS_SEED = 1
SPLITS_COUNT = 64
WIDE_KS = range(4, 13)


class BenchError(RuntimeError):
    """The benchmark could not run a pass to its end."""


@dataclass
class Pass:
    wall_s: float
    latencies: list
    attempted: int
    failed: int = 0
    setups: list = field(default_factory=list)
    invocations: list = field(default_factory=list)
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    layers: dict | None = None
    elapsed: float = 0.0  # the whole pass, spawns and checks included
    traced: bool = False
    raw_wall_s: float = 0.0  # wall_s before scaling to the reference speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(job: dict) -> dict:
    """Run worker.py on ``job``; add its set-up and spawn-to-done times.

    Both are at the reference speed; spawn-to-done leaves out the worker's
    reading of its job and its reference samples.
    """
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {job['kind']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["t_ready"] - t_spawn - (out["t_job"] - out["t_start"])) * out["setup_factor"]
    out["invocation_s"] = out["setup_s"] + out["wall_s"]
    return out


# ---------------------------------------------------------------------------
# family and splits: goals fed in as text, parsed, proved and rendered


class GoalWorkload:
    """Each goal under basic/primitive, one worker per pass (memo shared in it)."""

    name = ""

    def __init__(self, goals: list, expected: str):
        self.goals = goals
        self.texts = [g.text for g in goals]
        self.expected = expected

    def run_pass(self, traced: bool) -> Pass:
        job = {"kind": "goals", "texts": self.texts, "logic": "basic", "at_mode": "primitive"}
        if traced:
            job["trace_path"] = str(TRACE_DIR / f"{self.name}.json")
        out = run_worker(job)
        problems = list(out["problems"])
        for goal, want, got, root in zip(self.goals, self.expected, out["verdicts"], out["roots"]):
            if got != want:
                problems.append(f"verdict {got} but the oracle says {want}: {goal.text}")
            if inputs.split_sequent_text(root) != goal.key():
                problems.append(f"rendered root {root!r} is not the goal {goal.text!r}")
        return Pass(
            wall_s=out["wall_s"],
            latencies=out["latencies"],
            attempted=len(self.goals),
            setups=[out["setup_s"]],
            invocations=[out["invocation_s"]],
            rss_mb=out["rss_mb"],
            problems=problems,
            layers=out.get("layers"),
            traced=traced,
            raw_wall_s=out["raw_wall_s"],
        )


class Family(GoalWorkload):
    name = "family"

    def __init__(self, seed: int):
        fam = inputs.family()
        verdicts = inputs.load_verdicts("family")
        if len(verdicts) != len(fam):
            raise BenchError("stored family verdicts do not match the enumeration")
        picked = random.Random(seed).sample(range(len(fam)), FAMILY_SLICE)
        super().__init__([inputs.to_goal(*fam[i]) for i in picked], "".join(verdicts[i] for i in picked))


class Splits(GoalWorkload):
    name = "splits"

    def __init__(self, seed: int):
        # fixed goals: their cost is heavy-tailed, so a seeded sample is not steady
        del seed
        goals = inputs.random_goals(SPLITS_SEED, SPLITS_COUNT) + [inputs.wide_goal(k) for k in WIDE_KS]
        verdicts = inputs.load_verdicts("splits")
        if len(verdicts) != SPLITS_COUNT:
            raise BenchError("stored splits verdicts do not match the generator")
        # wide goals: no Ci on the right and no weakening, so never provable
        super().__init__([inputs.to_goal(*g) for g in goals], verdicts + "0" * len(WIDE_KS))


# ---------------------------------------------------------------------------
# matrix: report_matrix in both @ modes, one cold worker per mode

_TABLE_IDEMPOTENT = {  # criterion 3: (connective, preset) -> idempotent
    ("&", "basic"): True, ("&", "linear"): True, ("&", "classical"): True,
    ("|", "basic"): True, ("|", "linear"): True, ("|", "classical"): True,
    ("*", "basic"): False, ("*", "linear"): False, ("*", "classical"): True,
    ("par", "basic"): False, ("par", "linear"): False, ("par", "classical"): True,
    ("@", "basic"): False, ("@", "classical"): True,
    ("$", "basic"): False, ("$", "classical"): True,
}  # fmt: skip
_LINK = {"&": None, "|": None, "*": "tensor", "par": "tensor", "@": "entanglement", "$": "entanglement"}
_ATTRIBUTION = {  # criterion 4: connective -> (forward X.X |- X, backward X |- X.X) rescuers
    "par": (["contraction"], ["weakening"]),
    "*": (["weakening"], ["contraction"]),
}


def check_cell(row: dict) -> list:
    key = (row["conn"], row["logic"])
    if not row["applicable"]:
        return [] if key not in _TABLE_IDEMPOTENT else [f"{key} reported not applicable"]
    if key not in _TABLE_IDEMPOTENT:
        return [f"{key} should be rejected"]
    problems = []
    idempotent = _TABLE_IDEMPOTENT[key]
    if row["idempotent"] is not idempotent:
        problems.append(f"{key}: idempotent={row['idempotent']}, the paper says {idempotent}")
    # criterion 5: idempotent -> standard; otherwise a clonable (tensor) link
    # recovers the standard form and the entanglement link does not
    if idempotent:
        classification = "StandardSelfReference"
    elif _LINK[row["conn"]] == "tensor":
        classification = "StandardRecoveredViaClone"
    else:
        classification = "GeneralizedSelfReference"
    outcome = "no-paradox" if classification == "GeneralizedSelfReference" else "paradox"
    if (row["classification"], row["liar_outcome"]) != (classification, outcome):
        problems.append(f"{key}: {row['classification']}/{row['liar_outcome']}, expected {classification}/{outcome}")
    rescues = (row["forward_rescue"], row["backward_rescue"])
    if idempotent and rescues != ([], []):
        problems.append(f"{key}: idempotent cell attributes a failure {rescues}")
    if row["unknown"] == 0 and row["conn"] in _ATTRIBUTION and row["logic"] != "classical":
        if rescues != _ATTRIBUTION[row["conn"]]:
            problems.append(f"{key}: attribution {rescues}, criterion 4 says {_ATTRIBUTION[row['conn']]}")
    return problems


class Matrix:
    name = "matrix"

    def __init__(self, seed: int):
        del seed  # the matrix has no random inputs

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(wall_s=0.0, latencies=[], attempted=0, traced=traced)
        parts = []
        for mode in ("primitive", "expand"):
            job = {"kind": "matrix", "at_mode": mode}
            if traced:
                job["trace_path"] = str(TRACE_DIR / f"{self.name}-{mode}.json")
            out = run_worker(job)
            p.wall_s += out["wall_s"]
            p.raw_wall_s += out["raw_wall_s"]
            p.latencies.append(out["wall_s"])  # a mode's table is what its user waits for
            p.setups.append(out["setup_s"])
            p.invocations.append(out["invocation_s"])
            p.rss_mb = max(p.rss_mb, out["rss_mb"])
            for row in out["rows"]:
                p.problems.extend(f"[{mode}] {msg}" for msg in check_cell(row))
                if row["applicable"]:
                    # fault: an Unknown rescue probe is read as "does not rescue"
                    p.attempted += 1
                    p.failed += row["unknown"] > 0
            if traced:
                parts.append(out["layers"])
        if traced:
            p.layers = tracer.merge(parts)
        return p


# ---------------------------------------------------------------------------
# cli: python -m entlogic, one invocation at a time

FLAGSHIPS = ("Q(A)@Q(A) |- Q(A)", "Q(A) |- Q(A)@Q(A)")
DEEP_DEPTH = 400


def deep_goal() -> str:
    """``(...((A & A) & A)... & A) |- A`` with 400 nested ``&``: &L2 then axiom."""
    f = "A & A"
    for _ in range(DEEP_DEPTH - 1):
        f = f"({f}) & A"
    return f + " |- A"


def _amplitudes(line: str) -> dict:
    """``0.707|00> + 0.707|11>`` -> {"00": 0.707, "11": 0.707} (real amplitudes)."""
    out = {}
    for term in line.split(" + "):
        value, _, label = term.partition("|")
        out[label.rstrip(">")] = float(value)
    return out


def _fields(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _expect_exact(text: str, code: int):
    def check(rc, stdout):
        return [] if (rc, stdout) == (code, text) else [f"exit {rc}, stdout {stdout[:200]!r}"]

    return check


def _expect_fields(**want):
    def check(rc, stdout):
        got = _fields(stdout)
        bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return [] if rc == 0 and not bad else [f"exit {rc}, fields {bad}"]

    return check


def _expect_bell(field_name: str):
    def check(rc, stdout):
        got = _fields(stdout)
        amps = _amplitudes(got.get(field_name, "0|?>"))
        ok = amps.keys() == {"00", "11"} and all(abs(a - 1 / math.sqrt(2)) < 1e-9 for a in amps.values())
        return [] if rc == 0 and ok else [f"exit {rc}, {field_name} {amps}"]

    return check


def _check_clone_cat(rc, stdout):
    # CNOT on (|0>+|1>)/sqrt2 with a |0> ancilla gives phi+ = (|00>+|11>)/sqrt2;
    # the intended copy |+>|+> has amplitude 1/2 everywhere, so the overlap is
    # 2 * (1/2)(1/sqrt2) = 1/sqrt2 and the fidelity 1/2
    problems = _expect_bell("produced")(rc, stdout)
    problems += _expect_fields(success="false", produced_separable="false")(rc, stdout)
    got = _fields(stdout).get("fidelity_with_intended", "nan")
    if not abs(float(got) - 0.5) < 1e-9:
        problems.append(f"fidelity {got}")
    return problems


def _check_deep(rc, stdout):
    """None when the command gave no verdict (counted as failed), else problems."""
    payload = json.loads(stdout) if stdout.strip() else {}
    if rc == 0 and payload.get("verdict") == "provable":
        sys.path.insert(0, str(SRC))
        from entlogic.kernel import LogicConfig, check_proof
        from entlogic.syntax import parse_sequent, proof_from_json

        tree = proof_from_json(json.dumps(payload["proof"]))
        if tree.conclusion != parse_sequent(deep_goal()):
            return ["deep goal: proof root is not the goal"]
        return [] if check_proof(tree, LogicConfig.preset("basic")) else ["deep goal: proof rejected"]
    if rc == 1 and payload.get("verdict") == "not_provable":
        return ["deep goal reported NotProvable"]
    return None  # crashed, or Unknown: no verdict


def cli_commands() -> list:
    cmds = [(["prove", "A |- A"], _expect_exact("Provable\nA |- A   [axiom]\n", 0))]
    for goal in FLAGSHIPS:
        for mode in ("primitive", "expand"):
            cmds.append((["prove", goal, "--at-mode", mode], _expect_exact("NotProvable (exhaustive)\n", 1)))
    cmds.append(
        (
            ["selfref", "@"],
            _expect_fields(
                connective="@",
                idempotent="False",
                physical_link="entanglement",
                basis_clonable="False",
                classification="GeneralizedSelfReference",
                liar_outcome="no-paradox",
            ),
        )
    )
    cmds.append((["quantum", "clone", "cat"], _check_clone_cat))
    cmds.append((["quantum", "separable", "phi+"], _expect_bell("state")))
    cmds.append((["prove", deep_goal(), "--format", "json"], _check_deep))
    return cmds


class Cli:
    name = "cli"

    def __init__(self, seed: int):
        del seed  # the invocations are fixed
        self.commands = cli_commands()

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(wall_s=0.0, latencies=[], attempted=0, traced=traced)
        parts = []
        clock = calibrate.Clock(in_process=False)
        clock.start()
        for i, (args, check) in enumerate(self.commands):
            if traced:
                out = TRACE_DIR / f"cli-{i}.json"
                argv = [sys.executable, str(HERE / "cli_trace.py"), str(out), *args]
            else:
                argv = [sys.executable, "-m", "entlogic", *args]
            clock.begin()
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S
                )
            finally:
                clock.stop()
            p.attempted += 1
            try:
                problems = check(proc.returncode, proc.stdout)
            except ValueError as err:  # a number or JSON the check could not read
                problems = [f"unreadable output: {err}"]
            if problems is None:
                p.failed += 1
            else:
                p.problems.extend(f"{args[0]} {args[1][:40]}: {msg}" for msg in problems)
            if traced:
                parts.append(json.loads(out.with_suffix(".layers.json").read_text()))
        clock.close()
        p.latencies = clock.scaled_spans()
        p.invocations = list(p.latencies)
        p.wall_s, p.raw_wall_s = sum(p.latencies), clock.raw_total()
        p.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if traced:
            p.layers = tracer.merge(parts)
        return p


WORKLOADS = {"family": Family, "splits": Splits, "matrix": Matrix, "cli": Cli}

"""One pass of a workload in a fresh interpreter.

run.py starts this script with ``src`` on PYTHONPATH and writes one JSON job
to its stdin.  The process-global caches of entlogic (the search memo and the
``lru_cache`` tables) are therefore cold at the start of every pass.  The
last stdout line is a JSON object with the timings, the outputs run.py
checks, and the per-layer numbers when the job is traced.  Time stamps are
``time.monotonic()``, which is system-wide, so run.py can subtract its own
spawn time from them.  Times are scaled to the reference speed of
``calibrate.py``: the worker samples the reference work right after its
imports (that scales the set-up) and then every tenth of a second.
"""

import json
import sys
import time

t_start = time.monotonic()
job = json.loads(sys.stdin.read())
t_job = time.monotonic()

import entlogic  # noqa: E402,F401  (set-up: what a user's process imports)
from entlogic import kernel, search, selfref, syntax  # noqa: E402

t_ready = time.monotonic()

import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (perfbench/ is sys.path[0])
import tracer  # noqa: E402

clock = calibrate.Clock(in_process=True)
clock.start()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_goals(job: dict, spans) -> dict:
    """Feed each goal in as text, then parse, prove and render it."""
    cfg = kernel.LogicConfig.preset(job["logic"], at_mode=job["at_mode"])
    parse, print_proof, print_sequent = syntax.parse_sequent, syntax.print_proof, syntax.print_sequent
    if spans is not None:
        spans.install(tracer.PROGRAM_TARGETS)
        parse = spans.wrap(tracer.PARSE, parse)
        print_proof = spans.wrap(tracer.RENDER, print_proof)
        print_sequent = spans.wrap(tracer.RENDER, print_sequent)
    prove = search.prove

    outcomes = []
    for text in job["texts"]:
        clock.begin()
        goal = parse(text)
        result = prove(goal, cfg)
        shown = print_proof(result.proof) if result.proof is not None else print_sequent(result.goal)
        clock.stop()
        outcomes.append((goal, result, shown))
    rss = peak_rss_mb()

    verdicts, roots, problems = [], [], []
    for text, (goal, result, shown) in zip(job["texts"], outcomes):
        root = shown.rsplit("\n", 1)[-1]
        if result.is_provable:
            root = root.rsplit("   [", 1)[0]
            if result.proof.conclusion != goal:
                problems.append(f"proof root is not the goal: {text}")
            check = kernel.check_proof(result.proof, cfg)
            if not check:
                problems.append(f"checker rejects the proof of {text}: {check.reason}")
        verdicts.append("1" if result.is_provable else "0" if result.is_not_provable else "U")
        roots.append(root)
    return {
        "latencies": clock.scaled_spans(),
        "rss_mb": rss,
        "verdicts": "".join(verdicts),
        "roots": roots,
        "problems": problems,
    }


def run_matrix(job: dict, spans) -> dict:
    """``report_matrix`` in one @ mode, counting the Unknown sub-results per cell.

    The two observers below see 18 ``build_report`` and about 56 ``prove``
    calls per mode; they only count, so their cost is negligible.
    """
    cells, current = [], []
    inner_prove, inner_build = search.prove, selfref.build_report

    def observed_prove(*args, **kwargs):
        result = inner_prove(*args, **kwargs)
        if current and result.is_unknown:
            current[-1]["unknown"] += 1
        return result

    def observed_build(*args, **kwargs):
        current.append({"unknown": 0})
        try:
            return inner_build(*args, **kwargs)
        finally:
            cells.append(current.pop())

    search.prove, selfref.build_report = observed_prove, observed_build
    if spans is not None:
        spans.install(tracer.PROGRAM_TARGETS)

    clock.begin()
    rows = selfref.report_matrix(at_mode=job["at_mode"])
    clock.stop()
    rss = peak_rss_mb()

    out_rows = []
    for row, cell in zip(rows, cells):
        entry = {"conn": row.connective, "logic": row.logic, "applicable": row.applicable}
        if row.applicable:
            idem = row.report.idempotence
            entry.update(
                idempotent=row.report.idempotent,
                classification=row.report.classification,
                liar_outcome=row.report.liar_outcome,
                forward_rescue=list(idem.forward_rescue),
                backward_rescue=list(idem.backward_rescue),
                unknown=cell["unknown"],
            )
        out_rows.append(entry)
    return {"rss_mb": rss, "rows": out_rows}


spans = tracer.Tracer() if job.get("trace_path") else None
if job["kind"] == "setup":
    result = {"rss_mb": peak_rss_mb()}
elif job["kind"] == "goals":
    result = run_goals(job, spans)
elif job["kind"] == "matrix":
    result = run_matrix(job, spans)
else:
    raise SystemExit(f"unknown job kind {job['kind']!r}")

clock.close()
if spans is not None:
    spans.dump(Path(job["trace_path"]))
    result["layers"] = spans.layer_metrics()
result.update(
    t_start=t_start,
    t_job=t_job,
    t_ready=t_ready,
    setup_factor=clock.setup_factor(),
    raw_wall_s=clock.raw_total(),
    wall_s=sum(clock.scaled_spans()),
)
sys.stdout.write(json.dumps(result) + "\n")

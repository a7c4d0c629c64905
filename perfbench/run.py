"""entlogic benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload family --seed 1 --seconds 25 --trace 0

The run repeats whole passes of the workload (each in fresh interpreters, so
caches start cold) until the next pass would end after ``--seconds``; it always
runs at least one.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it interleaves untraced and traced passes and prints the
per-layer metrics instead.  Every time is scaled to the reference speed of
calibrate.py, which is sampled every tenth of a second while work is timed,
so the host's drift in speed cancels out.  The last stdout line is one JSON object.  The exit
code is 1 when an output check fails and 2 when the run cannot be made.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import calibrate
import tracer
from workloads import CHILD_TIMEOUT_S, ROOT, SRC, WORKLOADS, BenchError, child_env, run_worker

MIN_SETUP_SAMPLES = 9
CLI_PROBES = 5
HD_STEPS = 32  # density evaluations per order statistic

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "cli_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "syntax.parse_s": "s",
    "syntax.parse_calls": "count",
    "syntax.render_s": "s",
    "syntax.render_calls": "count",
    "formulas.expand_s": "s",
    "formulas.expand_calls": "count",
    "kernel.enumerate_s": "s",
    "kernel.enumerate_calls": "count",
    "kernel.instances": "count",
    "kernel.instances_per_node": "1/node",
    "kernel.check_s": "s",
    "kernel.check_calls": "count",
    "search.prove_calls": "count",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.self_s": "s",
    "search.deepening_s": "s",
    "search.unknown_results": "count",
    "selfref.report_s": "s",
    "quantum.clone_s": "s",
    "quantum.clone_calls": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_s": "s",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it;
    below 20 samples a pass has no such tail and its slowest operation is used."""
    return math.floor(100 - 1000 / n) if n >= 20 else 100


def percentile(values: list, q: int) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (q = 100: the maximum).

    It weighs every order statistic by the chance that it is the sample
    quantile, using a Beta((n+1)q, (n+1)(1-q)) density, so the estimate does
    not jump when noise swaps the two operations on either side of a gap in
    the distribution (a single pass of ``splits`` has only 73 of them).
    """
    ordered = sorted(values)
    n = len(ordered)
    if q >= 100 or n == 1:
        return ordered[-1]
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    steps = HD_STEPS * n
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for k in range(steps):  # midpoint rule for the density on [0, 1]
        t = (k + 0.5) / steps
        weights[k // HD_STEPS] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def spawn_ms(code: str) -> float:
    """Median spawn-to-exit time of ``python -c code`` over CLI_PROBES runs."""
    clock = calibrate.Clock(in_process=False)
    clock.start()
    try:
        for _ in range(CLI_PROBES):
            clock.begin()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
            clock.stop()
    finally:
        clock.close()
    return statistics.median(clock.scaled_spans()) * 1000.0


def run_passes(workload, seconds: int, trace: bool) -> list:
    """Whole passes until the next one would overrun.

    A traced run orders its passes untraced, traced, traced, untraced (and
    again), so a steady drift the scaling leaves cancels out of the
    traced-minus-untraced overhead.  It runs at least the first two: four
    passes of ``splits`` would take too long on a slow stretch of the host.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 4 in (1, 2)
        t0 = time.perf_counter()
        p = workload.run_pass(traced)
        p.elapsed = time.perf_counter() - t0
        passes.append(p)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + statistics.median(q.elapsed for q in passes) > seconds:
            return passes


def end_to_end(passes: list) -> dict:
    setups = [s for p in passes for s in p.setups]
    while len(setups) < MIN_SETUP_SAMPLES:
        out = run_worker({"kind": "setup"})
        setups.append(out["setup_s"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "verdicts_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "verdict_ms_p50": statistics.median(percentile(p.latencies, 50) for p in passes) * 1000.0,
        "verdict_ms_tail": statistics.median(
            percentile(p.latencies, tail_percentile(len(p.latencies))) for p in passes
        )
        * 1000.0,
        "cli_ms_p50": statistics.median(i for p in passes for i in p.invocations) * 1000.0,
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def scaled_layers(p) -> dict:
    """A traced pass's layer totals, with times scaled like its wall_s."""
    k = p.wall_s / p.raw_wall_s
    return tracer.finish({key: v * k if key.endswith("_s") else v for key, v in p.layers.items()})


def per_layer(passes: list) -> dict:
    traced = [scaled_layers(p) for p in passes if p.traced]
    # median_low keeps counts whole: it returns one of the traced passes' values
    out = {key: statistics.median_low(layers[key] for layers in traced) for key in traced[0]}
    out["cli.interpreter_ms"] = spawn_ms("pass")
    out["cli.import_ms"] = spawn_ms("import entlogic.cli")
    out["trace.overhead_s"] = statistics.median(p.wall_s for p in passes if p.traced) - statistics.median(
        p.wall_s for p in passes if not p.traced
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entlogic" / "__init__.py").is_file():
        print(f"error: no entlogic sources under {SRC}", file=sys.stderr)
        return 2
    try:
        workload = WORKLOADS[args.workload](args.seed)
        passes = run_passes(workload, args.seconds, bool(args.trace))
        if args.trace:
            values, units = per_layer(passes), PER_LAYER_UNITS
        else:
            values, units = end_to_end(passes), END_TO_END_UNITS
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"workload {args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed")
    for name in units:
        print(f"  {name:28s} {values[name]:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

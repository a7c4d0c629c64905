"""Run the entlogic command line with spans around its calls (traced run only).

Usage: python3 perfbench/cli_trace.py OUT.json <entlogic arguments...>
Stdout, stderr and the exit code are those of ``python -m entlogic``; the
spans go to OUT.json and the per-layer totals to OUT.layers.json, also when
the command raises.
"""

import json
import sys
from pathlib import Path

import tracer

out = Path(sys.argv[1])
spans = tracer.Tracer()

import entlogic.cli  # noqa: E402

spans.install(tracer.PROGRAM_TARGETS + tracer.CLI_TARGETS)
try:
    code = entlogic.cli.main(sys.argv[2:])
finally:
    spans.dump(out)
    out.with_suffix(".layers.json").write_text(json.dumps(spans.layer_metrics()))
sys.exit(code)

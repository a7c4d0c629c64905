"""Spans around the calls into entlogic's modules, for the traced run only.

Each wrapped call records a span (layer name, start, end, parent span).  The
spans stay in memory; ``dump`` writes them out and ``layer_metrics`` derives
the per-layer numbers from them.  Wrappers replace the names the caller looks
up: ``search.py`` imports ``rule_instances``, ``check_proof`` and
``expand_sequent`` by name, so those are patched in ``entlogic.search``, not
in ``entlogic.kernel``.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path

PARSE = "syntax.parse"
RENDER = "syntax.render"
EXPAND = "formulas.expand"
ENUMERATE = "kernel.enumerate"
ENUMERATE_STEP = "kernel.enumerate.step"
CHECK = "kernel.check"
PROVE = "search.prove"
REPORT = "selfref.report"
CLONE = "quantum.clone"
NAMES = (PARSE, RENDER, EXPAND, ENUMERATE, ENUMERATE_STEP, CHECK, PROVE, REPORT, CLONE)

# (module, attribute, span name) for calls made inside the program
PROGRAM_TARGETS = (
    ("entlogic.search", "prove", PROVE),
    ("entlogic.search", "rule_instances", ENUMERATE),
    ("entlogic.search", "check_proof", CHECK),
    ("entlogic.search", "expand_sequent", EXPAND),
    ("entlogic.selfref", "build_report", REPORT),
    ("entlogic.quantum", "try_clone", CLONE),
)
# the names cli.py imports from syntax, search and selfref
CLI_TARGETS = (
    ("entlogic.cli", "parse_sequent", PARSE),
    ("entlogic.cli", "print_proof", RENDER),
    ("entlogic.cli", "print_sequent", RENDER),
    ("entlogic.cli", "prove", PROVE),
    ("entlogic.cli", "build_report", REPORT),
)


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.instances = 0
        # per prove span: (nodes expanded, contraction on, verdict unknown)
        self.prove_info: dict[int, tuple[int, bool, bool]] = {}
        self._wrappers: dict[int, object] = {}

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """Return the traced version of ``fn`` (one wrapper per function)."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name_id = NAMES.index(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == PROVE:
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                self.prove_info[idx] = (result.stats.nodes_expanded, cfg.contraction, result.is_unknown)
            elif name == ENUMERATE:
                if isinstance(result, (list, tuple)):
                    self.instances += len(result)
                else:
                    return self._steps(result)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def _steps(self, iterable):
        # a lazy enumerator does its work while the caller iterates: time each step
        step_id = NAMES.index(ENUMERATE_STEP)
        it = iter(iterable)
        while True:
            idx = self._open(step_id)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.instances += 1
            yield item

    def install(self, targets) -> None:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    # -- results -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                {
                    "names": NAMES,
                    "name": list(self.name),
                    "parent": list(self.parent),
                    "start_ns": [round((t - t0) * 1e9) for t in self.start],
                    "end_ns": [round((t - t0) * 1e9) for t in self.end],
                },
                out,
            )

    def layer_metrics(self) -> dict:
        """Per-layer totals; self time is a span minus its direct children."""
        total = [0.0] * len(NAMES)
        calls = [0] * len(NAMES)
        child_time = {}
        for i in range(len(self.name)):
            dur = self.end[i] - self.start[i]
            total[self.name[i]] += dur
            calls[self.name[i]] += 1
            p = self.parent[i]
            if p >= 0:
                child_time[p] = child_time.get(p, 0.0) + dur
        prove_s = total[NAMES.index(PROVE)]
        self_s = deepening_s = 0.0
        nodes = unknown = 0
        for idx, (n, contraction, is_unknown) in self.prove_info.items():
            dur = self.end[idx] - self.start[idx]
            self_s += dur - child_time.get(idx, 0.0)
            nodes += n
            if contraction:
                deepening_s += dur
                unknown += is_unknown

        def t(name):
            return total[NAMES.index(name)]

        def c(name):
            return calls[NAMES.index(name)]

        return {
            "syntax.parse_s": t(PARSE),
            "syntax.parse_calls": c(PARSE),
            "syntax.render_s": t(RENDER),
            "syntax.render_calls": c(RENDER),
            "formulas.expand_s": t(EXPAND),
            "formulas.expand_calls": c(EXPAND),
            "kernel.enumerate_s": t(ENUMERATE) + t(ENUMERATE_STEP),
            "kernel.enumerate_calls": c(ENUMERATE),
            "kernel.instances": self.instances,
            "kernel.check_s": t(CHECK),
            "kernel.check_calls": c(CHECK),
            "search.prove_calls": c(PROVE),
            "search.prove_s": prove_s,
            "search.nodes": nodes,
            "search.self_s": self_s,
            "search.deepening_s": deepening_s,
            "search.unknown_results": unknown,
            "selfref.report_s": t(REPORT),
            "quantum.clone_s": t(CLONE),
            "quantum.clone_calls": c(CLONE),
        }


def merge(parts: list) -> dict:
    """Sum per-layer totals of several traced processes (one CLI pass)."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def finish(layers: dict) -> dict:
    """Add the ratios, which are taken over the merged totals."""
    out = dict(layers)
    nodes = layers["search.nodes"]
    out["kernel.instances_per_node"] = layers["kernel.instances"] / nodes if nodes else 0.0
    prove_s = out.pop("search.prove_s")
    out["search.nodes_per_s"] = nodes / prove_s if prove_s else 0.0
    return out

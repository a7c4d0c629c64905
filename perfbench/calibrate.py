"""A fixed reference workload that measures how fast the machine is right now.

The host's CPU speed drifts by up to 1.5x in stretches of tens of seconds
(see README.md), in CPU time as much as in wall time, so raw times of the
same code spread past any useful bound.  While work is timed, the process
therefore also times short runs of ``reference()`` every tenth of a second:
pure Python that does the kind of work entlogic does (tuples built and
hashed, dict lookups, recursion, sorting and multiset splits), but shares no
code with it, so no change to entlogic changes its cost.  A time is reported at the reference speed:

    scaled = raw * REFERENCE_S / (median time of reference() around the work)

``REFERENCE_S`` is a constant: the median time of one ``reference()`` call on
the machine the benchmark was written on (Python 3.11), at its usual speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import combinations

REFERENCE_S = 0.0050
_ITEMS = tuple((("+", "-")[i % 2], "ABCDE"[i % 5], i % 3) for i in range(7))


def _splits(ctx: tuple, memo: dict) -> int:
    """Count the two-way splits of ``ctx``, and of the parts they leave, with a memo."""
    if ctx in memo:
        return memo[ctx]
    total = 1
    n = len(ctx)
    for r in range(n // 2 + 1):
        for left in combinations(range(n), r):
            chosen = set(left)
            part = tuple(sorted(ctx[i] for i in range(n) if i not in chosen))
            if len(part) < n:
                total += _splits(part, memo) % 7
    memo[ctx] = total
    return total


def reference() -> int:
    """One unit of reference work (about 5 ms at the reference speed)."""
    memo: dict = {}
    found = _splits(_ITEMS, memo)
    words = sorted(":".join(map(str, key)) for key in memo)
    return found + len(words)


class Clock:
    """Times spans of work and scales each by the speed measured around it.

    When the timed work runs in this process (``in_process``), a timer
    interrupts it every ``interval`` seconds to time one ``reference()`` call,
    and the interruption is taken out of the span it falls in.  Work in a
    child process is sampled only just before and just after each span, as
    samples taken meanwhile would compete with the child for the CPU.  A span
    is scaled by the median of the samples taken during it and of the ``near``
    samples on either side of it, so a goal that runs for seconds is scaled by
    the speed over those seconds.
    """

    def __init__(self, in_process: bool, interval: float = 0.1, near: int = 5):
        self.in_process = in_process
        self.interval = interval
        self.near = near
        self.at: list[float] = []  # start of each sample, perf_counter seconds
        self.took: list[float] = []  # its duration
        self.spans: list[tuple[float, float, float]] = []  # (start, end, raw seconds)
        self._t0 = 0.0
        self._paused = 0.0

    def _sample(self) -> None:
        # with the collector off, the sample's allocations (all freed before
        # it returns) do not move the collections of the work it interrupts
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self._paused += time.perf_counter() - t0

    def start(self) -> None:
        """Sample the speed now (``setup_factor``), then every ``interval``."""
        reference()  # the first call in a fresh interpreter runs slow
        self._samples()
        if self.in_process:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def close(self) -> None:
        if self.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples()

    def _samples(self) -> None:
        for _ in range(self.near):
            self._sample()

    def begin(self) -> None:
        if not self.in_process:
            self._samples()
        self._paused = 0.0
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """End the span opened by the last ``begin``."""
        end = time.perf_counter()
        self.spans.append((self._t0, end, end - self._t0 - self._paused))
        if not self.in_process:
            self._samples()

    def setup_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.took[: self.near])

    def scaled(self, index: int) -> float:
        start, end, raw = self.spans[index]
        first = max(0, bisect_left(self.at, start) - self.near)
        last = bisect_right(self.at, end) + self.near
        return raw * REFERENCE_S / statistics.median(self.took[first:last])

    def scaled_spans(self) -> list[float]:
        return [self.scaled(i) for i in range(len(self.spans))]

    def raw_total(self) -> float:
        return sum(raw for _, _, raw in self.spans)

"""The benchmark's own arithmetic: span self time, tail percentiles,
share error, per-read ratios, and the metric-name grammar.

Kept free of simulator imports apart from the repository's percentile
definition, so ``test_arith.py`` can pin every formula on hand-made
inputs.
"""

from __future__ import annotations

import re
import time

from repro.analysis.metrics import percentile

__all__ = [
    "NAME_RE",
    "UNIT_RE",
    "SpanLedger",
    "ratio",
    "share_err",
    "tail_percentile",
]

#: Metric and workload names: a letter or digit, then up to 63 more
#: letters, digits, ``_``, ``.`` or ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: 1 to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Samples a reported percentile needs beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(samples: list[int], q: float) -> tuple[float, int]:
    """Percentile ``q`` of ``samples`` and the sample count.

    Raises ``ValueError`` when fewer than ``MIN_TAIL_SAMPLES`` samples lie
    beyond ``q``: a p99 needs at least 1000 samples to mean anything.
    """
    count = len(samples)
    if count * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {count} samples has fewer than "
            f"{MIN_TAIL_SAMPLES} samples beyond it"
        )
    return percentile(samples, q), count


def share_err(hi_share: float, hi_weight: float, lo_weight: float) -> float:
    """|steady hi-class share - entitlement| / entitlement."""
    entitlement = hi_weight / (hi_weight + lo_weight)
    return abs(hi_share - entitlement) / entitlement


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when ``whole`` is 0 (say, events per DRAM
    read in a run where no read reached DRAM)."""
    return part / whole if whole else 0.0


class SpanLedger:
    """Per-name call counts and self time of nested spans.

    Spans are aggregated as they close instead of being stored, because
    a traced run opens millions of them.  A span's self time is its
    duration minus the time its direct children cover; ``top_s`` sums
    the spans with no parent, i.e. the traced wall inside any span.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.top_s = 0.0
        # open spans: [name, start, seconds covered by children]
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration

    def count(self, name: str) -> None:
        """Count a call without timing it."""
        self.calls[name] = self.calls.get(name, 0) + 1

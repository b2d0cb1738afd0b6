"""Traced runs: spans around each layer's public entry points.

The wrappers are installed on the classes (and, for the checkpoint
functions, on their module) before any system is built, because
``Core`` and ``System`` bind some methods at construction.  Traced runs
use the ``pure`` backend: the compiled fast path declines wrapped
callbacks, so a traced ``c`` run would measure a different program.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator

from repro.cache.hierarchy import CacheHierarchy
from repro.core.arbiter import PriorityArbiter
from repro.core.pabst import PabstMechanism
from repro.dram.controller import MemoryController
from repro.runner import checkpoint
from repro.runner.cache import ResultCache
from repro.sim.stats import Stats
from repro.sim.system import System
from repro.workloads.chaser import ChaserWorkload
from repro.workloads.stream import StreamWorkload

from perfbench.arith import SpanLedger, ratio
from perfbench.workloads import counts

__all__ = ["layer_metrics", "sum_counts", "traced_layers"]

#: (owner, attribute, span name) for every timed public entry point.
SPANS = (
    (MemoryController, "try_enqueue", "dram.enqueue"),
    (PriorityArbiter, "pick", "qos.pick"),
    (PabstMechanism, "request_release", "qos.release"),
    (PabstMechanism, "on_response", "qos.response"),
    (PabstMechanism, "on_epoch", "qos.epoch"),
    (CacheHierarchy, "access", "cache.access"),
    (StreamWorkload, "next_access", "workloads.next_access"),
    (ChaserWorkload, "next_access", "workloads.next_access"),
    (Stats, "record_completion", "stats.record"),
    (Stats, "close_epoch", "stats.close_epoch"),
    (checkpoint, "snapshot_system", "runner.ckpt_snapshot"),
    (checkpoint.CheckpointStore, "save", "runner.ckpt_write"),
    (checkpoint.CheckpointStore, "load", "runner.ckpt_read"),
    (checkpoint, "restore_system", "runner.ckpt_restore"),
    (ResultCache, "store", "runner.cache_store"),
)

#: Controller scheduling passes: counted, not timed (the pass is not a
#: public entry point, but pass productivity needs the count).
PASS_COUNT = "dram.passes"


def _timed(fn, name: str, ledger: SpanLedger):
    enter, leave = ledger.enter, ledger.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return span


def _counted(fn, name: str, ledger: SpanLedger):
    count = ledger.count

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        count(name)
        return fn(*args, **kwargs)

    return counted


def _capturing(fn, captured: list):
    @functools.wraps(fn)
    def finalize(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        captured.append(counts(self))

    return finalize


@contextmanager
def patched(replacements) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    missing = object()
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__.get(attr, missing)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


@contextmanager
def traced_layers(ledger: SpanLedger, captured: list) -> Iterator[None]:
    """Record layer spans into ``ledger`` and each finalized system's
    counts into ``captured`` for runs started inside the block."""
    replacements = [
        (owner, attr, _timed(getattr(owner, attr), name, ledger))
        for owner, attr, name in SPANS
    ]
    replacements.append(
        (MemoryController, "_run_pass",
         _counted(MemoryController._run_pass, PASS_COUNT, ledger))
    )
    replacements.append((System, "finalize", _capturing(System.finalize, captured)))
    with patched(replacements):
        yield


def sum_counts(captured: list[dict]) -> dict[str, int]:
    """Counts summed over every system finalized in a traced run."""
    total: dict[str, int] = {}
    for entry in captured:
        for key, value in entry.items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(
    count: dict[str, int], ledger: SpanLedger, traced_wall: float, pure_wall: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run (runner and compiled-backend
    metrics are added by the caller)."""
    calls, own = ledger.calls, ledger.self_s
    reads = count["dram.reads"]
    attributed = count["reads_attributed"]
    metrics = {
        "engine.events": count["engine.events"],
        "engine.events_per_read": ratio(count["engine.events"], reads),
        "sim.self_s": traced_wall - ledger.top_s,
        "trace.overhead": traced_wall / pure_wall,
        "dram.enqueue_s": own.get("dram.enqueue", 0.0),
        "dram.enqueue_calls": calls.get("dram.enqueue", 0),
        "dram.pass_yield": ratio(calls.get("qos.pick", 0), calls.get(PASS_COUNT, 0)),
        "dram.bus_eff": ratio(count["bus_busy"], count["mc_active"]),
        "dram.queue_cyc": ratio(count["stage_queue"], attributed),
        "dram.service_cyc": ratio(count["stage_service"], attributed),
        "qos.release_s": own.get("qos.release", 0.0),
        "qos.release_calls": calls.get("qos.release", 0),
        "qos.response_s": own.get("qos.response", 0.0),
        "qos.epoch_s": own.get("qos.epoch", 0.0),
        "qos.pick_s": own.get("qos.pick", 0.0),
        "qos.pacer_wait_cyc": ratio(count["stage_pacer"], attributed),
        "cache.access_s": own.get("cache.access", 0.0),
        "cache.access_calls": calls.get("cache.access", 0),
        "workloads.next_access_s": own.get("workloads.next_access", 0.0),
        "workloads.next_access_calls": calls.get("workloads.next_access", 0),
        "system.noc_cyc": ratio(count["stage_noc"], attributed),
        "stats.record_s": own.get("stats.record", 0.0),
        "stats.close_epoch_s": own.get("stats.close_epoch", 0.0),
        "runner.ckpt_save_s": own.get("runner.ckpt_snapshot", 0.0)
        + own.get("runner.ckpt_write", 0.0),
        "runner.ckpt_load_s": own.get("runner.ckpt_read", 0.0)
        + own.get("runner.ckpt_restore", 0.0),
        "runner.cache_store_s": own.get("runner.cache_store", 0.0),
        "runner.warm_forks": calls.get("runner.ckpt_restore", 0),
    }
    for key in (
        "dram.reads", "dram.writes", "dram.rejects", "qos.releases_denied",
        "qos.uncharges", "cache.l2_hits", "cache.l2_misses", "cache.l3_hits",
        "cache.l3_misses", "cpu.accesses", "cpu.instructions",
    ):
        metrics[key] = count[key]
    return metrics

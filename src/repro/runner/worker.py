"""Worker-side execution of one :class:`~repro.runner.spec.RunSpec`.

:func:`execute_payload` is a module-level function taking and returning
plain dicts, so it pickles cleanly across the ``ProcessPoolExecutor``
boundary.  It measures wall-clock time and the number of simulation
events dispatched (via :func:`repro.sim.engine.dispatched_total`), the
two numbers the bench and sweep reports are built from.

Failures are part of the contract: any exception inside the figure run
is caught and returned as a ``{"ok": False, ...}`` payload, so one bad
cell never takes down a sweep.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Mapping

__all__ = ["execute_payload", "execute_spec", "figure_module"]


def figure_module(figure: str):
    """The experiment module for a figure name (e.g. ``fig05``)."""
    import importlib

    from repro.cli import EXPERIMENTS

    if figure not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown figure {figure!r}; known: {known}")
    run_fn, _ = EXPERIMENTS[figure]
    return importlib.import_module(run_fn.__module__)


def _run_kwargs(cell: Mapping[str, Any]) -> dict[str, Any]:
    """Cell kwargs with JSON round-trip artifacts undone (lists->tuples)."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in cell.items()
    }


def execute_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Run one spec (as a plain-dict payload) and return a result dict.

    A ``warm_start_dir`` key in the payload (set by the pool's
    warm-start batching, not part of the spec's content hash) routes
    the run through that directory's checkpoint store; a true
    ``snapshot_end`` key (set when a later cell of the same warm-up
    group is still to run) makes the run store its end state too.
    """
    from repro.runner.spec import RunSpec

    spec = RunSpec.from_payload(payload)
    try:
        return execute_spec(
            spec,
            warm_start_dir=payload.get("warm_start_dir"),
            snapshot_end=bool(payload.get("snapshot_end")),
        )
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def execute_spec(
    spec: "Any", warm_start_dir: str | None = None, snapshot_end: bool = False
) -> dict[str, Any]:
    """Run one :class:`RunSpec` in-process and time it."""
    from contextlib import nullcontext

    from repro import accel
    from repro.experiments.common import config_overrides, warm_start
    from repro.sim.engine import dispatched_total

    # Backend selection wraps the whole run (construction included) so
    # warm-start restores re-resolve under it; "pure"
    # still enters the context to shadow any ambient REPRO_ACCEL=c, since
    # the spec's resolved backend is part of its content hash.
    backing = accel.backend(getattr(spec, "backend", "pure"))
    if warm_start_dir is not None:
        from repro.runner.checkpoint import CheckpointStore

        warming = warm_start(CheckpointStore(warm_start_dir), snapshot_end)
    else:
        warming = nullcontext()
    module = figure_module(spec.figure)
    kwargs = _run_kwargs(spec.cell)
    events_before = dispatched_total()
    fp_before = accel.fastpath_stats()
    started = time.perf_counter()
    with backing, config_overrides(**dict(spec.overrides)), warming:
        result = module.run(quick=spec.quick, seed=spec.seed, **kwargs)
    wall = time.perf_counter() - started
    events = dispatched_total() - events_before
    outcome = {
        "ok": True,
        "figure": spec.figure,
        "label": spec.label(),
        "report": result.report(),
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    fastpath = _fastpath_delta(fp_before, accel.fastpath_stats())
    if fastpath is not None:
        outcome["fastpath"] = fastpath
    # Result objects that expose a structured document (the arena) ship
    # it through the cache so reports can be merged without re-running.
    if hasattr(result, "metrics"):
        outcome["metrics"] = result.metrics()
    return outcome


def _fastpath_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any] | None:
    """Native fast-path counter delta for one run, or None if idle.

    The extension's counters are process-global, so the delta isolates
    this run's dispatch coverage.  A pure-backend run moves nothing and
    reports nothing.
    """
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    if hits == 0 and misses == 0:
        return None
    kinds_before = before.get("kinds", {})
    kinds = {
        tag: count - kinds_before.get(tag, 0)
        for tag, count in after.get("kinds", {}).items()
        if count - kinds_before.get(tag, 0) > 0
    }
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 6) if total > 0 else 0.0,
        "kinds": kinds,
    }

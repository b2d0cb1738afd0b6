"""Wall-clock, events/sec, and profiling of the experiment figures.

``repro bench`` times each figure's full ``run()`` in-process (single
process, no cache — the point is to measure the simulator, not the
runner) and writes a ``BENCH_<timestamp>.json``.  Each figure runs
``repeat`` times (default 3) and the **median** wall time is reported,
so one noisy run cannot flake the CI perf-smoke job.  With ``--check``
fresh numbers are compared against a committed baseline and the command
fails when events/sec regresses beyond the tolerance; ``--update``
rewrites ``BENCH_baseline.json`` in place.  The document records the
Python version, platform string, and git revision so baselines from
different machines are never compared blindly.

``repro profile`` runs one figure under :mod:`cProfile` and emits a JSON
hotspot report (top functions by total time), so perf PRs are measured
rather than guessed.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.runner.spec import RunSpec
from repro.runner.worker import execute_spec

__all__ = [
    "BASELINE_PATH",
    "HISTORY_PATH",
    "append_history",
    "check_against_baseline",
    "default_bench_path",
    "git_revision",
    "run_bench",
    "run_profile",
    "run_warm_start_bench",
    "write_bench",
]

#: The committed baseline the CI perf-smoke job checks against.
BASELINE_PATH = Path("BENCH_baseline.json")

#: Append-only perf trajectory: one JSON line per ``repro bench`` run,
#: timestamped and git-rev-tagged, tracked in-repo next to the baseline.
HISTORY_PATH = Path("BENCH_history.jsonl")


def git_revision() -> str | None:
    """Current git commit hash, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_bench(
    figures: Iterable[str],
    quick: bool = True,
    seed: int = 0,
    repeat: int = 3,
    backend: str = "pure",
) -> dict[str, Any]:
    """Time each figure ``repeat`` times; returns the bench document.

    The reported wall time is the median across repeats (events/sec is
    derived from it); the event count is deterministic, so any repeat's
    count is the count.

    ``backend`` selects the engine implementation the timed runs execute
    under (:mod:`repro.accel`; already resolved — "pure" or "c", never
    "auto").  Under ``"c"`` each figure additionally runs once pure and
    the entry grows a ``"compiled"`` sub-document with the measured
    speedup vs that pure run and a byte-identity check of the two
    reports — the bench publishes the determinism contract alongside
    the number, so a divergent compiled core fails loudly here too.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if backend == "c":
        # Force the extension build up front so no timed (or warm-up)
        # window pays the compiler.  A failed build is not raised here:
        # the warm-up run surfaces it as the figure's error entry.
        from repro import accel

        try:
            accel.resolve_backend("c")
        except accel.AccelUnavailable:
            pass
    results: dict[str, Any] = {}
    for figure in figures:
        walls: list[float] = []
        entry: dict[str, Any] | None = None
        report: str | None = None
        fastpath: dict[str, Any] | None = None
        # One untimed warm-up run per figure: first-run costs (imports,
        # code caches, allocator growth) never land in the median.
        warmup = execute_spec(
            RunSpec(figure=figure, quick=quick, seed=seed, backend=backend)
        )
        if not warmup.get("ok"):
            results[figure] = {"ok": False, "error": warmup.get("error")}
            continue
        for _ in range(repeat):
            outcome = execute_spec(
                RunSpec(figure=figure, quick=quick, seed=seed, backend=backend)
            )
            if not outcome.get("ok"):
                entry = {"ok": False, "error": outcome.get("error")}
                break
            walls.append(outcome["wall_seconds"])
            report = outcome.get("report")
            fastpath = outcome.get("fastpath")
            entry = {"ok": True, "events": outcome["events"]}
        if entry.get("ok"):
            wall = statistics.median(walls)
            entry["wall_seconds"] = round(wall, 4)
            entry["events_per_sec"] = round(entry["events"] / wall, 1) if wall > 0 else 0.0
            entry["repeats"] = len(walls)
            if backend == "c":
                entry["compiled"] = _bench_vs_pure(
                    figure, quick, seed, wall, report, fastpath
                )
        results[figure] = entry
    document = {
        "schema": 2,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": quick,
        "seed": seed,
        "repeat": repeat,
        "backend": backend,
        "accel_fingerprint": _accel_fingerprint(backend),
        "python": platform.python_version(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "figures": results,
    }
    return document


def _accel_fingerprint(backend: str) -> str | None:
    """Build fingerprint of the compiled extension, None under pure."""
    if backend != "c":
        return None
    from repro import accel

    return accel.build_fingerprint()


def _bench_vs_pure(
    figure: str,
    quick: bool,
    seed: int,
    c_wall: float,
    c_report: str | None,
    fastpath: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One pure-backend run of a figure, byte-checked against the C run."""
    outcome = execute_spec(
        RunSpec(figure=figure, quick=quick, seed=seed, backend="pure")
    )
    if not outcome.get("ok"):
        return {"ok": False, "error": outcome.get("error")}
    if c_report is not None and outcome.get("report") != c_report:
        return {
            "ok": False,
            "error": "compiled report diverged from pure-backend run",
        }
    pure_wall = outcome["wall_seconds"]
    entry = {
        "ok": True,
        "pure_wall_seconds": round(pure_wall, 4),
        "speedup_vs_pure": round(pure_wall / c_wall, 3) if c_wall > 0 else 0.0,
        "byte_identical": c_report is not None,
    }
    if fastpath is not None:
        # From the last timed C repeat: dispatch-loop coverage of the
        # native kind handlers (see repro.accel.fastpath_stats).
        entry["fastpath_hits"] = fastpath.get("hits")
        entry["fastpath_misses"] = fastpath.get("misses")
        entry["fastpath_hit_rate"] = fastpath.get("hit_rate")
    return entry


def run_warm_start_bench(
    figure: str = "fig05", quick: bool = True, seed: int = 0, repeat: int = 3
) -> dict[str, Any]:
    """Cold vs warm-started sweep wall-clock over one figure's grid.

    Times the figure's full sweep twice — cold (every cell simulates its
    own warm-up) and warm-started from an empty checkpoint store (the
    leader snapshots the warm-up, and each cell forks from the longest
    link of the chain its predecessors left).  The store is emptied
    before every warm repeat: a pre-populated chain would hold every
    cell's own end, and the bench would time restores instead of the
    simulation a first warm-started sweep does.  Sequential workers keep
    the comparison about simulation work, not pool scheduling.  Reports the median of ``repeat`` runs each way and the
    resulting speedup; warm reports are cross-checked byte-identical to
    cold ones, so a determinism break fails the bench instead of
    flattering it.
    """
    import tempfile

    from repro.runner.pool import run_specs
    from repro.runner.spec import specs_for_figure

    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    specs = specs_for_figure(figure, quick=quick, seed=seed)
    entry: dict[str, Any] = {
        "figure": figure,
        "quick": quick,
        "cells": len(specs),
        "repeats": repeat,
    }

    def timed_sweep(warm_start_dir: str | None) -> tuple[float, list[str] | None]:
        start = time.perf_counter()
        outcomes = run_specs(specs, workers=1, warm_start_dir=warm_start_dir)
        wall = time.perf_counter() - start
        if not all(outcome.ok for outcome in outcomes):
            return wall, None
        return wall, [outcome.result["report"] for outcome in outcomes]

    cold_walls: list[float] = []
    cold_reports: list[str] | None = None
    for _ in range(repeat):
        wall, reports = timed_sweep(None)
        if reports is None:
            entry.update(ok=False, error="cold sweep cell failed")
            return entry
        cold_walls.append(wall)
        cold_reports = reports
    warm_walls: list[float] = []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory(prefix="repro-warm-bench-") as tmp:
            wall, reports = timed_sweep(tmp)
            if reports is None:
                entry.update(ok=False, error="warm-started sweep cell failed")
                return entry
            if reports != cold_reports:
                entry.update(
                    ok=False, error="warm-started reports diverged from cold"
                )
                return entry
            warm_walls.append(wall)

    cold = statistics.median(cold_walls)
    warm = statistics.median(warm_walls)
    entry.update(
        ok=True,
        cold_seconds=round(cold, 4),
        warm_seconds=round(warm, 4),
        speedup=round(cold / warm, 3) if warm > 0 else 0.0,
    )
    return entry


def run_profile(
    figure: str, quick: bool = True, seed: int = 0, top: int = 25,
    backend: str = "pure",
) -> dict[str, Any]:
    """Run one figure under cProfile; returns a JSON-ready hotspot report.

    Hotspots are ranked by ``tottime`` (time in the function itself,
    excluding callees) — the number that tells a perf PR where the
    cycles actually go.  Under ``backend="c"`` the wheel loop runs
    inside the extension, so its cost shows up as one opaque
    ``run_until``/``run`` builtin frame and the Python hotspots are the
    component callbacks it dispatches into.
    """
    import cProfile

    profiler = cProfile.Profile()
    outcome = profiler.runcall(
        execute_spec,
        RunSpec(figure=figure, quick=quick, seed=seed, backend=backend),
    )
    profiler.create_stats()
    hotspots = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in profiler.stats.items():
        hotspots.append(
            {
                "file": filename,
                "line": line,
                "function": name,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    hotspots.sort(key=lambda h: h["tottime"], reverse=True)
    report: dict[str, Any] = {
        "schema": 1,
        "figure": figure,
        "quick": quick,
        "seed": seed,
        "backend": backend,
        "accel_fingerprint": _accel_fingerprint(backend),
        "ok": bool(outcome.get("ok")),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "hotspots": hotspots[:top],
    }
    if outcome.get("ok"):
        report["wall_seconds"] = round(outcome["wall_seconds"], 4)
        report["events"] = outcome["events"]
        report["events_per_sec"] = round(outcome["events_per_sec"], 1)
        fastpath = outcome.get("fastpath")
        if fastpath is not None:
            # Native fast-path coverage for this run: hit/miss totals and
            # per-kind native dispatch counts, so a profile of the C
            # backend shows *what* the opaque run_until frame executed.
            report["fastpath"] = dict(fastpath)
    else:
        report["error"] = outcome.get("error")
    return report


def default_bench_path() -> Path:
    """``BENCH_<timestamp>.json`` in the current directory."""
    return Path(time.strftime("BENCH_%Y%m%d_%H%M%S.json"))


def write_bench(document: Mapping[str, Any], path: Path | str) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def append_history(
    document: Mapping[str, Any], path: Path | str = HISTORY_PATH
) -> Path:
    """Append one compact line for this bench run to the history log.

    The line keeps only the trajectory-relevant fields (timestamp, git
    revision, run parameters, per-figure rate/wall/events), so the log
    stays grep-able and a thousand runs cost kilobytes.  Baseline
    updates and history appends are deliberately decoupled: the history
    records every measurement, the baseline only the blessed ones.
    """
    figures = {}
    for figure, entry in document.get("figures", {}).items():
        if entry.get("ok"):
            figures[figure] = {
                "events_per_sec": entry.get("events_per_sec"),
                "wall_seconds": entry.get("wall_seconds"),
                "events": entry.get("events"),
            }
            compiled = entry.get("compiled")
            if compiled is not None:
                figures[figure]["compiled"] = dict(compiled)
        else:
            figures[figure] = {"error": entry.get("error")}
    line = {
        "generated_at": document.get("generated_at"),
        "git_revision": document.get("git_revision"),
        "quick": document.get("quick"),
        "seed": document.get("seed"),
        "repeat": document.get("repeat"),
        "backend": document.get("backend", "pure"),
        "accel_fingerprint": document.get("accel_fingerprint"),
        "python_version": document.get("python_version"),
        "figures": figures,
    }
    warm = document.get("warm_start")
    if warm is not None:
        if warm.get("ok"):
            line["warm_start"] = {
                "figure": warm.get("figure"),
                "cold_seconds": warm.get("cold_seconds"),
                "warm_seconds": warm.get("warm_seconds"),
                "speedup": warm.get("speedup"),
            }
        else:
            line["warm_start"] = {"error": warm.get("error")}
    path = Path(path)
    with path.open("a", encoding="utf-8") as handle:
        json.dump(line, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return path


def check_against_baseline(
    document: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.30,
) -> list[str]:
    """Regression messages for figures slower than baseline * (1 - tol).

    Only figures present and successful in *both* documents are compared;
    events/sec is the metric (it is far more machine-stable than raw
    wall-clock because the event count is deterministic).
    """
    problems: list[str] = []
    baseline_figures = baseline.get("figures", {})
    for figure, fresh in document.get("figures", {}).items():
        base = baseline_figures.get(figure)
        if base is None:
            continue
        if not fresh.get("ok"):
            problems.append(f"{figure}: benchmark run failed: {fresh.get('error')}")
            continue
        if not base.get("ok"):
            continue
        base_rate = float(base.get("events_per_sec", 0.0))
        fresh_rate = float(fresh.get("events_per_sec", 0.0))
        if base_rate <= 0:
            continue
        floor = base_rate * (1.0 - tolerance)
        if fresh_rate < floor:
            problems.append(
                f"{figure}: events/sec regressed {fresh_rate:,.0f} < "
                f"{floor:,.0f} (baseline {base_rate:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )
    return problems

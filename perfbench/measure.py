"""Timed and traced runs of the benchmark's workloads.

Host times are calibrated: a fixed pure-Python loop (``Calibrator``)
runs between chunks of a timed run, and each chunk is scaled by
``CALIBRATION_REF_S`` over the mean of the two calibration passes around
it (``_ChunkTimer``).  On a shared host whose speed drifts by tens of
percent within seconds this cancels most of the drift, so a host time
reads as "seconds on a host where the calibration loop takes 30 ms".  A
change that speeds the simulator up moves the calibrated time by the
same ratio as the raw one.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.experiments import fig05_proportional as fig05
from repro.experiments.common import build_system, run_system
from repro.runner.cache import ResultCache
from repro.runner.pool import run_specs

from perfbench import workloads as wl
from perfbench.arith import SpanLedger, ratio
from perfbench.catalog import NATIVE_KINDS, RUNNER_METRICS
from perfbench.ledger import layer_metrics, patched, sum_counts, traced_layers

__all__ = ["Ops", "cold_cell", "measure", "trace"]

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().with_name("probe.py")
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Seconds one calibration pass takes on the reference host.
CALIBRATION_REF_S = 0.030
#: Timed set-up probes per run (after one untimed probe).
SETUP_REPEATS = 9
#: Epochs per calibrated chunk of a simulator run.
CHUNK_EPOCHS = 5
#: Fewest timed repetitions behind a median.
MIN_REPS = 3
#: Length of the sanitized run counted as one operation.
SANITIZE_EPOCHS = 10


class _Request:
    __slots__ = ("addr", "hops")

    def __init__(self, addr: int, hops: int = 0) -> None:
        self.addr = addr
        self.hops = hops


class _Unit:
    def __init__(self, loop: "Calibrator", index: int) -> None:
        self.loop = loop
        self.index = index
        self.table: dict[int, _Request] = {}

    def fire(self, req: _Request) -> None:
        loop = self.loop
        addr = (req.addr * 1103515245 + 12345) & 0xFFFFF
        self.table[addr & 2047] = req
        if req.hops < 6:
            target, nxt, delay = loop.units[addr & 15], _Request(addr, req.hops + 1), 1 + (addr & 7)
        else:
            target, nxt, delay = self, _Request(addr), 3
        loop.wheel[(loop.now + delay) & 63].append((target.fire, (nxt,)))


class Calibrator:
    """A fixed discrete-event loop written for the benchmark.

    It has the simulator's shape - a bucketed event wheel, bound-method
    callbacks, small slotted objects allocated per event, dict and list
    traffic - so it slows down with the host the way the simulator does,
    while no change to the simulator can change it.
    """

    EVENTS = 30_000

    def __call__(self) -> float:
        self.now = 0
        self.wheel: list[list] = [[] for _ in range(64)]
        self.units = [_Unit(self, index) for index in range(16)]
        for index in range(256):
            self.wheel[index & 63].append(
                (self.units[index & 15].fire, (_Request(index * 977),))
            )
        wheel = self.wheel
        dispatched = 0
        started = time.perf_counter()
        while dispatched < self.EVENTS:
            slot = self.now & 63
            bucket, wheel[slot] = wheel[slot], []
            for callback, args in bucket:
                callback(*args)
            dispatched += len(bucket)
            self.now += 1
        return time.perf_counter() - started


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed: {what}", file=sys.stderr)


class _ChunkTimer:
    """Calibrated time of a run, measured in chunks.

    At each chunk boundary the calibrator runs and the chunk just ended
    is scaled by the host speed measured on both sides of it;
    calibration time is left out of the run's time.  Chunks of a few
    hundred milliseconds follow host-speed changes that timing a whole
    run would average away.  Boundaries come from the run itself: the
    timer is an epoch sink (a boundary every ``CHUNK_EPOCHS`` epochs) and
    a ``run_specs`` progress callback (a boundary before each cell).
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrate = calibrator
        self._last = calibrator()
        self.start()

    def recalibrate(self) -> None:
        self._last = self._calibrate()

    def start(self) -> None:
        self.seconds = 0.0
        self._epochs = 0
        self._mark = time.perf_counter()

    def add(self, elapsed: float) -> float:
        """Calibrate an interval that just ended; returns it scaled."""
        current = self._calibrate()
        scaled = elapsed * CALIBRATION_REF_S * 2 / (self._last + current)
        self._last = current
        self.seconds += scaled
        return scaled

    def chunk(self, *_message) -> None:
        self.add(time.perf_counter() - self._mark)
        self._mark = time.perf_counter()

    def publish(self, record) -> None:
        self._epochs += 1
        if self._epochs % CHUNK_EPOCHS == 0:
            self.chunk()

    def finish(self) -> float:
        """Close the last chunk; the calibrated seconds since ``start``."""
        self.chunk()
        return self.seconds


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _scratch_dir() -> Iterator[Path]:
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def _setup_s(workload: str, seed: int, clock: _ChunkTimer, ops: Ops) -> float:
    """Median calibrated seconds from a fresh interpreter to the first
    simulated event."""
    command = [sys.executable, str(PROBE), workload, str(seed)]
    subprocess.run(command, check=True, capture_output=True, timeout=120)
    clock.recalibrate()
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        ok = done.returncode == 0
        ops.record(ok, f"set-up probe exited {done.returncode}: {done.stderr[-400:]}")
        if ok:
            times.append(clock.add(float(done.stdout.split()[-1]) - started))
    return statistics.median(times)


def _sanitized_run(workload: wl.SimWorkload, seed: int, ops: Ops) -> None:
    try:
        system = wl.build(workload, seed, sanitize=True)
        run_system(system, SANITIZE_EPOCHS, min(workload.warmup, SANITIZE_EPOCHS // 2))
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
        ops.record(False, f"sanitized {workload.name} run raised {exc!r}")
    else:
        ops.record(True, "")


# ----------------------------------------------------------------------
# end-to-end (--trace 0)
# ----------------------------------------------------------------------
def _measure_sim(workload: wl.SimWorkload, seed: int, seconds: float) -> tuple[dict, Ops]:
    ops = Ops()
    clock = _ChunkTimer(Calibrator())
    # untimed short run: lazy set-up finishes before the first timed rep
    run_system(wl.build(workload, seed), 2, 1)
    walls: list[float] = []
    reference = model = None
    deadline = time.perf_counter() + seconds
    while ops.attempted < MIN_REPS or time.perf_counter() < deadline:
        system = wl.build(workload, seed)
        system.stats.add_sink(clock)
        gc.collect()
        clock.start()
        try:
            result = run_system(system, workload.epochs, workload.warmup)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
            ops.record(False, f"{workload.name} run raised {exc!r}")
            continue
        walls.append(clock.finish())
        run_digest = wl.digest(system)
        if reference is None:
            reference = run_digest
            model = wl.model_metrics(
                system, result.share(0), result.total_utilization(),
                workload.hi_weight, workload.lo_weight,
            )
        ops.record(run_digest == reference, f"{workload.name} digest {run_digest} != {reference}")
        del system, result
    if model is None:
        raise RuntimeError(f"every {workload.name} run raised")
    peak_rss = _rss_mb()
    _sanitized_run(workload, seed, ops)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "sim_kips": statistics.median(model["instructions"] / w / 1000.0 for w in walls),
        "setup_s": _setup_s(workload.name, seed, clock, ops),
        "peak_rss_mb": peak_rss,
        **{k: v for k, v in model.items() if k != "instructions"},
    }
    return metrics, ops


def cold_cell(spec, ops: Ops) -> tuple[str, dict, list[int]]:
    """Run one sweep cell in-process and cold: its report, its model
    metrics, and the instructions retired by each epoch boundary."""
    captured = []
    retired: list[int] = []

    class _Sink:
        def publish(self, record) -> None:
            retired.append(sum(c.instructions for c in captured[0].stats.classes.values()))

    def capture(*args, **kwargs):
        system = build_system(*args, **{**kwargs, "sample_latencies": True})
        system.stats.add_sink(_Sink())
        captured.append(system)
        return system

    with patched([(fig05, "build_system", capture)]):
        result = fig05.run(quick=spec.quick, seed=spec.seed, **spec.cell)
    ops.record(True, "")
    model = wl.model_metrics(
        captured[0], result.hi_share, result.utilization,
        fig05.HI_WEIGHT, fig05.LO_WEIGHT,
    )
    return result.report(), model, retired


def _sweep_once(specs, progress=None) -> tuple[float, list, list[int]]:
    """One sweep on one worker with an empty result cache: raw wall,
    outcomes, and the on-disk size of every checkpoint it wrote."""
    with _scratch_dir() as scratch:
        started = time.perf_counter()
        outcomes = run_specs(
            specs,
            workers=1,
            cache=ResultCache(scratch / "results"),
            progress=progress,
            warm_start_dir=str(scratch / "checkpoints"),
        )
        wall = time.perf_counter() - started
        sizes = [p.stat().st_size for p in (scratch / "checkpoints").glob("*.ckpt")]
    return wall, outcomes, sizes


def _check_cells(outcomes, reports: list[str | None], ops: Ops, what: str) -> None:
    """Count each cell as an operation; fill unset reference reports."""
    for index, outcome in enumerate(outcomes):
        if not outcome.ok:
            ops.record(False, f"{what} cell {outcome.spec.label()}: {outcome.error}")
            continue
        report = outcome.result["report"]
        if reports[index] is None:
            reports[index] = report
        ops.record(report == reports[index], f"{what} cell {outcome.spec.label()} report differs")


def _measure_sweep(seed: int, seconds: float) -> tuple[dict, Ops]:
    ops = Ops()
    specs = wl.sweep_specs(seed)
    cold_report, model, retired = cold_cell(specs[-1], ops)
    warmup = len(retired) - specs[-1].cell["measure_epochs"]
    instructions = sum(retired[warmup + s.cell["measure_epochs"] - 1] for s in specs)
    reports: list[str | None] = [None] * (len(specs) - 1) + [cold_report]
    clock = _ChunkTimer(Calibrator())
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        clock.start()
        _, outcomes, _ = _sweep_once(specs, progress=clock.chunk)
        walls.append(clock.finish())
        _check_cells(outcomes, reports, ops, "sweep")
    peak_rss = _rss_mb()
    metrics = {
        "wall_s": statistics.median(walls),
        "sim_kips": statistics.median(instructions / w / 1000.0 for w in walls),
        "setup_s": _setup_s("sweep", seed, clock, ops),
        "peak_rss_mb": peak_rss,
        **{k: v for k, v in model.items() if k != "instructions"},
    }
    return metrics, ops


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Ops]:
    """End-to-end metrics of one workload (tracing off, pure backend)."""
    if workload == "sweep":
        metrics, ops = _measure_sweep(seed, seconds)
    else:
        metrics, ops = _measure_sim(wl.SIM_WORKLOADS[workload], seed, seconds)
    metrics["ok_frac"] = (ops.attempted - ops.failed) / ops.attempted
    return metrics, ops


# ----------------------------------------------------------------------
# per-layer (--trace 1)
# ----------------------------------------------------------------------
def _c_backend():
    """The accel module if the compiled backend can be built, else None."""
    try:
        from repro import accel

        accel.resolve_backend("c")
    except Exception as exc:  # noqa: BLE001 - any build failure means "absent"
        print(f"perfbench: compiled backend absent: {exc}", file=sys.stderr)
        return None
    return accel


def _c_metrics(pure_wall: float, c_wall: float, hits: int, misses: int, kinds: dict) -> dict:
    metrics = {
        "engine.c_speedup": pure_wall / c_wall,
        "engine.c_hit_rate": ratio(hits, hits + misses),
    }
    for kind in NATIVE_KINDS:
        metrics[f"engine.kind.{kind}"] = kinds.get(kind, 0)
    return metrics


def _kinds_delta(before: dict, after: dict) -> dict:
    return {
        kind: count - before["kinds"].get(kind, 0)
        for kind, count in after["kinds"].items()
    }


def _timed_run(workload: wl.SimWorkload, seed: int) -> tuple[float, str]:
    system = wl.build(workload, seed)
    gc.collect()
    started = time.perf_counter()
    run_system(system, workload.epochs, workload.warmup)
    return time.perf_counter() - started, wl.digest(system)


def _trace_sim_round(workload: wl.SimWorkload, seed: int, accel, ops: Ops) -> dict:
    pure_wall, reference = _timed_run(workload, seed)
    ops.record(True, "")
    ledger, captured = SpanLedger(), []
    with traced_layers(ledger, captured):
        traced_wall, traced_digest = _timed_run(workload, seed)
    ops.record(traced_digest == reference, f"traced {workload.name} digest differs")
    metrics = layer_metrics(sum_counts(captured), ledger, traced_wall, pure_wall)
    metrics.update(dict.fromkeys(RUNNER_METRICS, 0))
    if accel is not None:
        before = accel.fastpath_stats()
        with accel.backend("c"):
            c_wall, c_digest = _timed_run(workload, seed)
        after = accel.fastpath_stats()
        ops.record(c_digest == reference, f"c-backend {workload.name} digest differs")
        metrics.update(_c_metrics(
            pure_wall, c_wall, after["hits"] - before["hits"],
            after["misses"] - before["misses"], _kinds_delta(before, after),
        ))
    return metrics


def _trace_sweep_round(seed: int, accel, ops: Ops) -> dict:
    # one worker, so every cell and its spans run in this process
    specs = wl.sweep_specs(seed)
    pure_wall, outcomes, _ = _sweep_once(specs)
    reports: list[str | None] = [None] * len(specs)
    _check_cells(outcomes, reports, ops, "pure sweep")
    cell_s = sum(o.result.get("wall_seconds", 0.0) for o in outcomes)
    ledger, captured = SpanLedger(), []
    with traced_layers(ledger, captured):
        traced_wall, traced, sizes = _sweep_once(specs)
    _check_cells(traced, reports, ops, "traced sweep")
    metrics = layer_metrics(sum_counts(captured), ledger, traced_wall, pure_wall)
    metrics.update({
        "runner.cell_s": cell_s,
        "runner.overhead_s": pure_wall - cell_s,
        "runner.ckpt_bytes": sum(sizes),
    })
    if accel is not None:
        c_wall, c_outcomes, _ = _sweep_once(wl.sweep_specs(seed, backend="c"))
        _check_cells(c_outcomes, reports, ops, "c-backend sweep")
        hits = misses = 0
        kinds: dict[str, int] = {}
        for outcome in c_outcomes:
            fastpath = outcome.result.get("fastpath", {})
            hits += fastpath.get("hits", 0)
            misses += fastpath.get("misses", 0)
            for kind, count in fastpath.get("kinds", {}).items():
                kinds[kind] = kinds.get(kind, 0) + count
        metrics.update(_c_metrics(pure_wall, c_wall, hits, misses, kinds))
    return metrics


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, Ops]:
    """Per-layer metrics: medians over traced rounds run for ``seconds``."""
    ops = Ops()
    accel = _c_backend()
    if workload != "sweep":
        # untimed short run: lazy set-up finishes before the first timed run
        run_system(wl.build(wl.SIM_WORKLOADS[workload], seed), 2, 1)
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if workload == "sweep":
            rounds.append(_trace_sweep_round(seed, accel, ops))
        else:
            rounds.append(_trace_sim_round(wl.SIM_WORKLOADS[workload], seed, accel, ops))
    metrics = {
        name: statistics.median_low(entry[name] for entry in rounds)
        for name in rounds[0]
    }
    return metrics, ops

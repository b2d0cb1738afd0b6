"""The benchmark's workloads and what it reads off a finished run.

Two simulator workloads run on the 8-core, 2-MC
``SystemConfig.default_experiment`` machine under ``pabst``; ``sweep``
runs the fig05 measurement-window grid through the cached runner.  Each
workload stresses a different set of layers:

* ``stream`` - the fig05 shape: two read-stream classes at 7:3, every
  access a DRAM read, so the controller, the arbiter, the NoC glue and
  engine dispatch carry the work.  Strided reads use no randomness, so
  its inputs are the same for every seed.
* ``chaser`` - the fig07 chaser mix at fig07's full length: an 8-chain
  pointer chaser at weight 3 against a write streamer at weight 1.
  Writes sit beside dependency-bound reads, and the hi class's latency
  tail is the result.  The seed picks the chased addresses.
* ``sweep`` - the fig05 measurement-window sweep (9 cells, one shared
  warm-up prefix) through ``run_specs`` on one worker with warm-start
  and an empty result cache; the only workload that runs the runner
  layer.  One worker keeps every cell in this process, where the
  calibrated timer can split the sweep into per-cell chunks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro.experiments.common import ClassSpec, build_system
from repro.experiments.mixes import chaser_mix
from repro.mechanisms import make_mechanism
from repro.runner.spec import RunSpec, specs_for_figure
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload

from perfbench.arith import share_err, tail_percentile

__all__ = [
    "SIM_WORKLOADS",
    "SimWorkload",
    "WORKLOAD_NAMES",
    "build",
    "counts",
    "digest",
    "model_metrics",
    "sweep_specs",
]


@dataclass(frozen=True)
class SimWorkload:
    """A two-class simulator workload: class 0 is the hi class."""

    name: str
    hi_weight: int
    lo_weight: int
    epochs: int
    warmup: int
    specs: Callable[[], list[ClassSpec]]


def _stream_specs() -> list[ClassSpec]:
    return [
        ClassSpec(0, "stream-70", 7, 4, StreamWorkload, l3_ways=8),
        ClassSpec(1, "stream-30", 3, 4, StreamWorkload, l3_ways=8),
    ]


SIM_WORKLOADS: dict[str, SimWorkload] = {
    workload.name: workload
    for workload in (
        SimWorkload("stream", 7, 3, epochs=60, warmup=25, specs=_stream_specs),
        # fig07's full length: at its quick length (60 epochs) the hi
        # share's seed-to-seed spread is twice as wide
        SimWorkload(
            "chaser", 3, 1, epochs=140, warmup=50, specs=chaser_mix
        ),
    )
}

WORKLOAD_NAMES = (*SIM_WORKLOADS, "sweep")


def build(workload: SimWorkload, seed: int, sanitize: bool = False) -> System:
    """A freshly built system for ``workload`` (latency sampling on).

    The seed reaches the workloads through the engine's named RNG streams.
    """
    return build_system(
        workload.specs(),
        mechanism=make_mechanism("pabst"),
        seed=seed,
        sample_latencies=True,
        sanitize=sanitize,
    )


def sweep_specs(seed: int, backend: str = "pure") -> list[RunSpec]:
    """The fig05 quick measurement-window grid (9 cells)."""
    return specs_for_figure("fig05", quick=True, seed=seed, backend=backend)


def digest(system: System) -> str:
    """Hash of a finished run's simulated statistics.

    Covers per-epoch per-class bytes, per-class counters and latency
    samples, cache and DRAM counts, and the dispatched event count; two
    runs that simulated the same thing agree on every one of them.
    """
    stats = system.stats
    parts = [
        system.engine.dispatched,
        [
            (e.start_cycle, e.end_cycle, sorted(e.bytes_by_class.items()),
             e.saturated, e.multiplier)
            for e in stats.epochs
        ],
        [dataclasses.astuple(stats.classes[q]) for q in sorted(stats.classes)],
        sorted(stats.read_latencies.items()),
        [(l2.hits, l2.misses) for l2 in system.hierarchy.l2s],
        [(l3.hits, l3.misses) for l3 in system.hierarchy.l3_slices],
        [
            (mc.reads_accepted, mc.writes_accepted, mc.rejects, mc.active_cycles)
            for mc in system.controllers
        ],
        stats.bus_busy_cycles,
        stats.mc_active_cycles,
    ]
    encoded = json.dumps(parts, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def counts(system: System) -> dict[str, int]:
    """Exact simulated counts of one finished system, by layer."""
    classes = system.stats.classes.values()
    obs = system.obs.counters()
    return {
        "engine.events": system.engine.dispatched,
        "dram.reads": sum(c.reads_completed for c in classes),
        "dram.writes": sum(c.writes_completed for c in classes),
        "dram.rejects": sum(mc.rejects for mc in system.controllers),
        "bus_busy": system.stats.bus_busy_cycles,
        "mc_active": system.stats.mc_active_cycles,
        "reads_attributed": sum(c.reads_attributed for c in classes),
        "stage_pacer": sum(c.stage_pacer_sum for c in classes),
        "stage_noc": sum(c.stage_noc_sum for c in classes),
        "stage_queue": sum(c.stage_queue_sum for c in classes),
        "stage_service": sum(c.stage_service_sum for c in classes),
        "qos.releases_denied": obs["mechanism.releases_denied"],
        "qos.uncharges": sum(
            value for name, value in obs.items()
            if name.startswith("pacer.") and name.endswith(".uncharges")
        ),
        "cache.l2_hits": sum(l2.hits for l2 in system.hierarchy.l2s),
        "cache.l2_misses": sum(l2.misses for l2 in system.hierarchy.l2s),
        "cache.l3_hits": sum(l3.hits for l3 in system.hierarchy.l3_slices),
        "cache.l3_misses": sum(l3.misses for l3 in system.hierarchy.l3_slices),
        "cpu.accesses": sum(core.accesses_completed for core in system.cores.values()),
        "cpu.instructions": sum(core.instructions for core in system.cores.values()),
    }


def model_metrics(
    system: System, hi_share: float, util: float, hi_weight: float, lo_weight: float
) -> dict[str, float]:
    """Simulated-time results of one finished run; deterministic for a seed.

    Latencies are the hi class's DRAM read latencies over the whole run.
    """
    latencies = system.stats.read_latencies.get(0, [])
    p99, samples = tail_percentile(latencies, 99)
    p50, _ = tail_percentile(latencies, 50)
    instructions = sum(c.instructions for c in system.stats.classes.values())
    return {
        "share_err": share_err(hi_share, hi_weight, lo_weight),
        "util": util,
        "hi_p50_lat_cyc": p50,
        "hi_p99_lat_cyc": p99,
        "hi_lat_samples": samples,
        "sim_ipc": instructions / system.engine.now,
        "instructions": instructions,
    }

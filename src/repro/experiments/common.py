"""Shared plumbing for the paper-figure experiments.

Each ``fig*`` module builds systems from :class:`ClassSpec` lists, runs them
for a warm-up plus measurement window, and returns a result object with a
``report()`` method that prints the same rows/series the paper's figure
shows.  Benchmarks and tests consume the same functions; ``quick`` variants
shrink core counts and epochs for CI-speed runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.analysis.timeline import BandwidthTimeline
from repro.mechanisms import MECHANISMS, make_mechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.mechanism import QoSMechanism
from repro.sim.system import System
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RequestTracer
    from repro.runner.checkpoint import Checkpoint, CheckpointStore

__all__ = [
    "ClassSpec",
    "MECHANISMS",
    "RunResult",
    "build_system",
    "config_overrides",
    "make_mechanism",
    "run_system",
    "sanitized",
    "traced",
    "warm_start",
]

# Default for build_system(sanitize=None).  The ``repro run --sanitize``
# CLI flag and the :func:`sanitized` context manager flip this so every
# system an experiment builds gets a runtime sanitizer without threading
# a flag through all nine fig* modules.
_default_sanitize = False


@contextmanager
def sanitized(enabled: bool = True) -> Iterator[None]:
    """Enable the runtime sanitizer for systems built inside the block."""
    global _default_sanitize
    previous = _default_sanitize
    _default_sanitize = enabled
    try:
        yield
    finally:
        _default_sanitize = previous


# SystemConfig field overrides applied to every system built inside a
# :func:`config_overrides` block.  Same pattern as ``sanitized``: the
# runner threads sweep-wide config tweaks through all nine fig* modules
# without changing their signatures.
_default_overrides: dict[str, object] = {}


@contextmanager
def config_overrides(**overrides: object) -> Iterator[None]:
    """Override :class:`SystemConfig` fields for systems built inside.

    Unknown field names raise at build time (``dataclasses.replace``
    validates against the config's fields).  Overrides nest: inner blocks
    shadow outer ones field-by-field.
    """
    global _default_overrides
    previous = _default_overrides
    _default_overrides = {**previous, **overrides}
    try:
        yield
    finally:
        _default_overrides = previous


# Checkpoint store consulted by run_system() for every run inside a
# :func:`warm_start` block, and whether those runs also snapshot their
# end.  Third instance of the ambient-default pattern (`sanitized`,
# `config_overrides`): the sweep runner turns on warm-starting for whole
# fig* runs without changing their signatures.
_default_checkpoint_store: "CheckpointStore | None" = None
_default_snapshot_end = False


@contextmanager
def warm_start(
    store: "CheckpointStore", snapshot_end: bool = False
) -> Iterator[None]:
    """Warm-start runs inside the block from ``store``'s checkpoints.

    Every :func:`run_system` call inside the block forks from the
    longest stored link of its warm-up prefix that does not overrun the
    run, and simulates only the remaining epochs.  With no link stored
    it simulates the warm-up, snapshots it into ``store`` as the first
    link, and continues.  With ``snapshot_end`` the run also stores its
    own end state (before ``finalize()``) as a longer link, so a later,
    longer run of the same prefix continues from there.  Forked runs
    are byte-identical to cold ones — see DESIGN.md §8.
    """
    global _default_checkpoint_store, _default_snapshot_end
    previous = (_default_checkpoint_store, _default_snapshot_end)
    _default_checkpoint_store = store
    _default_snapshot_end = snapshot_end
    try:
        yield
    finally:
        _default_checkpoint_store, _default_snapshot_end = previous


# Request tracer and epoch metric sinks attached to every system built
# inside a :func:`traced` block.  Fourth instance of the ambient-default
# pattern: `repro trace fig05` wires observability into a whole figure
# run without the fig* modules knowing the tracer exists.
_default_tracer: "RequestTracer | None" = None
_default_sinks: tuple = ()


@contextmanager
def traced(
    tracer: "RequestTracer | None" = None, sinks: Sequence = ()
) -> Iterator[None]:
    """Attach observability to every system built inside the block.

    ``tracer`` (a :class:`repro.obs.trace.RequestTracer`) is installed
    as each built engine's lifecycle recorder; ``sinks`` (objects with
    ``publish(record)``) receive every epoch metric record the systems'
    ``Stats.close_epoch`` produces.  A figure module that builds several
    systems feeds them all into the same tracer/sinks — request ids are
    process-global, so transition streams never collide.
    """
    global _default_tracer, _default_sinks
    previous = (_default_tracer, _default_sinks)
    _default_tracer = tracer
    _default_sinks = tuple(sinks)
    try:
        yield
    finally:
        _default_tracer, _default_sinks = previous


# MECHANISMS / make_mechanism now live in repro.mechanisms (the full
# zoo, including the paper's baselines); re-exported here because the
# fig* modules and external callers import them from this module.


@dataclass(frozen=True)
class ClassSpec:
    """One QoS class in an experiment: weight, cores, and their workload."""

    qos_id: int
    name: str
    weight: float
    cores: int
    workload_factory: Callable[[], Workload]
    l3_ways: int | None = None

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"class {self.name!r} needs at least one core")


def build_system(
    specs: Sequence[ClassSpec],
    config: SystemConfig | None = None,
    mechanism: QoSMechanism | None = None,
    seed: int = 0,
    sample_latencies: bool = False,
    sanitize: bool | None = None,
) -> System:
    """Wire a system with cores assigned to classes in spec order."""
    if not specs:
        raise ValueError("need at least one class spec")
    total_cores = sum(spec.cores for spec in specs)
    if config is None:
        config = SystemConfig.default_experiment(cores=total_cores, num_mcs=2)
    if _default_overrides:
        config = replace(config, **_default_overrides)
    if total_cores > config.cores:
        raise ValueError(
            f"specs need {total_cores} cores, config has {config.cores}"
        )
    registry = QoSRegistry()
    workloads: dict[int, Workload] = {}
    next_core = 0
    for spec in specs:
        registry.define_class(
            spec.qos_id, spec.name, weight=spec.weight, l3_ways=spec.l3_ways
        )
        for _ in range(spec.cores):
            registry.assign_core(next_core, spec.qos_id)
            workloads[next_core] = spec.workload_factory()
            next_core += 1
    system = System(
        config,
        registry,
        workloads,
        mechanism=mechanism,
        seed=seed,
        sample_latencies=sample_latencies,
        sanitize=_default_sanitize if sanitize is None else sanitize,
        tracer=_default_tracer,
    )
    for sink in _default_sinks:
        system.stats.add_sink(sink)
    return system


@dataclass
class RunResult:
    """Everything an experiment needs from one finished run."""

    system: System
    timeline: BandwidthTimeline
    warmup_epochs: int
    steady_bytes: dict[int, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.system.engine.now

    def share(self, qos_id: int) -> float:
        return self.timeline.steady_share(qos_id, self.warmup_epochs)

    def ipc(self, qos_id: int) -> float:
        return self.system.stats.ipc(qos_id, self.cycles)

    def total_utilization(self) -> float:
        total = sum(self.steady_bytes.values())
        measured = self.timeline.epochs[self.warmup_epochs :]
        cycles = sum(sample.cycles for sample in measured)
        if cycles == 0:
            return 0.0
        return total / cycles / self.system.config.peak_bandwidth


def run_system(
    system: System,
    epochs: int,
    warmup_epochs: int,
    *,
    checkpoint_after_warmup: "CheckpointStore | None" = None,
    resume_from: "Checkpoint | None" = None,
) -> RunResult:
    """Run for ``epochs`` QoS epochs and summarize the steady window.

    ``system`` must be freshly built (no cycles run yet).  Three ways to
    cover the run, all producing byte-identical results:

    * plain (default): simulate all ``epochs`` in one go;
    * ``resume_from=checkpoint``: fork from an explicit link of this
      run's prefix (validated) and simulate only the epochs after it;
    * ``checkpoint_after_warmup=store`` (or an ambient
      :func:`warm_start` block): fork from the store's longest link of
      this run's prefix that fits, otherwise simulate the warm-up,
      snapshot it into the store, and continue.
    """
    if warmup_epochs >= epochs:
        raise ValueError("need more epochs than warm-up")
    store = checkpoint_after_warmup
    if store is None:
        store = _default_checkpoint_store
    if resume_from is not None or (store is not None and warmup_epochs > 0):
        system = _run_warm_started(
            system, epochs, warmup_epochs, store, resume_from
        )
        system.finalize()
    else:
        system.run_epochs(epochs)
        system.finalize()
    timeline = BandwidthTimeline(
        system.stats.epochs, system.config.peak_bandwidth
    )
    return RunResult(
        system=system,
        timeline=timeline,
        warmup_epochs=warmup_epochs,
        steady_bytes=timeline.steady_bytes(warmup_epochs),
    )


def _run_warm_started(
    system: System,
    epochs: int,
    warmup_epochs: int,
    store: "CheckpointStore | None",
    resume_from: "Checkpoint | None",
) -> System:
    """Cover ``epochs`` via checkpointing; returns the system that ran.

    On a fork the caller's ``system`` object is abandoned unrun and the
    restored clone takes its place — restores never mutate the link, so
    one stored link serves any number of forks.  A fresh build's
    trajectory depends only on its prefix, so the link after ``k``
    epochs is exactly where a cold run stands after ``k`` epochs.
    """
    from repro.runner.checkpoint import (
        restore_system,
        snapshot_system,
        warmup_prefix_hash,
    )
    from repro.sim.engine import SimulationError

    if system._epochs_started:
        raise SimulationError(
            "warm-started run_system needs a freshly built system; this "
            "one has already simulated cycles"
        )
    prefix_hash = warmup_prefix_hash(system, warmup_epochs)
    checkpoint = resume_from
    if checkpoint is not None:
        if checkpoint.prefix_hash != prefix_hash:
            raise SimulationError(
                f"resume_from checkpoint prefix {checkpoint.prefix_hash} "
                f"does not match this run's warm-up prefix {prefix_hash}"
            )
        if checkpoint.epochs > epochs:
            raise SimulationError(
                f"resume_from checkpoint holds {checkpoint.epochs} epochs, "
                f"more than this run's {epochs}"
            )
    elif store is not None:
        checkpoint = store.load(prefix_hash, epochs)
    if checkpoint is not None:
        system = restore_system(checkpoint)
        done = checkpoint.epochs
    else:
        system.run_epochs(warmup_epochs)
        done = warmup_epochs
        if store is not None:
            store.save(snapshot_system(system, done, prefix_hash))
    if done < epochs:
        system.run_epochs(epochs - done)
        if store is not None and _default_snapshot_end:
            store.save(snapshot_system(system, epochs, prefix_hash))
    return system

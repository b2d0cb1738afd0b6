"""Unit tests for the checkpoint/restore subsystem."""

import pytest

from repro.core.pabst import PabstMechanism
from repro.experiments.common import ClassSpec, build_system, config_overrides
from repro.runner.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointStore,
    restore_system,
    snapshot_system,
    warmup_prefix_hash,
    warmup_prefix_key,
)
from repro.sim.engine import SimulationError
from repro.sim.records import advance_request_ids, next_request_id
from repro.workloads.stream import StreamWorkload

#: Small epochs keep each simulated window to a few thousand cycles.
EPOCH_CYCLES = 400
WARMUP = 3
TOTAL = 8


def tiny_system(seed=0, mechanism=None, sanitize=False):
    specs = [
        ClassSpec(
            qos_id=0,
            name="hi",
            weight=7,
            cores=2,
            workload_factory=StreamWorkload,
            l3_ways=8,
        ),
        ClassSpec(
            qos_id=1,
            name="lo",
            weight=3,
            cores=2,
            workload_factory=StreamWorkload,
            l3_ways=8,
        ),
    ]
    with config_overrides(epoch_cycles=EPOCH_CYCLES):
        return build_system(
            specs,
            mechanism=mechanism if mechanism is not None else PabstMechanism(),
            seed=seed,
            sanitize=sanitize,
        )


def machine_state(system):
    """The engine-level facts that pin a simulation's exact position."""
    engine = system.engine
    return (
        engine.now,
        engine.dispatched,
        engine._seq,
        engine._wheel_count,
        system.stats.epochs,
    )


# ----------------------------------------------------------------------
# prefix hashing
# ----------------------------------------------------------------------
def test_prefix_hash_is_stable_across_identical_builds():
    assert warmup_prefix_hash(tiny_system(), WARMUP) == warmup_prefix_hash(
        tiny_system(), WARMUP
    )


def test_prefix_hash_is_sensitive_to_run_identity():
    base = warmup_prefix_hash(tiny_system(), WARMUP)
    assert warmup_prefix_hash(tiny_system(seed=1), WARMUP) != base
    assert warmup_prefix_hash(tiny_system(), WARMUP + 1) != base
    from repro.baselines.source_only import SourceOnlyMechanism

    assert (
        warmup_prefix_hash(tiny_system(mechanism=SourceOnlyMechanism()), WARMUP)
        != base
    )
    with config_overrides(epoch_cycles=EPOCH_CYCLES, l2_mshrs=4):
        other_config = build_system(
            [
                ClassSpec(
                    qos_id=0,
                    name="hi",
                    weight=7,
                    cores=2,
                    workload_factory=StreamWorkload,
                    l3_ways=8,
                ),
                ClassSpec(
                    qos_id=1,
                    name="lo",
                    weight=3,
                    cores=2,
                    workload_factory=StreamWorkload,
                    l3_ways=8,
                ),
            ],
            mechanism=PabstMechanism(),
        )
    assert warmup_prefix_hash(other_config, WARMUP) != base


def test_prefix_key_is_json_serializable_and_versioned():
    import json

    key = warmup_prefix_key(tiny_system(), WARMUP)
    assert key["version"] == CHECKPOINT_VERSION
    assert key["warmup_epochs"] == WARMUP
    json.dumps(key, sort_keys=True, default=str)


def test_prefix_hash_is_sensitive_to_tracing():
    # a traced warm-up buffers different tracer state in its snapshot,
    # so it must never serve as an untraced run's warm-start (and vice
    # versa) — the "traced" prefix-key field keeps them apart
    from repro.obs.trace import RequestTracer

    untraced = tiny_system()
    traced = tiny_system()
    traced.engine.tracer = RequestTracer()
    assert warmup_prefix_hash(untraced, WARMUP) != (
        warmup_prefix_hash(traced, WARMUP)
    )


# ----------------------------------------------------------------------
# snapshot / restore
# ----------------------------------------------------------------------
def test_restored_run_matches_uninterrupted_run():
    cold = tiny_system()
    cold.run_epochs(TOTAL)

    warm = tiny_system()
    prefix = warmup_prefix_hash(warm, WARMUP)
    warm.run_epochs(WARMUP)
    checkpoint = snapshot_system(warm, WARMUP, prefix)
    forked = restore_system(checkpoint)
    forked.run_epochs(TOTAL - WARMUP)

    assert machine_state(forked) == machine_state(cold)


def test_one_checkpoint_forks_independent_runs():
    system = tiny_system()
    prefix = warmup_prefix_hash(system, WARMUP)
    system.run_epochs(WARMUP)
    checkpoint = snapshot_system(system, WARMUP, prefix)

    fork_a = restore_system(checkpoint)
    fork_b = restore_system(checkpoint)
    assert fork_a is not fork_b
    fork_a.run_epochs(TOTAL - WARMUP)  # running one fork...
    assert fork_b.engine.now == checkpoint.boundary_cycle  # ...moves not the other
    fork_b.run_epochs(TOTAL - WARMUP)
    assert machine_state(fork_a) == machine_state(fork_b)


def test_snapshot_requires_prefix_hash():
    system = tiny_system()
    with pytest.raises(ValueError, match="prefix hash"):
        snapshot_system(system, WARMUP)


def test_restore_rejects_wrong_version():
    system = tiny_system()
    prefix = warmup_prefix_hash(system, WARMUP)
    system.run_epochs(WARMUP)
    checkpoint = snapshot_system(system, WARMUP, prefix)
    import dataclasses

    # metadata version disagrees with this build: restore must refuse
    skewed = dataclasses.replace(checkpoint, version=CHECKPOINT_VERSION + 1)
    with pytest.raises(SimulationError, match="version"):
        restore_system(skewed)


def test_restore_rejects_corrupt_payload():
    broken = Checkpoint(
        prefix_hash="0" * 16,
        payload=b"not a pickle",
        version=CHECKPOINT_VERSION,
        fingerprint="",
        epochs=WARMUP,
        boundary_cycle=0,
        request_id_watermark=0,
    )
    with pytest.raises(SimulationError, match="unpickle"):
        restore_system(broken)


def test_sanitized_system_round_trips():
    cold = tiny_system(sanitize=True)
    cold.run_epochs(TOTAL)

    warm = tiny_system(sanitize=True)
    prefix = warmup_prefix_hash(warm, WARMUP)
    warm.run_epochs(WARMUP)
    forked = restore_system(snapshot_system(warm, WARMUP, prefix))
    assert forked.engine.sanitizer is not None
    forked.run_epochs(TOTAL - WARMUP)
    assert machine_state(forked) == machine_state(cold)


def test_on_restore_catches_tampered_wheel_count():
    system = tiny_system()
    prefix = warmup_prefix_hash(system, WARMUP)
    system.run_epochs(WARMUP)
    checkpoint = snapshot_system(system, WARMUP, prefix)
    restored = restore_system(checkpoint)  # pristine restore passes

    restored.engine._wheel_count += 1  # tamper, then re-validate
    from repro.sim.sanitizer import SimSanitizer

    with pytest.raises(SimulationError, match="wheel count"):
        SimSanitizer().on_restore(restored)


def test_advance_request_ids_is_monotone():
    current = next_request_id()
    advance_request_ids(current - 5)  # already past: no-op beyond one tick
    after_noop = next_request_id()
    assert after_noop > current
    advance_request_ids(after_noop + 100)
    assert next_request_id() >= after_noop + 100


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def make_checkpoint(seed=0, warmup=WARMUP):
    system = tiny_system(seed=seed)
    prefix = warmup_prefix_hash(system, warmup)
    system.run_epochs(warmup)
    return snapshot_system(system, warmup, prefix)


def test_store_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    checkpoint = make_checkpoint()
    store.save(checkpoint)
    loaded = store.load(checkpoint.prefix_hash)
    assert loaded is not None
    assert loaded.payload == checkpoint.payload
    assert loaded.boundary_cycle == checkpoint.boundary_cycle
    assert loaded.request_id_watermark == checkpoint.request_id_watermark
    restored = restore_system(loaded)
    assert restored.engine.now == checkpoint.boundary_cycle


def test_store_misses_on_unknown_and_corrupt_entries(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load("f" * 16) is None
    checkpoint = make_checkpoint()
    path = store.save(checkpoint)
    path.write_bytes(b"garbage")
    assert store.load(checkpoint.prefix_hash) is None


def test_store_misses_on_a_version_3_link(tmp_path):
    """A link written before the engine dropped its live-event counter
    (checkpoint version 3) reads as a miss, never as a restore."""
    import dataclasses

    assert CHECKPOINT_VERSION == 4
    store = CheckpointStore(tmp_path)
    checkpoint = make_checkpoint()
    store.save(dataclasses.replace(checkpoint, version=3))
    assert store.load(checkpoint.prefix_hash) is None
    store.save(checkpoint)
    assert store.load(checkpoint.prefix_hash) is not None


def test_store_misses_on_stale_fingerprint(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    checkpoint = make_checkpoint()
    store.save(checkpoint)
    import repro.runner.checkpoint as checkpoint_module

    monkeypatch.setattr(
        checkpoint_module, "source_fingerprint", lambda: "different"
    )
    assert store.load(checkpoint.prefix_hash) is None


def test_store_lru_eviction(tmp_path):
    import os

    store = CheckpointStore(tmp_path, max_entries=2)
    checkpoints = [make_checkpoint(warmup=warmup) for warmup in (1, 2, 3)]
    for age, checkpoint in enumerate(checkpoints[:2]):
        path = store.save(checkpoint)
        os.utime(path, (age, age))  # pin distinct, old mtimes
    assert len(store) == 2
    store.save(checkpoints[2])
    assert len(store) == 2
    assert store.load(checkpoints[0].prefix_hash) is None  # oldest evicted
    assert store.load(checkpoints[2].prefix_hash) is not None


def test_store_clear_and_stats(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.stats()["entries"] == 0
    store.save(make_checkpoint())
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert store.clear() == 1
    assert len(store) == 0


def make_chain(store, ends=(5, 7)):
    """Store the warm-up link and one link per run end in ``ends``."""
    system = tiny_system()
    prefix = warmup_prefix_hash(system, WARMUP)
    done = 0
    for epochs in (WARMUP, *ends):
        system.run_epochs(epochs - done)
        store.save(snapshot_system(system, epochs, prefix))
        done = epochs
    return prefix


def test_store_loads_the_longest_link_that_fits(tmp_path):
    store = CheckpointStore(tmp_path)
    prefix = make_chain(store)
    assert len(store) == 3
    assert store.load(prefix).epochs == 7
    assert store.load(prefix, 8).epochs == 7
    assert store.load(prefix, 6).epochs == 5
    assert store.load(prefix, WARMUP).epochs == WARMUP
    assert store.load(prefix, WARMUP - 1) is None


def test_store_falls_back_past_a_corrupt_link(tmp_path):
    store = CheckpointStore(tmp_path)
    prefix = make_chain(store)
    store._path(prefix, 7).write_bytes(b"garbage")
    assert store.load(prefix).epochs == 5


def test_chained_link_forks_like_a_cold_run(tmp_path):
    cold = tiny_system()
    cold.run_epochs(TOTAL)
    store = CheckpointStore(tmp_path)
    prefix = make_chain(store)
    forked = restore_system(store.load(prefix, TOTAL))
    forked.run_epochs(TOTAL - 7)
    assert machine_state(forked) == machine_state(cold)

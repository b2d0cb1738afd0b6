"""Fork-equals-cold: warm-started runs are byte-identical to cold runs.

The checkpoint subsystem's contract (DESIGN.md §8) is that forking a
measurement run from a warm-up snapshot produces the same bytes as
simulating the whole run cold.  These tests drive each figure three
times — cold, warm-populating (simulates the warm-up, writes the
checkpoint, continues), and warm-restoring (forks from the stored
snapshot) — and require all three reports identical.  fig07 covers the
multi-system case: one ``run()`` builds six systems (mechanism x mix),
so a single invocation exercises six distinct warm-up prefixes.
"""

import pytest

from repro.experiments import (
    fig05_proportional,
    fig06_work_conserving,
    fig07_source_and_target,
)
from repro.experiments.common import config_overrides, warm_start
from repro.runner.checkpoint import CheckpointStore

MODULES = [fig05_proportional, fig06_work_conserving, fig07_source_and_target]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_warm_started_report_is_byte_identical(module, tmp_path):
    cold = module.run(quick=True, seed=0).report()
    store = CheckpointStore(tmp_path)
    with warm_start(store):
        populating = module.run(quick=True, seed=0).report()
        assert len(store) > 0, "populating run stored no checkpoint"
        restoring = module.run(quick=True, seed=0).report()
    assert populating == cold, (
        "checkpoint-populating run diverged from the cold run; splitting "
        "the warm-up from the measurement phase is not bit-transparent"
    )
    assert restoring == cold, (
        "checkpoint-restored run diverged from the cold run; snapshot/"
        "restore loses or perturbs simulator state"
    )


def test_distinct_seeds_do_not_share_checkpoints(tmp_path):
    store = CheckpointStore(tmp_path)
    with warm_start(store):
        fig05_proportional.run(quick=True, seed=0)
        seed1 = fig05_proportional.run(quick=True, seed=1).report()
    # the seed is part of the warm-up prefix: two seeds, two checkpoints
    assert len(store) == 2
    assert seed1 == fig05_proportional.run(quick=True, seed=1).report()


def test_measurement_knob_shares_one_checkpoint(tmp_path):
    """fig05's measure_epochs cells share a warm-up prefix."""
    store = CheckpointStore(tmp_path)
    with warm_start(store):
        fig05_proportional.run(quick=True, seed=0, measure_epochs=15)
        fig05_proportional.run(quick=True, seed=0, measure_epochs=30)
    assert len(store) == 1


# ----------------------------------------------------------------------
# chained warm start: cells fork from the longest link that fits them
# ----------------------------------------------------------------------
#: Short epochs keep each chained fig05 cell to a few milliseconds; the
#: chain logic is scale-free.  Quick fig05 warms up for 25 epochs.
CHAIN_OVERRIDES = {"epoch_cycles": 400}
QUICK_WARMUP = 25


def _fig05(measure_epochs, seed=0):
    with config_overrides(**CHAIN_OVERRIDES):
        return fig05_proportional.run(
            quick=True, seed=seed, measure_epochs=measure_epochs
        ).report()


@pytest.fixture
def restored_links(monkeypatch):
    """Epoch counts of the links restored, in restore order."""
    import repro.runner.checkpoint as ckpt

    restored: list[int] = []
    original = ckpt.restore_system

    def recording_restore(checkpoint):
        restored.append(checkpoint.epochs)
        return original(checkpoint)

    monkeypatch.setattr(ckpt, "restore_system", recording_restore)
    return restored


def _links(store):
    return sorted(
        int(path.stem.rpartition("-")[2])
        for path in store.directory.glob("*.ckpt")
    )


def test_every_chained_cell_matches_its_cold_run(tmp_path, restored_links):
    lengths = [5, 9, 14]
    cold = [_fig05(length) for length in lengths]
    store = CheckpointStore(tmp_path)
    with warm_start(store, snapshot_end=True):
        chained = [_fig05(length) for length in lengths]
    assert chained == cold
    # each cell forked from its predecessor's end, not from the warm-up
    assert restored_links == [QUICK_WARMUP + 5, QUICK_WARMUP + 9]
    assert _links(store) == [QUICK_WARMUP] + [QUICK_WARMUP + n for n in lengths]


def test_shorter_cell_never_forks_from_a_longer_link(tmp_path, restored_links):
    store = CheckpointStore(tmp_path)
    with warm_start(store, snapshot_end=True):
        _fig05(8)  # stores links 25 and 33
        _fig05(20)  # forks from 33, stores 45
    assert _links(store) == [25, 33, 45]
    restored_links.clear()
    with warm_start(store):
        short = _fig05(4)  # 29 epochs: only the warm-up fits
        middle = _fig05(12)  # 37 epochs: the 33-epoch link fits
    assert restored_links == [25, 33]
    assert short == _fig05(4)
    assert middle == _fig05(12)


def test_different_seed_never_restores_another_prefixs_links(
    tmp_path, restored_links
):
    store = CheckpointStore(tmp_path)
    with warm_start(store, snapshot_end=True):
        _fig05(5, seed=0)
        _fig05(10, seed=0)
    assert restored_links == [30]
    restored_links.clear()
    with warm_start(store, snapshot_end=True):
        seed1 = _fig05(10, seed=1)
    # seed 1 finds none of seed 0's links: it simulates its own warm-up
    # (fig05's streams draw no random numbers, so the report alone could
    # not tell a wrong fork; the restore record does)
    assert restored_links == []
    assert seed1 == _fig05(10, seed=1)
    assert _links(store) == [25, 25, 30, 35, 35]

"""The runner's tolerated I/O failures must be counted, not swallowed.

Four sites in :mod:`repro.runner.cache` and :mod:`repro.runner.checkpoint`
historically did ``except OSError: pass``; they now route through
:func:`repro.obs.warnings.obs_warn`, which logs and bumps a named counter
that ``repro cache --stats`` reports.  These tests force each failure
twice over: by monkeypatching the failing call (works everywhere, even
as root) and by a read-only store directory (skipped under root, where
permission bits do not apply).
"""

import logging
import os
from pathlib import Path

import pytest

from repro.obs.warnings import reset_warning_counters, warning_counts
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import (
    Checkpoint,
    CHECKPOINT_VERSION,
    CheckpointStore,
)
from repro.runner.spec import RunSpec

requires_permission_bits = pytest.mark.skipif(
    os.geteuid() == 0, reason="root bypasses directory permission bits"
)


@pytest.fixture(autouse=True)
def isolated_counters():
    reset_warning_counters()
    yield
    reset_warning_counters()


def store_result(cache, seed=0):
    spec = RunSpec(figure="fig05", seed=seed)
    cache.store(spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True})
    return spec


def make_checkpoint(warmup=1):
    import repro.runner.checkpoint as checkpoint_module

    return Checkpoint(
        prefix_hash=f"{warmup:016x}",
        payload=b"payload",
        boundary_cycle=100,
        epochs=warmup,
        request_id_watermark=10,
        fingerprint=checkpoint_module.source_fingerprint(),
        version=CHECKPOINT_VERSION,
    )


class TestResultCacheWarnings:
    def test_utime_failure_counts_and_logs(self, tmp_path, monkeypatch, caplog):
        cache = ResultCache(tmp_path / "cache")
        spec = store_result(cache)

        def broken_utime(*args, **kwargs):
            raise OSError("read-only store")

        monkeypatch.setattr(os, "utime", broken_utime)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            assert cache.load(spec.spec_hash(), "f" * 16) == {"ok": True}
        assert warning_counts() == {"cache.utime_failed": 1}
        assert "could not refresh recency" in caplog.text

    def test_evict_unlink_failure_counts(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache", max_entries=1)
        store_result(cache, seed=0)

        original_unlink = Path.unlink

        def broken_unlink(self, *args, **kwargs):
            if self.suffix == ".json":
                raise OSError("permission denied")
            return original_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", broken_unlink)
        store_result(cache, seed=1)  # beyond the cap -> eviction attempt
        assert warning_counts() == {"cache.evict_unlink_failed": 1}

    @requires_permission_bits
    def test_read_only_store_still_serves_hits(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        spec = store_result(cache)
        directory.chmod(0o555)
        try:
            assert cache.load(spec.spec_hash(), "f" * 16) == {"ok": True}
        finally:
            directory.chmod(0o755)
        assert warning_counts() == {"cache.utime_failed": 1}


class TestCheckpointStoreWarnings:
    def test_utime_failure_counts_and_logs(self, tmp_path, monkeypatch, caplog):
        store = CheckpointStore(tmp_path)
        checkpoint = make_checkpoint()
        store.save(checkpoint)

        def broken_utime(*args, **kwargs):
            raise OSError("read-only store")

        monkeypatch.setattr(os, "utime", broken_utime)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            loaded = store.load(checkpoint.prefix_hash)
        assert loaded is not None and loaded.payload == b"payload"
        assert warning_counts() == {"checkpoint.utime_failed": 1}

    def test_evict_unlink_failure_counts(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path, max_entries=1)
        store.save(make_checkpoint(warmup=1))

        original_unlink = Path.unlink

        def broken_unlink(self, *args, **kwargs):
            if self.suffix == ".ckpt":
                raise OSError("permission denied")
            return original_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", broken_unlink)
        store.save(make_checkpoint(warmup=2))
        assert warning_counts() == {"checkpoint.evict_unlink_failed": 1}

    @requires_permission_bits
    def test_read_only_store_still_serves_hits(self, tmp_path):
        directory = tmp_path / "checkpoints"
        store = CheckpointStore(directory)
        checkpoint = make_checkpoint()
        store.save(checkpoint)
        directory.chmod(0o555)
        try:
            assert store.load(checkpoint.prefix_hash) is not None
        finally:
            directory.chmod(0o755)
        assert warning_counts() == {"checkpoint.utime_failed": 1}

"""Tests for the sweep pool: caching, isolation, and parallel dispatch."""

import multiprocessing
import os
import signal

import pytest

from repro.runner.cache import ResultCache
from repro.runner.fingerprint import source_fingerprint
from repro.runner.pool import run_specs
from repro.runner.spec import RunSpec, specs_for_figure
from repro.runner.worker import execute_spec, figure_module


class TestSequentialSweep:
    def test_runs_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig05", quick=True)[:1]
        outcomes = run_specs(specs, workers=1, cache=cache)
        assert [o.ok for o in outcomes] == [True]
        assert not outcomes[0].cached
        assert outcomes[0].result["events"] > 0
        assert outcomes[0].result["report"].startswith("Fig. 5")
        assert len(cache) == 1

        again = run_specs(specs, workers=1, cache=cache)
        assert again[0].cached
        assert again[0].result == outcomes[0].result

    def test_no_cache_flag_reruns_but_refreshes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig05", quick=True)[:1]
        run_specs(specs, cache=cache)
        fresh = run_specs(specs, cache=cache, use_cache=False)
        assert not fresh[0].cached
        assert fresh[0].ok

    def test_failure_is_isolated_and_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = specs_for_figure("fig05", quick=True)[0]
        bad = RunSpec(figure="fig99")  # unknown figure fails inside the worker
        outcomes = run_specs([bad, good], cache=cache)
        assert not outcomes[0].ok
        assert "fig99" in outcomes[0].error
        assert outcomes[1].ok
        assert len(cache) == 1  # only the success was stored

    def test_bad_config_override_fails_cleanly(self, tmp_path):
        spec = RunSpec(figure="fig05", overrides={"no_such_field": 1})
        outcomes = run_specs([spec], cache=ResultCache(tmp_path / "c"))
        assert not outcomes[0].ok

    def test_overrides_change_the_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = RunSpec(figure="fig05")
        tweaked = RunSpec(figure="fig05", overrides={"epoch_cycles": 1000})
        outcomes = run_specs([base, tweaked], cache=cache)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].result["report"] != outcomes[1].result["report"]


class TestWarmStartSweep:
    #: Tiny epochs so each cell's simulated window stays in the
    #: milliseconds; the grouping logic under test is scale-free.
    OVERRIDES = {"epoch_cycles": 400}

    def _specs(self, measure_lengths, seed=0):
        return [
            RunSpec(
                figure="fig05",
                cell={"measure_epochs": length},
                seed=seed,
                overrides=self.OVERRIDES,
            )
            for length in measure_lengths
        ]

    def test_group_key_ignores_measurement_knobs(self):
        short, long = self._specs([5, 10])
        assert short.spec_hash() != long.spec_hash()
        assert short.warmup_group_key() == long.warmup_group_key()

    def test_group_key_separates_prefix_changes(self):
        (base,) = self._specs([5])
        (other_seed,) = self._specs([5], seed=1)
        assert base.warmup_group_key() != other_seed.warmup_group_key()
        tweaked = RunSpec(
            figure="fig05",
            cell={"measure_epochs": 5},
            overrides={"epoch_cycles": 800},
        )
        assert base.warmup_group_key() != tweaked.warmup_group_key()

    def test_warm_started_sweep_matches_cold(self, tmp_path):
        specs = self._specs([5, 8, 11])
        cold = run_specs(specs, workers=1)
        warm = run_specs(
            specs, workers=1, warm_start_dir=str(tmp_path / "ckpt")
        )
        assert [o.ok for o in cold] == [True, True, True]
        assert [o.ok for o in warm] == [True, True, True]
        for cold_outcome, warm_outcome in zip(cold, warm):
            assert (
                warm_outcome.result["report"] == cold_outcome.result["report"]
            )
        # all three cells shared one warm-up prefix -> one checkpoint
        from repro.runner.checkpoint import CheckpointStore

        assert len(CheckpointStore(tmp_path / "ckpt")) == 1


class TestParallelSweep:
    def test_two_workers_produce_correct_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig07", quick=True)[:2]
        outcomes = run_specs(specs, workers=2, cache=cache)
        assert [o.ok for o in outcomes] == [True, True]
        # parallel results match what a sequential in-process run reports
        sequential = run_specs(specs, workers=1, cache=cache, use_cache=False)
        for par, seq in zip(outcomes, sequential):
            assert par.result["report"] == seq.result["report"]

    def test_timeout_is_recorded_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig07", quick=True)[:2]
        outcomes = run_specs(specs, workers=2, timeout=0.05, cache=cache)
        assert len(outcomes) == 2
        assert any(not o.ok and "timeout" in o.error for o in outcomes)
        # timed-out cells are never cached
        assert len(cache) <= sum(1 for o in outcomes if o.ok)

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the patched figure reaches pool workers only through fork",
    )
    def test_killed_worker_falls_back_to_in_process_runs(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed worker breaks the pool; every cell still finishes.

        The patched figure kills any process but this one, so both pool
        workers die on their first cell and the pool's BrokenProcessPool
        fallback must run every spec sequentially in this process.
        """
        parent = os.getpid()
        # resolved through the runner's registry, as the workers resolve it
        module = figure_module("fig05")
        real_run = module.run

        def run_or_die(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(module, "run", run_or_die)
        specs = [
            RunSpec(
                figure="fig05",
                cell={"measure_epochs": length},
                overrides={"epoch_cycles": 400},
            )
            for length in (4, 6)
        ]
        cache = ResultCache(tmp_path / "cache")
        messages = []
        outcomes = run_specs(specs, workers=2, cache=cache, progress=messages.append)

        assert any("pool broke" in message for message in messages)
        assert [o.ok for o in outcomes] == [True, True]
        assert len(cache) == len(specs)
        fingerprint = source_fingerprint()
        for spec in specs:
            cached = cache.load(spec.spec_hash(), fingerprint)
            cold = execute_spec(spec)
            assert cached["report"] == cold["report"]
            assert cached["events"] == cold["events"]

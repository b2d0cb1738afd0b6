"""Unit tests for the discrete-event engine."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_runs_callbacks_in_time_order(self):
        engine = Engine()
        order = []
        engine.post(30, order.append, "c")
        engine.post(10, order.append, "a")
        engine.post(20, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.post(7, order.append, tag)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.post(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_schedule_zero_delay_runs_at_current_time(self):
        engine = Engine()
        seen = []
        engine.post(5, lambda: engine.post(0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.post(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        engine = Engine()
        engine.post(10, lambda: None)
        engine.run()
        assert engine.now == 10
        with pytest.raises(SimulationError):
            engine.post_at(5, lambda: None)

    def test_callbacks_receive_args(self):
        engine = Engine()
        result = []
        engine.post(1, lambda a, b: result.append(a + b), 2, 3)
        engine.run()
        assert result == [5]


class TestIntegralDelays:
    """Float cycle values must fail loudly, never silently truncate."""

    def test_fractional_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            engine.post(0.5, lambda: None)  # repro: noqa[SIM001]

    def test_fractional_when_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-integral when"):
            engine.post_at(10.25, lambda: None)  # repro: noqa[SIM001]

    def test_integral_float_accepted(self):
        engine = Engine()
        seen = []
        engine.post(3.0, lambda: seen.append(engine.now))  # repro: noqa[SIM001]
        engine.run()
        assert seen == [3]

    def test_numpy_integer_accepted(self):
        import numpy as np

        engine = Engine()
        seen = []
        engine.post(np.int64(4), lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4]

    def test_fractional_never_truncates_to_reordering(self):
        """The historic failure: int(0.5) -> 0 reordered events."""
        engine = Engine()
        engine.post(1, lambda: None)
        with pytest.raises(SimulationError):
            engine.post(0.5, lambda: None)  # repro: noqa[SIM001]


class TestRunUntil:
    def test_run_until_stops_at_deadline(self):
        engine = Engine()
        fired = []
        engine.post(10, fired.append, "early")
        engine.post(100, fired.append, "late")
        engine.run_until(50)
        assert fired == ["early"]
        assert engine.now == 50
        engine.run_until(150)
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self):
        engine = Engine()
        engine.run_until(123)
        assert engine.now == 123

    def test_event_exactly_at_deadline_fires(self):
        engine = Engine()
        fired = []
        engine.post(50, fired.append, True)
        engine.run_until(50)
        assert fired == [True]

    def test_clock_lands_on_deadline_when_queue_drains_early(self):
        """All events fire well before the deadline; the clock must still
        end exactly at the deadline so callers can chain run_until calls."""
        engine = Engine()
        fired = []
        engine.post(3, fired.append, "a")
        engine.post(7, fired.append, "b")
        engine.run_until(1_000)
        assert fired == ["a", "b"]
        assert engine.now == 1_000
        assert engine.pending_events == 0


class TestRun:
    def test_returns_dispatch_count(self):
        engine = Engine()
        for _ in range(7):
            engine.post(1, lambda: None)
        assert engine.run() == 7

    def test_leaves_clock_at_last_dispatched_cycle(self):
        engine = Engine()
        engine.post(10, lambda: None)
        engine.post(5_000, lambda: None)  # beyond the wheel window
        assert engine.run() == 2
        assert engine.now == 5_000
        assert engine.pending_events == 0

    def test_late_phase_entry_is_the_last_dispatched(self):
        engine = Engine()
        order = []
        engine.post(7, order.append, "ordinary")
        engine.post_late_at(9, order.append, "late")
        assert engine.run() == 2
        assert order == ["ordinary", "late"]
        assert engine.now == 9

    def test_empty_queue_leaves_clock_alone(self):
        engine = Engine()
        engine.run_until(40)
        assert engine.run() == 0
        assert engine.now == 40


class TestRng:
    def test_same_name_same_stream(self):
        a = Engine(seed=7).rng("x").integers(0, 1 << 30, 10)
        b = Engine(seed=7).rng("x").integers(0, 1 << 30, 10)
        assert list(a) == list(b)

    def test_different_names_different_streams(self):
        engine = Engine(seed=7)
        a = engine.rng("x").integers(0, 1 << 30, 10)
        b = engine.rng("y").integers(0, 1 << 30, 10)
        assert list(a) != list(b)

    def test_different_seeds_different_streams(self):
        a = Engine(seed=1).rng("x").integers(0, 1 << 30, 10)
        b = Engine(seed=2).rng("x").integers(0, 1 << 30, 10)
        assert list(a) != list(b)

    def test_rng_cached_per_name(self):
        engine = Engine()
        assert engine.rng("x") is engine.rng("x")

    def test_stream_independent_of_creation_order(self):
        e1 = Engine(seed=3)
        e1.rng("a")
        v1 = e1.rng("b").integers(0, 1 << 30, 5)
        e2 = Engine(seed=3)
        v2 = e2.rng("b").integers(0, 1 << 30, 5)
        assert list(v1) == list(v2)


class TestRngCrossProcessStability:
    """Named streams must not depend on the process's string-hash salt.

    The seed derivation once used ``abs(hash(name))``, which varies with
    ``PYTHONHASHSEED`` — every worker process silently got different
    streams.  Spawn subprocesses with different hash seeds and require
    identical draws.
    """

    SNIPPET = (
        "from repro.sim.engine import Engine;"
        "print(list(Engine(seed=7).rng('core.0').integers(0, 1 << 30, 8)))"
    )

    def _draws(self, hash_seed: str) -> str:
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout.strip()

    def test_streams_identical_across_hash_seeds(self):
        draws = {self._draws(seed) for seed in ("0", "1", "424242")}
        assert len(draws) == 1, f"streams diverged across processes: {draws}"

    def test_subprocess_matches_in_process(self):
        expected = list(Engine(seed=7).rng("core.0").integers(0, 1 << 30, 8))
        assert self._draws("0") == str(expected)


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_events_dispatch_in_nondecreasing_time(delays):
    engine = Engine()
    seen = []
    for delay in delays:
        engine.post(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


class TestPendingEvents:
    def test_posts_count_as_pending_until_dispatched(self):
        engine = Engine()
        engine.post(3, lambda: None)
        engine.post_at(7, lambda: None)
        assert engine.pending_events == 2
        engine.run_until(5)
        assert engine.pending_events == 1
        engine.run_until(10)
        assert engine.pending_events == 0


class TestPost:
    """Chained and late entries must order exactly like plain posts."""

    def test_post_interleaves_with_chains_by_insertion_order(self):
        engine = Engine()
        order = []
        engine.post(5, order.append, "post-a")
        engine.post_chain_at(5, order.append, ("chain-b",), 2, order.append, ("link-b",))
        engine.post_at(5, order.append, "post-c")
        engine.post(7, order.append, "post-d")
        engine.run()
        # the link is inserted when chain-b returns: after post-d
        assert order == ["post-a", "chain-b", "post-c", "post-d", "link-b"]

    def test_post_counts_in_dispatch_totals(self):
        engine = Engine()
        engine.post(1, lambda: None)
        engine.post_chain_at(2, lambda: None, (), 1, lambda: None, ())
        assert engine.run() == 3
        assert engine.dispatched == 3

    def test_post_rejects_negative_delay_and_past_timestamps(self):
        engine = Engine()
        engine.run_until(10)
        with pytest.raises(SimulationError):
            engine.post(-1, lambda: None)
        with pytest.raises(SimulationError):
            engine.post_at(9, lambda: None)

    def test_post_rejects_fractional_delay(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.post(0.5, lambda: None)  # repro: noqa[SIM001]

    def test_overflow_entry_keeps_its_place_after_an_idle_run_until(self):
        """An idle ``run_until`` slides the window over an overflow entry;
        a later post for the same cycle must still dispatch after it."""
        engine = Engine()
        order = []
        engine.post(5_000, order.append, "first")  # overflow heap
        engine.run_until(2_000)  # wheel empty: nothing dispatches
        engine.post_at(5_000, order.append, "second")
        engine.run_until(6_000)
        assert order == ["first", "second"]

"""Unit tests for the memcached transaction proxy."""

import pytest

from repro.cpu.model import Core
from repro.sim.engine import Engine
from repro.workloads.memcached import MemcachedWorkload


def drive(workload, latency=100):
    """Drive the workload on a real core with constant memory latency."""
    engine = Engine()
    core = Core(
        engine=engine,
        core_id=0,
        qos_id=0,
        workload=workload,
        access_fn=lambda core, access, done: engine.post(latency, done),
        on_instructions=lambda qos, count: None,
    )
    core.start()
    engine.run()
    return engine, core


class TestTransactions:
    def test_runs_exactly_requested_transactions(self):
        workload = MemcachedWorkload(transactions=20, warmup_transactions=5)
        drive(workload)
        assert workload.completed_transactions == 25
        assert len(workload.service_times) == 20

    def test_warmup_excluded_from_service_times(self):
        workload = MemcachedWorkload(transactions=10, warmup_transactions=10)
        drive(workload)
        assert len(workload.service_times) == 10

    def test_service_time_scales_with_memory_latency(self):
        fast = MemcachedWorkload(transactions=30, warmup_transactions=2)
        slow = MemcachedWorkload(transactions=30, warmup_transactions=2)
        drive(fast, latency=100)
        drive(slow, latency=500)
        mean_fast = sum(fast.service_times) / len(fast.service_times)
        mean_slow = sum(slow.service_times) / len(slow.service_times)
        assert mean_slow > 2 * mean_fast

    def test_service_time_excludes_think_time(self):
        compute = 10
        workload = MemcachedWorkload(
            transactions=10,
            warmup_transactions=0,
            min_chain=2,
            max_chain=2,
            compute_per_access=compute,
            think_time=10_000,
        )
        drive(workload, latency=50)
        # chain of 3 accesses: first issues after think (excluded), the
        # other two each cost compute + latency
        expected = 50 + 2 * (compute + 50)
        assert all(t == expected for t in workload.service_times)

    def test_unlimited_transactions_until_engine_stops(self):
        workload = MemcachedWorkload(transactions=None, warmup_transactions=0)
        engine = Engine()
        core = Core(
            engine=engine,
            core_id=0,
            qos_id=0,
            workload=workload,
            access_fn=lambda core, access, done: engine.post(100, done),
            on_instructions=lambda qos, count: None,
        )
        core.start()
        engine.run_until(200_000)
        assert workload.completed_transactions > 50
        assert not core.done

    def test_addresses_split_hash_and_value_regions(self):
        workload = MemcachedWorkload(
            transactions=50,
            warmup_transactions=0,
            hash_table_bytes=1 << 20,
            value_region_bytes=1 << 20,
        )
        drive(workload)
        # with min_chain >= 1 some accesses must land in each region
        assert workload.completed_transactions == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            MemcachedWorkload(transactions=0)
        with pytest.raises(ValueError):
            MemcachedWorkload(warmup_transactions=-1)
        with pytest.raises(ValueError):
            MemcachedWorkload(min_chain=3, max_chain=2)

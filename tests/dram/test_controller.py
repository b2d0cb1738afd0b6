"""Unit tests for the memory controller."""

import dataclasses

import pytest

from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.stats import Stats
from repro.sim.topology import AddressMap


def make_mc(config=None, seed=0, engine=None):
    config = config or SystemConfig.small_test()
    engine = engine if engine is not None else Engine(seed)
    stats = Stats()
    address_map = AddressMap(config, num_slices=config.cores)
    controller = MemoryController(engine, 0, config, address_map, stats)
    return engine, controller, stats, config


def read_req(addr, qos_id=0, created=0):
    req = MemoryRequest(addr=addr, access=AccessType.READ, qos_id=qos_id, core_id=0)
    req.created_at = created
    req.released_at = created
    return req


def write_req(addr, qos_id=0, created=0):
    req = MemoryRequest(
        addr=addr, access=AccessType.WRITEBACK, qos_id=qos_id, core_id=0
    )
    req.created_at = created
    req.released_at = created
    return req


def check_read_completing_beyond_the_wheel_window(engine):
    """Bank timings past the 4096-cycle wheel window put the completion
    on the overflow heap; it must still complete the request."""
    slow = dataclasses.replace(
        SystemConfig.small_test(), dram=DramTiming(t_rcd=3000, t_cl=2000)
    )
    engine, mc, stats, config = make_mc(config=slow, engine=engine)
    done = []
    mc.on_read_complete = done.append
    req = read_req(0x40)
    mc.try_enqueue(req)
    assert engine.run() == 3  # pass, completion, drained pass
    assert done == [req]
    assert req.completed_at == engine.now == 3000 + 2000 + config.dram.t_burst
    assert stats.class_stats(0).reads_completed == 1


class TestEnqueue:
    def test_accepts_until_capacity(self):
        engine, mc, stats, config = make_mc()
        for i in range(config.frontend_read_queue):
            assert mc.try_enqueue(read_req(i * 64))
        assert not mc.try_enqueue(read_req(0x999940))
        assert mc.rejects == 1
        assert stats.requests_rejected == 1

    def test_write_queue_separate_capacity(self):
        engine, mc, stats, config = make_mc()
        for i in range(config.frontend_write_queue):
            assert mc.try_enqueue(write_req(i * 64))
        assert not mc.try_enqueue(write_req(0x999940))
        # reads still accepted
        assert mc.try_enqueue(read_req(0x40))

    def test_enqueue_stamps_routing_fields(self):
        engine, mc, stats, config = make_mc()
        req = read_req(0x12340)
        mc.try_enqueue(req)
        assert req.arrived_mc_at == 0
        assert req.mc_id == 0
        assert 0 <= req.bank_id < config.banks_per_mc
        assert req.row_id >= 0


class TestServiceLifecycle:
    def test_read_completes_and_calls_back(self):
        engine, mc, stats, config = make_mc()
        done = []
        mc.on_read_complete = done.append
        req = read_req(0x40)
        mc.try_enqueue(req)
        engine.run()
        assert done == [req]
        assert req.issued_at >= 0
        assert req.completed_at >= req.issued_at + config.dram.t_burst
        assert stats.class_stats(0).bytes_read == req.size

    def test_isolated_read_latency_is_prep_plus_burst(self):
        engine, mc, stats, config = make_mc()
        req = read_req(0x40)
        mc.try_enqueue(req)
        engine.run()
        expected = config.dram.access_prep(False) + config.dram.t_burst
        assert req.completed_at == expected

    def test_read_completing_beyond_the_wheel_window(self):
        check_read_completing_beyond_the_wheel_window(Engine(0))

    def test_many_reads_all_complete(self):
        engine, mc, stats, config = make_mc()
        count = config.frontend_read_queue
        for i in range(count):
            mc.try_enqueue(read_req(i * 64))
        engine.run()
        assert stats.class_stats(0).reads_completed == count

    def test_bus_serializes_transfers(self):
        """Total time for N reads is bounded below by N bursts."""
        engine, mc, stats, config = make_mc()
        count = 8
        for i in range(count):
            mc.try_enqueue(read_req(i * 64))
        engine.run()
        assert engine.now >= count * config.dram.t_burst
        assert stats.bus_busy_cycles == count * config.dram.t_burst

    def test_no_stall_with_queued_work(self):
        """The controller must drain any backlog without external kicks."""
        engine, mc, stats, config = make_mc()
        total = config.frontend_read_queue + config.frontend_write_queue
        for i in range(config.frontend_read_queue):
            mc.try_enqueue(read_req(i * 64))
        for i in range(config.frontend_write_queue):
            mc.try_enqueue(write_req((1000 + i) * 64))
        engine.run()
        assert mc.queued_reads == 0 and mc.queued_writes == 0
        assert stats.requests_enqueued == total


class TestWriteHandling:
    def test_writes_drain_when_no_reads(self):
        engine, mc, stats, config = make_mc()
        mc.try_enqueue(write_req(0x40))
        engine.run()
        assert stats.class_stats(0).writes_completed == 1

    def test_write_drain_mode_toggles_on_watermarks(self):
        engine, mc, stats, config = make_mc()
        # reach the high watermark: drain mode engages during the pass
        for i in range(config.write_high_watermark):
            mc.try_enqueue(write_req(i * 64))
        engine.run_until(1)
        assert mc.draining_writes or mc.queued_writes < config.write_high_watermark
        engine.run()
        assert mc.queued_writes == 0
        assert not mc.draining_writes

    def test_reads_priority_over_writes_below_watermark(self):
        engine, mc, stats, config = make_mc()
        write = write_req(0x5040)
        read = read_req(0x40)
        mc.try_enqueue(write)
        mc.try_enqueue(read)
        engine.run()
        assert read.issued_at <= write.issued_at


class TestOccupancySampling:
    def test_average_occupancy_integrates_over_time(self):
        engine, mc, stats, config = make_mc()
        # hold several reads; sample after service completes
        for i in range(4):
            mc.try_enqueue(read_req(i * 64))
        engine.run()
        occupancy = mc.sample_read_occupancy()
        assert occupancy > 0.0
        # window reset: immediately resampling an idle controller gives ~0
        engine.post(100, lambda: None)
        engine.run()
        assert mc.sample_read_occupancy() == pytest.approx(0.0)

    def test_empty_controller_samples_zero(self):
        engine, mc, stats, config = make_mc()
        engine.post(10, lambda: None)
        engine.run()
        assert mc.sample_read_occupancy() == 0.0


class TestSpaceListeners:
    def test_listener_fires_when_read_slot_frees(self):
        engine, mc, stats, config = make_mc()
        notifications = []
        mc.add_space_listener(notifications.append)
        for i in range(config.frontend_read_queue):
            mc.try_enqueue(read_req(i * 64))
        engine.run()
        assert notifications, "expected space notifications"
        assert all(mc_id == 0 for mc_id in notifications)


class TestActivityAccounting:
    def test_active_cycles_cover_service_time(self):
        engine, mc, stats, config = make_mc()
        mc.try_enqueue(read_req(0x40))
        engine.run()
        mc.finalize()
        assert mc.active_cycles == config.dram.access_prep(False) + config.dram.t_burst
        assert stats.mc_active_cycles == mc.active_cycles

    def test_efficiency_high_for_saturating_stream(self):
        # needs enough banks that the bus, not bank recovery, is the limit
        engine, mc, stats, config = make_mc(
            config=SystemConfig.default_experiment(cores=2, num_mcs=1)
        )

        # closed feedback loop: keep the queue topped up for a while
        state = {"sent": 0}

        def feed():
            while state["sent"] < 200 and mc.try_enqueue(
                read_req(state["sent"] * 64)
            ):
                state["sent"] += 1
            if state["sent"] < 200:
                engine.post(20, feed)

        feed()
        engine.run()
        mc.finalize()
        assert stats.memory_efficiency() > 0.7


class TestBusGate:
    """Issue is gated so bus slots are never reserved far ahead of service."""

    def test_issue_waits_for_bus_backlog_to_shrink(self):
        engine, mc, stats, config = make_mc()
        # synthetic backlog: the bus is booked well past the prep time
        backlog_end = 500
        mc.bus.reserve(backlog_end - config.dram.t_burst)
        req = read_req(0x40)
        mc.try_enqueue(req)
        engine.run()
        prep = config.dram.access_prep(row_hit=False)
        # the request must not have been issued before the gate opened
        assert req.issued_at >= backlog_end - prep
        assert req.completed_at >= backlog_end

    def test_gate_does_not_starve_with_continuous_backlog(self):
        engine, mc, stats, config = make_mc()
        for i in range(6):
            mc.try_enqueue(read_req(i * 64))
        engine.run()
        assert stats.class_stats(0).reads_completed == 6

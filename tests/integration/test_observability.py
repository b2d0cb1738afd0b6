"""Integration tests for the observability layer on a live System.

Covers the three obs surfaces end to end: the counter registry hung off
``System.obs``, the request tracer wired through engine/pacer/controller
hook sites, and epoch metric sinks fed by ``Stats.close_epoch`` — plus
the contracts that matter across features: byte-identical results with
obs disabled, and checkpoint round-trips that keep registry state.
"""

import pytest

from repro.core.pabst import PabstMechanism
from repro.obs.streams import MemorySink
from repro.obs.trace import RequestTracer, validate_chrome_trace
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload


def make_system(mechanism=None, tracer=None, cores=2):
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3)
    registry.define_class(1, "lo", weight=1)
    workloads = {}
    for core in range(cores):
        registry.assign_core(core, 0 if core < cores // 2 else 1)
        workloads[core] = StreamWorkload()
    return System(
        SystemConfig.small_test(),
        registry,
        workloads,
        mechanism=mechanism,
        tracer=tracer,
    )


class TestRegistry:
    def test_every_system_exposes_a_registry(self):
        system = make_system()
        assert "stats.requests_enqueued" in system.obs
        assert "mc0.queue_depth" in system.obs
        assert "mshr.c0.outstanding" in system.obs
        assert "l2.c0.misses" in system.obs

    def test_counters_track_a_run(self):
        system = make_system()
        system.run_epochs(3)
        counters = system.obs.counters()
        assert counters["stats.requests_enqueued"] > 0
        accepted = sum(
            value for name, value in counters.items()
            if name.endswith("reads_accepted")
        )
        assert accepted > 0
        assert counters["l2.c0.misses"] > 0

    def test_pabst_mechanism_registers_its_metrics(self):
        system = make_system(mechanism=PabstMechanism())
        names = set(system.obs.names())
        assert "pacer.c0.released" in names
        assert "pacer.c0.tokens_stalled" in names
        assert "governor.c0.multiplier" in names
        assert "governor.c0.epochs" in names
        assert "arbiter.mc0.deadline_inversions" in names
        system.run_epochs(3)
        counters = system.obs.counters()
        assert counters["pacer.c0.released"] > 0
        assert counters["governor.c0.epochs"] == 3

    def test_registry_snapshot_survives_checkpoint(self, tmp_path):
        from repro.runner.checkpoint import restore_system, snapshot_system

        system = make_system(mechanism=PabstMechanism())
        system.run_epochs(2)
        before = system.obs.snapshot()
        assert before["counters"]["stats.requests_enqueued"] > 0
        checkpoint = snapshot_system(system, epochs=2, prefix_hash="x")
        restored = restore_system(checkpoint)
        # restored counters resume from the snapshot, not from zero
        assert restored.obs.snapshot() == before
        restored.run_epochs(1)
        after = restored.obs.counters()
        assert (
            after["stats.requests_enqueued"]
            > before["counters"]["stats.requests_enqueued"]
        )


class TestTracer:
    def test_traced_run_records_full_lifecycles(self):
        tracer = RequestTracer(capacity=1 << 20)
        system = make_system(tracer=tracer)
        system.run_epochs(2)
        assert system.engine.tracer is tracer
        assert tracer.recorded > 0 and tracer.dropped == 0
        by_req = {}
        for stage, req_id, *_ in tracer.transitions():
            by_req.setdefault(req_id, []).append(stage)
        # at least one demand read walked every stage in order
        assert any(stages == [0, 1, 2, 3, 4] for stages in by_req.values())
        doc = tracer.to_chrome_trace()
        assert validate_chrome_trace(doc) > 0
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"pacer", "queue", "service"} <= names

    def test_untraced_system_has_no_tracer(self):
        assert make_system().engine.tracer is None

    def test_tracing_does_not_change_results(self):
        plain = make_system()
        plain.run_epochs(4)
        traced = make_system(tracer=RequestTracer())
        traced.run_epochs(4)
        assert [s.bytes_by_class for s in plain.stats.epochs] == [
            s.bytes_by_class for s in traced.stats.epochs
        ]

    def test_shared_tracer_across_systems_never_collides(self):
        # request ids are process-global, so two systems feeding one
        # tracer interleave cleanly (the fig modules rely on this)
        tracer = RequestTracer(capacity=1 << 20)
        for _ in range(2):
            make_system(tracer=tracer).run_epochs(1)
        doc = tracer.to_chrome_trace()
        assert validate_chrome_trace(doc) > 0


class TestEpochSinks:
    def test_sink_sees_one_record_per_epoch(self):
        system = make_system()
        sink = MemorySink()
        system.stats.add_sink(sink)
        system.run_epochs(3)
        assert len(sink) == 3
        assert [r["epoch"] for r in sink.samples] == [0, 1, 2]
        assert all(r["cycles"] > 0 for r in sink.samples)

    def test_pabst_multiplier_reaches_the_stream(self):
        system = make_system(mechanism=PabstMechanism())
        sink = MemorySink()
        system.stats.add_sink(sink)
        system.run_epochs(2)
        assert all(r["multiplier"] is not None for r in sink.samples)


class TestDisabledModeIsFree:
    def test_reports_identical_with_and_without_obs_consumers(self):
        # sampling the registry reads attributes components maintain
        # anyway; a run that is never sampled must be byte-identical
        sampled = make_system(mechanism=PabstMechanism())
        sampled.run_epochs(3)
        _ = sampled.obs.snapshot()
        plain = make_system(mechanism=PabstMechanism())
        plain.run_epochs(3)
        assert [s.bytes_by_class for s in sampled.stats.epochs] == [
            s.bytes_by_class for s in plain.stats.epochs
        ]


class TestSanitizerStatsInvariants:
    def make_sanitized_system(self):
        registry = QoSRegistry()
        registry.define_class(0, "hi", weight=3)
        registry.define_class(1, "lo", weight=1)
        registry.assign_core(0, 0)
        registry.assign_core(1, 1)
        return System(
            SystemConfig.small_test(),
            registry,
            {0: StreamWorkload(), 1: StreamWorkload()},
            sanitize=True,
        )

    def test_healthy_run_passes_run_end_stats_checks(self):
        system = self.make_sanitized_system()
        system.run_epochs(2)
        system.finalize()  # raises on any invariant violation
        for cls in system.stats.classes.values():
            assert cls.reads_unattributed == 0
            assert cls.reads_attributed + cls.reads_unattributed == (
                cls.reads_completed
            )

    def test_unattributed_read_trips_sanitizer(self):
        from repro.sim.engine import SimulationError
        from repro.sim.records import AccessType, MemoryRequest
        from repro.sim.sanitizer import SimSanitizer
        from repro.sim.stats import Stats

        stats = Stats()
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        req.created_at, req.completed_at = 0, 10  # no intermediate stamps
        stats.record_completion(req)
        with pytest.raises(SimulationError, match="partial lifecycle stamps"):
            SimSanitizer().on_run_end(stats)

    def test_bus_exceeding_active_trips_sanitizer(self):
        from repro.sim.engine import SimulationError
        from repro.sim.sanitizer import SimSanitizer
        from repro.sim.stats import Stats

        stats = Stats()
        stats.bus_busy_cycles, stats.mc_active_cycles = 120, 100
        with pytest.raises(SimulationError, match="bus"):
            SimSanitizer().on_run_end(stats)

"""Cross-cutting invariants of full-system runs.

These are the conservation laws a queueing simulator must satisfy no
matter which mechanism is plugged in: bytes in equals bytes accounted, bus
time matches transfers, and the paper's Eq. 5 rate-proportionality holds at
the pacer level.
"""

import pytest

from repro.baselines.source_only import SourceOnlyMechanism
from repro.baselines.target_only import TargetOnlyMechanism
from repro.core.pabst import PabstMechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.mechanism import QoSMechanism
from repro.sim.system import System
from repro.workloads.chaser import ChaserWorkload
from repro.workloads.stream import StreamWorkload

MECHANISMS = [
    QoSMechanism,
    SourceOnlyMechanism,
    TargetOnlyMechanism,
    PabstMechanism,
]


def build(mechanism_factory, workload_factory=StreamWorkload, epochs=30):
    config = SystemConfig.default_experiment(cores=4, num_mcs=2)
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3, l3_ways=8)
    registry.define_class(1, "lo", weight=1, l3_ways=8)
    workloads = {}
    for core in range(4):
        registry.assign_core(core, 0 if core < 2 else 1)
        workloads[core] = workload_factory()
    system = System(config, registry, workloads, mechanism=mechanism_factory())
    system.run_epochs(epochs)
    system.finalize()
    return system


@pytest.mark.parametrize("mechanism_factory", MECHANISMS)
class TestConservation:
    def test_bus_time_matches_transferred_bytes(self, mechanism_factory):
        system = build(mechanism_factory)
        stats = system.stats
        transfers = sum(mc.bus.transfers for mc in system.controllers)
        in_flight = sum(mc.inflight for mc in system.controllers)
        line = system.config.line_bytes
        # issued-but-uncompleted transfers are reserved on the bus but not
        # yet accounted to a class; everything else must match exactly
        gap = transfers * line - stats.total_bytes()
        assert 0 <= gap <= in_flight * line
        assert stats.bus_busy_cycles == transfers * system.config.dram.t_burst

    def test_epoch_bytes_sum_to_total(self, mechanism_factory):
        system = build(mechanism_factory)
        epoch_total = sum(
            sum(sample.bytes_by_class.values())
            for sample in system.stats.epochs
        )
        # requests completing after the last epoch close are the remainder
        assert epoch_total <= system.stats.total_bytes()
        assert system.stats.total_bytes() - epoch_total < 64 * 200

    def test_reads_completed_match_controller_accepts(self, mechanism_factory):
        system = build(mechanism_factory)
        accepted = sum(mc.reads_accepted for mc in system.controllers)
        completed = sum(
            cls.reads_completed for cls in system.stats.classes.values()
        )
        in_flight = sum(mc.inflight for mc in system.controllers)
        assert completed <= accepted
        assert accepted - completed <= in_flight + 64

    def test_efficiency_is_a_fraction(self, mechanism_factory):
        system = build(mechanism_factory)
        assert 0.0 < system.stats.memory_efficiency() <= 1.0


class TestProportionality:
    def test_pacer_rates_follow_eq5(self):
        """Pacer target rates stay in weight ratio at every epoch (Eq. 5)."""
        config = SystemConfig.default_experiment(cores=4, num_mcs=2)
        registry = QoSRegistry()
        registry.define_class(0, "hi", weight=3, l3_ways=8)
        registry.define_class(1, "lo", weight=1, l3_ways=8)
        workloads = {}
        for core in range(4):
            registry.assign_core(core, 0 if core < 2 else 1)
            workloads[core] = StreamWorkload()
        mechanism = PabstMechanism()
        system = System(config, registry, workloads, mechanism=mechanism)
        ratios = []

        def probe():
            hi = mechanism.pacers[0].period_cycles
            lo = mechanism.pacers[2].period_cycles
            if hi > 0 and lo > 0:
                ratios.append(lo / hi)
            if system.engine.now < 50_000:
                system.engine.post(config.epoch_cycles, probe)

        system.engine.post(config.epoch_cycles + 1, probe)
        system.run(60_000)
        assert ratios, "expected sampled periods"
        for ratio in ratios:
            assert ratio == pytest.approx(3.0, rel=0.05)

    def test_latency_sensitive_class_profits_from_arbiter(self):
        def chaser_latency(mechanism_factory):
            system = build(
                mechanism_factory,
                workload_factory=lambda: ChaserWorkload(chains=4),
                epochs=40,
            )
            return system.stats.class_stats(0).mean_read_latency

        baseline = chaser_latency(QoSMechanism)
        pabst = chaser_latency(PabstMechanism)
        assert pabst < baseline

"""Simulation kernel: engine, records, stats, topology, config, system."""

from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, SimulationError
from repro.sim.mechanism import QoSMechanism
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.sanitizer import SimSanitizer
from repro.sim.stats import ClassStats, EpochSample, Stats

__all__ = [
    "AccessType", "ClassStats", "Engine", "EpochSample",
    "MemoryRequest", "QoSMechanism", "SimSanitizer", "SimulationError",
    "Stats", "SystemConfig",
]

"""Unit tests for the runtime invariant sanitizer."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.sanitizer import SimSanitizer


def make_request(**overrides) -> MemoryRequest:
    req = MemoryRequest(addr=0x1000, access=AccessType.READ, qos_id=0, core_id=0)
    for name, value in overrides.items():
        setattr(req, name, value)
    return req


class TestEventClock:
    def test_monotone_dispatch_ok(self):
        san = SimSanitizer()
        san.on_event(5, 0)
        san.on_event(5, 5)
        san.on_event(9, 5)

    def test_backwards_dispatch_caught(self):
        san = SimSanitizer()
        san.on_event(10, 0)
        with pytest.raises(SimulationError, match="clock moved backwards"):
            san.on_event(7, 10)

    def test_engine_runs_clean_with_sanitizer(self):
        engine = Engine()
        engine.sanitizer = SimSanitizer()
        fired = []
        engine.post(3, fired.append, "a")
        engine.post(1, fired.append, "b")
        engine.run()
        assert fired == ["b", "a"]
        assert engine.sanitizer.checks > 0


class TestLifecycle:
    def test_ordered_lifecycle_ok(self):
        req = make_request(
            created_at=0, released_at=2, arrived_mc_at=10,
            dispatched_at=12, issued_at=12, completed_at=40,
        )
        assert req.lifecycle_violation() is None

    def test_skipped_stages_ok(self):
        # an L3 hit never reaches a controller
        req = make_request(created_at=0, released_at=2, completed_at=30)
        assert req.lifecycle_violation() is None

    def test_corrupted_order_caught(self):
        san = SimSanitizer()
        req = make_request(created_at=10, released_at=5)
        with pytest.raises(SimulationError, match="lifecycle out of order"):
            san.on_inject(req)

    def test_stage_without_creation_caught(self):
        san = SimSanitizer()
        req = make_request(issued_at=4)
        with pytest.raises(SimulationError, match="never created"):
            san.on_inject(req)

    def test_error_carries_hop_trace(self):
        san = SimSanitizer()
        req = make_request(created_at=10, released_at=12)
        san.on_inject(req)
        req.completed_at = 11  # corrupt after injection
        with pytest.raises(SimulationError) as exc_info:
            san.on_complete(req)
        message = str(exc_info.value)
        assert f"req {req.req_id}" in message
        assert "created=10" in message
        assert "completed=11" in message


class TestConservation:
    def test_inject_complete_balance(self):
        san = SimSanitizer()
        first = make_request(created_at=0)
        second = make_request(created_at=0)
        san.on_inject(first)
        san.on_inject(second)
        first.completed_at = 9
        san.on_complete(first)
        assert san.injected == 2
        assert san.completed == 1
        assert san.in_flight == 1
        san.on_run_end()  # one still legitimately in flight

    def test_double_injection_caught(self):
        san = SimSanitizer()
        req = make_request(created_at=0)
        san.on_inject(req)
        with pytest.raises(SimulationError, match="injected twice"):
            san.on_inject(req)

    def test_unknown_completion_caught(self):
        san = SimSanitizer()
        req = make_request(created_at=0, completed_at=5)
        with pytest.raises(SimulationError, match="never injected"):
            san.on_complete(req)

    def test_double_completion_caught(self):
        san = SimSanitizer()
        req = make_request(created_at=0)
        san.on_inject(req)
        req.completed_at = 5
        san.on_complete(req)
        with pytest.raises(SimulationError):
            san.on_complete(req)

    def test_counter_drift_caught(self):
        san = SimSanitizer()
        req = make_request(created_at=0)
        san.on_inject(req)
        san.injected += 1  # simulate a lost request
        with pytest.raises(SimulationError, match="conservation"):
            san.on_run_end()


class TestDeadlineMonotonicity:
    def accepted(self, san, deadline, qos_id=0, mc_id=0):
        req = make_request(
            created_at=0, released_at=0, arrived_mc_at=1,
            virtual_deadline=deadline, mc_id=mc_id,
        )
        req.qos_id = qos_id
        san.on_accept(req)

    def test_nondecreasing_ok(self):
        san = SimSanitizer()
        self.accepted(san, 100)
        self.accepted(san, 100)
        self.accepted(san, 250)

    def test_regression_caught(self):
        san = SimSanitizer()
        self.accepted(san, 100)
        with pytest.raises(SimulationError, match="deadline regressed"):
            self.accepted(san, 60)

    def test_classes_tracked_independently(self):
        san = SimSanitizer()
        self.accepted(san, 100, qos_id=0)
        self.accepted(san, 30, qos_id=1)  # other class may lag

    def test_controllers_tracked_independently(self):
        san = SimSanitizer()
        self.accepted(san, 100, mc_id=0)
        self.accepted(san, 30, mc_id=1)  # each arbiter has its own clocks

    def test_writes_not_checked(self):
        san = SimSanitizer()
        self.accepted(san, 100)
        wb = make_request(
            created_at=0, released_at=0, arrived_mc_at=1, virtual_deadline=10
        )
        wb.access = AccessType.WRITEBACK
        san.on_accept(wb)  # no EDF invariant on the write path


class TestHopTrace:
    def test_trace_lists_reached_stages_only(self):
        req = make_request(created_at=3, released_at=7)
        trace = req.hop_trace()
        assert "created=3" in trace
        assert "released=7" in trace
        assert "arrived_mc" not in trace

    def test_trace_of_fresh_request(self):
        assert "no timestamps" in make_request().hop_trace()

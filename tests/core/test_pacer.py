"""Unit and property tests for the pacer (Section III-B3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pacer import Pacer
from repro.sim.engine import Engine
from repro.sim.records import AccessType, MemoryRequest


def make_pacer(f_scale=16, burst=16):
    engine = Engine()
    return engine, Pacer(engine, f_scale, burst_requests=burst)


def req(addr=0x40):
    return MemoryRequest(addr=addr, access=AccessType.READ, qos_id=0, core_id=0)


class Collector:
    def __init__(self):
        self.times = []

    def release(self, engine):
        return lambda: self.times.append(engine.now)


class TestUnthrottled:
    def test_zero_period_releases_immediately(self):
        engine, pacer = make_pacer()
        pacer.set_period(0)
        released = Collector()
        for _ in range(5):
            pacer.request(req(), released.release(engine))
        assert released.times == [0] * 5
        assert pacer.released == 5 and pacer.throttled == 0


class TestPacing:
    def test_requests_spaced_by_period(self):
        engine, pacer = make_pacer(f_scale=1)
        pacer.set_period(10)  # 10 cycles between requests
        released = Collector()
        for _ in range(4):
            pacer.request(req(), released.release(engine))
        engine.run()
        # first free (full credit), then spaced as credit burns
        assert released.times[0] == 0
        assert released.times == sorted(released.times)
        assert len(released.times) == 4

    def test_sustained_rate_matches_period(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(10)
        released = Collector()
        for _ in range(20):
            pacer.request(req(), released.release(engine))
        engine.run()
        # with no credit allowance, long-run spacing is the period
        assert released.times[-1] >= 10 * 19 - 10

    def test_fractional_period_accumulates_without_drift(self):
        engine, pacer = make_pacer(f_scale=4, burst=1)
        pacer.set_period(10)  # 2.5 cycles per request
        released = Collector()
        for _ in range(41):
            pacer.request(req(), released.release(engine))
        engine.run()
        # 40 intervals x 2.5 cycles = 100 cycles, exactly
        assert released.times[-1] == 100

    def test_fifo_order_preserved(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(5)
        order = []
        for tag in range(5):
            pacer.request(req(), lambda tag=tag: order.append(tag))
        engine.run()
        assert order == [0, 1, 2, 3, 4]


class TestCredit:
    def test_idle_time_builds_bounded_credit(self):
        engine, pacer = make_pacer(f_scale=1, burst=4)
        pacer.set_period(10)
        engine.post(1000, lambda: None)
        engine.run()  # idle for a long time
        released = Collector()
        for _ in range(8):
            pacer.request(req(), released.release(engine))
        engine.run()
        burst_now = sum(1 for t in released.times if t == 1000)
        # banked credit (4 requests) plus the one currently due
        assert burst_now == 5
        assert max(released.times) > 1000

    def test_credit_cannot_exceed_burst_even_after_undo_storm(self):
        engine, pacer = make_pacer(f_scale=1, burst=2)
        pacer.set_period(10)
        for _ in range(50):
            pacer.uncharge()
        released = Collector()
        for _ in range(6):
            pacer.request(req(), released.release(engine))
        engine.run()
        immediate = sum(1 for t in released.times if t == 0)
        assert immediate <= 3  # 2 credit + the one period boundary at t=0


class TestCacheFilterAccounting:
    def test_uncharge_refunds_a_period(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(10)
        released = Collector()
        pacer.request(req(), released.release(engine))   # consumes credit
        pacer.request(req(), released.release(engine))   # would wait to t=10
        pacer.uncharge()                                 # L3 hit: refund
        engine.run()
        assert released.times == [0, 0]

    def test_writeback_charge_adds_a_period(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(10)
        released = Collector()
        pacer.request(req(), released.release(engine))
        pacer.charge_writeback()
        pacer.request(req(), released.release(engine))
        engine.run()
        assert released.times[1] == 20  # one extra period of delay


class TestPeriodChanges:
    """C_next is an absolute timestamp: a period change from the governor
    affects future charges, not credit already spent (hardware semantics)."""

    def test_new_shorter_period_applies_to_subsequent_charges(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(100)
        released = Collector()
        for _ in range(3):
            pacer.request(req(), released.release(engine))
        engine.run_until(10)
        pacer.set_period(5)
        engine.run()
        # the already-charged period still gates the second request...
        assert released.times[1] == 100
        # ...but the third is spaced by the new, shorter period
        assert released.times[2] == 105

    def test_new_longer_period_applies_to_subsequent_charges(self):
        engine, pacer = make_pacer(f_scale=1, burst=1)
        pacer.set_period(10)
        released = Collector()
        for _ in range(3):
            pacer.request(req(), released.release(engine))
        engine.run_until(2)
        pacer.set_period(100)
        engine.run()
        assert released.times[1] == 10    # old charge
        assert released.times[2] == 110   # new period applied at release

    def test_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            Pacer(engine, 0)
        with pytest.raises(ValueError):
            Pacer(engine, 16, burst_requests=0)
        _, pacer = make_pacer()
        with pytest.raises(ValueError):
            pacer.set_period(-1)


@settings(max_examples=30, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=64),
    count=st.integers(min_value=2, max_value=40),
    burst=st.integers(min_value=1, max_value=8),
)
def test_property_long_run_rate_never_exceeds_allocation(period, count, burst):
    """Within any long window the pacer never over-releases its rate."""
    engine, pacer = make_pacer(f_scale=1, burst=burst)
    pacer.set_period(period)
    released = Collector()
    for _ in range(count):
        pacer.request(req(), released.release(engine))
    engine.run()
    elapsed = max(released.times)
    # releases <= credit burst + elapsed/period + the t=0 release
    assert count <= burst + elapsed / period + 1
    assert released.times == sorted(released.times)

"""Parity properties: the compiled wheel against the pure reference.

Reuses the heap-reference ``Driver`` machinery from the pure wheel's
property test: random ``post``/``post_at``/``post_chain_at``/
``run_until``/``run`` interleavings must produce identical dispatch
logs, clocks, and pending-event counts on the compiled engine —
including a mid-run marshal from the compiled engine to the pure one
(checkpoints are backend-neutral).

``pickle`` here crosses the same boundary checkpoints do; the tests are
outside lint scope (PERF001 confines pickle within ``src/repro``).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.sim.engine import Engine, _WHEEL_SIZE

from tests.sim.test_wheel_property import _OPS, _SPAN, Driver, ReferenceEngine


def _c_engine(seed: int = 0):
    with accel.backend("c"):
        return accel.make_engine(seed)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_c_wheel_matches_reference_heap(c_backend, ops):
    wheel = Driver(_c_engine())
    reference = Driver(ReferenceEngine())
    for op in ops:
        wheel.apply(op)
        reference.apply(op)
        assert wheel.host.pending_events == reference.host.pending_events
        assert wheel.host.now == reference.host.now
    final = max(wheel.host.now + 4 * _SPAN, 8 * _SPAN)
    wheel.host.run_until(final)
    reference.host.run_until(final)
    assert wheel.log == reference.log
    assert wheel.host.now == reference.host.now
    assert wheel.host.pending_events == reference.host.pending_events


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(_OPS, min_size=1, max_size=60),
    split=st.integers(min_value=0, max_value=60),
)
def test_c_wheel_marshals_to_pure_mid_run(c_backend, ops, split):
    """Pickle a compiled engine mid-flight, restore pure, finish identically."""
    compiled = Driver(_c_engine())
    reference = Driver(ReferenceEngine())
    for op in ops[:split]:
        compiled.apply(op)
        reference.apply(op)
    with accel.backend("pure"):
        restored = pickle.loads(pickle.dumps(compiled))
    assert type(restored.host) is Engine
    assert restored.host.now == compiled.host.now
    assert restored.host.pending_events == compiled.host.pending_events
    for op in ops[split:]:
        compiled.apply(op)
        restored.apply(op)
        reference.apply(op)
        assert (
            compiled.host.pending_events
            == restored.host.pending_events
            == reference.host.pending_events
        )
    final = max(compiled.host.now + 4 * _SPAN, 8 * _SPAN)
    for driver in (compiled, restored, reference):
        driver.host.run_until(final)
    assert compiled.log == restored.log == reference.log
    assert compiled.host.now == restored.host.now


def test_run_drains_and_stops_at_the_last_dispatch_on_both_backends(c_backend):
    """``run()`` empties the queue and leaves ``now`` at the last
    dispatched cycle, identically on both backends."""
    outcomes = []
    for name in ("pure", "c"):
        with accel.backend(name):
            engine = accel.make_engine()
        fired = []

        def tick(remaining, engine=engine, fired=fired):
            fired.append(engine.now)
            if remaining:
                engine.post(3, tick, remaining - 1)

        engine.post(0, tick, 50)
        # an overflow entry too, so the drain crosses a refill boundary
        last = int(_WHEEL_SIZE * 1.5)
        engine.post_at(last, tick, 2)
        count = engine.run()
        assert engine.pending_events == 0
        assert engine.now == last + 6 == fired[-1]
        outcomes.append((count, fired, engine.now, engine.dispatched))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 54


def test_idle_run_until_keeps_overflow_order_on_both_backends(c_backend):
    for name in ("pure", "c"):
        with accel.backend(name):
            engine = accel.make_engine()
        order = []
        engine.post(_WHEEL_SIZE + 900, order.append, "first")  # overflow heap
        engine.run_until(2_000)  # wheel empty: nothing dispatches
        engine.post_at(_WHEEL_SIZE + 900, order.append, "second")
        engine.run_until(2 * _WHEEL_SIZE)
        assert order == ["first", "second"], name

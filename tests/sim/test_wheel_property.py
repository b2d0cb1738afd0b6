"""Property test: the timing wheel must order-match a reference heap.

The engine's contract is exact ``(when, seq)`` dispatch order — the
timing wheel is an implementation detail that must be observationally
identical to the straightforward binary-heap scheduler it replaced.
This test drives random interleavings of ``post``/``post_at``/
``post_chain_at``/``run_until``/``run`` through the real
:class:`~repro.sim.engine.Engine` and through a ~30-line heapq reference,
and requires identical dispatch logs, clocks, and pending-event counts.

Delays deliberately straddle the wheel horizon (4096 cycles) so entries
take both the direct-bucket path and the overflow-heap path.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _WHEEL_SIZE, Engine


class ReferenceEngine:
    """Minimal (when, seq) binary-heap scheduler."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.now = 0

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def _push(self, when: int, item: tuple) -> None:
        heapq.heappush(self._heap, (when, self._seq, item))
        self._seq += 1

    def post(self, delay: int, callback, *args) -> None:
        self._push(self.now + delay, (None, callback, args))

    def post_at(self, when: int, callback, *args) -> None:
        self._push(when, (None, callback, args))

    def post_chain_at(
        self, when, callback, args, link_delay, link_callback, link_args
    ) -> None:
        self._push(
            when, ("chain", callback, args, link_delay, link_callback, link_args)
        )

    def run_until(self, deadline: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            when, _, item = heapq.heappop(heap)
            self.now = when
            if item[0] == "chain":
                _, callback, args, link_delay, link_callback, link_args = item
                callback(*args)
                # continuation enqueued right after the first hop returns,
                # exactly like a post() made from inside the callback
                self._push(when + link_delay, (None, link_callback, link_args))
            else:
                _, callback, args = item
                callback(*args)
        if self.now < deadline:
            self.now = deadline

    def run(self) -> None:
        # one timestamp at a time, so the clock ends at the last dispatch
        while self._heap:
            self.run_until(self._heap[0][0])


class Driver:
    """Applies one op sequence to either engine and records dispatches."""

    def __init__(self, host) -> None:
        self.host = host
        self.log: list[tuple[int, int]] = []

    def _fire(self, tag: int, spawn_delay: int) -> None:
        self.log.append((tag, self.host.now))
        if spawn_delay:
            # nested scheduling from inside a callback: same-cycle and
            # later-cycle follow-ups must order identically on both hosts
            self.host.post(spawn_delay, self._fire, tag + 100_000, 0)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "post":
            _, delay, tag, spawn = op
            self.host.post(delay, self._fire, tag, spawn)
        elif kind == "post_at":
            _, offset, tag, spawn = op
            self.host.post_at(self.host.now + offset, self._fire, tag, spawn)
        elif kind == "chain":
            _, offset, link_delay, tag = op
            self.host.post_chain_at(
                self.host.now + offset,
                self._fire,
                (tag, 0),
                link_delay,
                self._fire,
                (tag + 200_000, 0),
            )
        elif kind == "run":
            self.host.run_until(self.host.now + op[1])
        elif kind == "drain":
            self.host.run()
        else:  # pragma: no cover - defense against strategy drift
            raise AssertionError(f"unknown op {op!r}")


# Delays/offsets up to ~2.5 wheel turns so both the direct-bucket insert
# and the overflow heap (plus refills) are exercised.
_SPAN = int(_WHEEL_SIZE * 2.5)
_TAGS = st.integers(min_value=0, max_value=999)
_SPAWN = st.sampled_from((0, 0, 0, 1, 3))
_OPS = st.one_of(
    st.tuples(
        st.just("post"),
        st.integers(min_value=0, max_value=_SPAN),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("post_at"),
        st.integers(min_value=0, max_value=_SPAN),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("chain"),
        st.integers(min_value=0, max_value=_SPAN),
        st.integers(min_value=1, max_value=64),
        _TAGS,
    ),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=_SPAN)),
    st.tuples(st.just("drain")),
)


@settings(max_examples=75, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_wheel_matches_reference_heap(ops):
    wheel = Driver(Engine())
    reference = Driver(ReferenceEngine())
    for op in ops:
        wheel.apply(op)
        reference.apply(op)
        assert wheel.host.pending_events == reference.host.pending_events
        assert wheel.host.now == reference.host.now
    # drain everything still queued so every insertion is order-checked
    final = max(wheel.host.now + 4 * _SPAN, 8 * _SPAN)
    wheel.host.run_until(final)
    reference.host.run_until(final)
    assert wheel.log == reference.log
    assert wheel.host.now == reference.host.now
    assert wheel.host.pending_events == reference.host.pending_events


"""C-backed engine classes assembled around the compiled ``WheelCore``.

The compiled type owns exactly the state the dispatch loop touches — the
integer clock/counters as C ``long long`` fields and the wheel/overflow
containers as ordinary Python lists — and exposes every field under the
pure class's attribute names via member descriptors.  That makes the two
backends *attribute-compatible*: the pure scheduling entry points
(``post``/``post_at``/``post_chain_at``/...), the sanitizer's restore
audit, and the inlined wheel inserts in
``system.py``/``controller.py`` all run unchanged against either class.

Only the ``run_until`` dispatch loop differs, so this module borrows the
pure methods wholesale instead of re-implementing them: the scheduling
surface *is* the reference code, executed over C-backed attributes, and
the pure ``run`` drain calls the compiled ``run_until``.

Classes are built lazily (the extension module only exists once
:mod:`repro.accel` has loaded it) and cached process-wide.
"""

from __future__ import annotations

from repro.sim import engine as _pure

__all__ = ["c_engine_class", "c_wheel_class"]

_wheel_cls: type | None = None
_engine_cls: type | None = None


def _build_wheel_class(core) -> type:
    pure_wheel = _pure.TimingWheel

    class CTimingWheel(core.WheelCore):
        __doc__ = pure_wheel.__doc__

        def __init__(self) -> None:
            # Same initial state as the pure class; integer assignments
            # land in C struct fields via the member descriptors, list
            # assignments store ordinary Python lists.
            self._now = 0
            self._seq = 0
            self._wheel = [[] for _ in range(_pure._WHEEL_SIZE)]
            self._wheel_late = [[] for _ in range(_pure._WHEEL_SIZE)]
            self._wheel_pos = 0
            self._horizon = _pure._WHEEL_SIZE
            self._wheel_count = 0
            self._overflow = []
            self.dispatched = 0
            self.sanitizer = None
            self.tracer = None
            # C member descriptors; zeroed by tp_new, re-zeroed here so
            # a re-run __init__ (checkpoint restore) restarts the counts
            self.fastpath_hits = 0
            self.fastpath_misses = 0

        # Scheduling surface, properties, and coercion helpers: the pure
        # implementations verbatim, operating on C-backed attributes.
        # (heapq pushes from these methods and pushes from the compiled
        # loops produce identical heap layouts — the C side replicates
        # heapq's sift algorithm over the same list.)
        now = pure_wheel.now
        pending_events = pure_wheel.pending_events
        _as_cycles = staticmethod(pure_wheel._as_cycles)
        _coerce_delay = pure_wheel._coerce_delay
        _coerce_when = pure_wheel._coerce_when
        post = pure_wheel.post
        post_at = pure_wheel.post_at
        post_chain_at = pure_wheel.post_chain_at
        post_late_at = pure_wheel.post_late_at
        advance_clock = pure_wheel.advance_clock
        _refill = pure_wheel._refill
        run = pure_wheel.run
        # run_until is inherited from WheelCore: the compiled loop.

    return CTimingWheel


def c_wheel_class(core) -> type:
    """The C-backed :class:`TimingWheel` equivalent (built once)."""
    global _wheel_cls
    if _wheel_cls is None:
        _wheel_cls = _build_wheel_class(core)
    return _wheel_cls


def c_engine_class(core) -> type:
    """The C-backed :class:`Engine` equivalent (built once)."""
    global _engine_cls
    if _engine_cls is None:
        wheel_cls = c_wheel_class(core)

        class CEngine(_pure._EngineMixin, wheel_cls):
            __doc__ = _pure.Engine.__doc__

        CEngine.__name__ = "CEngine"
        CEngine.__qualname__ = "CEngine"
        _engine_cls = CEngine
    return _engine_cls

"""PABST pacer (Section III-B3).

The pacer enforces the governor's target period at the source.  It tracks
the next cycle a request may issue (``C_next``) against the current time;
idleness builds bounded credit so bursts proceed unthrottled.

Implementation notes:

* Times are kept scaled by the fixed-point constant F: ``C_next`` advances
  by the exact period numerator (``M x stride x threads``), so fractional
  periods accumulate without drift — this is what Eq. 3's F is for.
* Credit is clamped so ``C_next`` never falls more than
  ``burst_requests x period`` behind now, i.e. at most a 16-request burst
  (DESIGN.md §3 explains the unit choice).
* Cache filtering: an L3 hit *undoes* its charge (:meth:`uncharge`), and a
  response flagged as having caused an L3 writeback is charged one extra
  period (:meth:`charge_writeback`), exactly the paper's approximation of
  scaling the rate by the L2-to-L3 miss ratio.
* The paper's "throttled whenever C_next < C_now" is inverted relative to
  its own credit discussion; requests here are throttled when
  ``C_next > C_now``.

Blocked requests release in FIFO order; a period change (new epoch) or an
uncharge immediately reschedules the head of the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.engine import Engine
from repro.sim.records import MemoryRequest

__all__ = ["Pacer"]


class Pacer:
    """Credit-based rate enforcement for one source (L2 cache)."""

    def __init__(self, engine: Engine, f_scale: int, burst_requests: int = 16) -> None:
        if f_scale <= 0:
            raise ValueError("f_scale must be positive")
        if burst_requests < 1:
            raise ValueError("burst_requests must be >= 1")
        self._engine = engine
        self._den = f_scale
        self._burst = burst_requests
        self._period_num = 0  # numerator of the current source period
        self._cnext_scaled = 0  # C_next x F
        self._blocked: deque[tuple[MemoryRequest, Callable[[], None]]] = deque()
        # identifies the newest armed release event; superseded events
        # dispatch, see a stale token, and return (the engine has no
        # cancellation)
        self._release_token = 0
        self.released = 0
        self.throttled = 0
        self.uncharges = 0
        self.writeback_charges = 0
        self._demand_since_epoch = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def f_scale(self) -> int:
        return self._den

    @property
    def period_cycles(self) -> float:
        """Current source period in cycles (Eq. 4 evaluated)."""
        return self._period_num / self._den

    @property
    def blocked_count(self) -> int:
        return len(self._blocked)

    def set_period(self, period_numerator: int) -> None:
        """New target period from the governor (numerator over F)."""
        if period_numerator < 0:
            raise ValueError("period numerator must be non-negative")
        self._period_num = period_numerator
        self._reschedule()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def take_epoch_demand(self) -> int:
        """Requests that arrived since the last call (demand estimator).

        Feeds the heterogeneous thread-scaling extension (Section V-B):
        the mechanism reads each source's demand once per epoch to weight
        the class allocation across its threads.
        """
        demand = self._demand_since_epoch
        self._demand_since_epoch = 0
        return demand

    def request(self, req: MemoryRequest, release: Callable[[], None]) -> None:
        """Ask to issue ``req``; ``release`` fires when the pacer allows it."""
        self._demand_since_epoch += 1
        # inlined _allowed_now() + _charge(): this runs once per L2 miss
        # across every core, where the three helper frames are measurable
        now_scaled = self._engine._now * self._den
        if not self._blocked and self._cnext_scaled <= now_scaled:
            floor = now_scaled - self._burst * self._period_num
            if self._cnext_scaled < floor:
                self._cnext_scaled = floor
            self._cnext_scaled += self._period_num
            self.released += 1
            release()
            return
        self.throttled += 1
        self._blocked.append((req, release))
        self._reschedule()

    def uncharge(self) -> None:
        """Undo one charge: the request was filtered by the shared cache."""
        self.uncharges += 1
        self._cnext_scaled -= self._period_num
        self._clamp_credit()
        self._reschedule()

    def charge_writeback(self) -> None:
        """Charge one extra period for an L3 writeback this class caused."""
        self.writeback_charges += 1
        self._charge()
        self._reschedule()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _now_scaled(self) -> int:
        return self._engine._now * self._den

    def _allowed_now(self) -> bool:
        return self._cnext_scaled <= self._now_scaled()

    def _clamp_credit(self) -> None:
        floor = self._now_scaled() - self._burst * self._period_num
        if self._cnext_scaled < floor:
            self._cnext_scaled = floor

    def _charge(self) -> None:
        self._clamp_credit()
        self._cnext_scaled += self._period_num

    def _release_time(self) -> int:
        """Earliest cycle the head of the blocked queue may issue."""
        num = self._cnext_scaled
        den = self._den
        return max(self._engine._now, -(-num // den))

    def _reschedule(self) -> None:
        self._release_token += 1  # invalidate any armed release event
        if not self._blocked:
            return
        when = self._release_time()
        if when <= self._engine._now:
            self._release_now()
        else:
            self._engine.post_at(when, self._release_head, self._release_token)

    def _release_head(self, token: int) -> None:  # repro: native-kernel
        if token != self._release_token:
            return  # superseded by a reschedule since this event was armed
        self._release_now()

    def _release_now(self) -> None:
        # inlined _allowed_now()/_charge(): the drain loop runs once per
        # throttled request, where the helper frames are measurable.  The
        # clamped C_next is written back before each release() so any
        # re-entrant charge/uncharge sees consistent state, and re-read
        # after for the same reason.
        blocked = self._blocked
        den = self._den
        period = self._period_num
        burst_span = self._burst * period
        now_scaled = self._engine._now * den
        while blocked and self._cnext_scaled <= now_scaled:
            _, release = blocked.popleft()
            cnext = self._cnext_scaled
            floor = now_scaled - burst_span
            if cnext < floor:
                cnext = floor
            self._cnext_scaled = cnext + period
            self.released += 1
            release()
        if blocked:
            self._release_token += 1
            self._engine.post_at(
                self._release_time(), self._release_head, self._release_token
            )

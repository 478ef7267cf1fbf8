"""A deterministic discrete-event simulator.

Everything time-dependent in the reproduction — UDP delivery, lease
expiry, TTL decay, retransmission timers, probing schedules — runs on one
:class:`Simulator`.  Events fire in (time, schedule-order) order, so runs
are exactly reproducible for a given seed; there is no wall-clock anywhere
in the simulation path.

Tie-breaking is an **explicit monotonic sequence number** stamped on
every :class:`EventHandle` at schedule time (never object identity or
hash, which vary across processes): equal-timestamp events fire in
schedule order on any machine, in any process — the property the
sharded simulation relies on for byte-stable merges.

The queue is a binary heap of ``(time, seq, handle)`` tuples driven by
:mod:`heapq` directly.  Cancelling is O(1): the handle is marked and
its entry stays in the heap until it is popped past, so the heap may
hold more entries than :attr:`Simulator.pending` reports.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventHandle:
    """A cancellable reference to a scheduled event.

    *Daemon* events (periodic timers, housekeeping) never keep the
    simulation alive: :meth:`Simulator.run` stops once only daemon
    events remain, the way daemon threads don't block process exit.

    ``seq`` is the schedule-time monotonic sequence number; the queue
    orders events by ``(time, seq)`` and nothing else.
    """

    __slots__ = ("time", "seq", "daemon", "_callback", "_cancelled",
                 "_fired", "_simulator")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 simulator: "Simulator", daemon: bool = False):
        self.time = time
        self.seq = seq
        self.daemon = daemon
        self._callback = callback
        self._cancelled = False
        self._fired = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling twice, or cancelling an event that already fired, is
        harmless: the pending counters only move for a live event.
        """
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._callback = _noop
        self._simulator._live_pending -= 1
        if not self.daemon:
            self._simulator._nondaemon_pending -= 1

    @property
    def cancelled(self) -> bool:
        """True once cancelled."""
        return self._cancelled


def _noop() -> None:
    return None


class SimulationError(RuntimeError):
    """Raised on simulator misuse (scheduling into the past, etc.)."""


class Simulator:
    """Event loop with virtual time in seconds over one binary heap."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        self._nondaemon_pending = 0
        self._live_pending = 0
        #: Observability hook: called with the event time after each
        #: fired event.  None (the default) costs one comparison per
        #: step; set by :meth:`repro.obs.Observability.observe_simulator`.
        self.observer: Optional[Callable[[float], None]] = None
        #: Load-attribution hook: a :class:`repro.obs.load.LoadLedger`
        #: sampling event-loop pressure — each fired event is
        #: tick-class load with the live pending count as the depth
        #: sample (PROTOCOL §9.5).  None by default, one pointer check
        #: per step when off.
        self.load_ledger = None

    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None],
                    daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        handle = EventHandle(time, next(self._sequence), callback, self,
                             daemon=daemon)
        self._live_pending += 1
        if not daemon:
            self._nondaemon_pending += 1
        heapq.heappush(self._queue, (time, handle.seq, handle))
        return handle

    def schedule(self, delay: float, callback: Callable[[], None],
                 daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback, daemon=daemon)

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at the current time, after pending same-time events."""
        return self.schedule(0.0, callback)

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        queue = self._queue
        while True:
            if not queue:
                return False
            handle = heapq.heappop(queue)[2]
            if not handle._cancelled:
                break
        handle._fired = True
        self._now = handle.time
        self.events_processed += 1
        self._live_pending -= 1
        if not handle.daemon:
            self._nondaemon_pending -= 1
        handle._callback()
        if self.load_ledger is not None:
            self.load_ledger.record("simulator", "-", "tick", handle.time,
                                    depth=self._live_pending)
        if self.observer is not None:
            self.observer(handle.time)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until no *non-daemon* work remains (or ``max_events``).

        Daemon events (periodic timers) that precede pending non-daemon
        events still fire in time order; once only daemon events are
        left the run stops and leaves them queued — they would otherwise
        keep a simulation alive forever.
        """
        fired = 0
        while (self._nondaemon_pending > 0
               and (max_events is None or fired < max_events)
               and self.step()):
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Fire all events with timestamp <= ``time``, then advance to it."""
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time}")
        fired = 0
        while True:
            next_time = self._peek_time()
            if next_time is None or next_time > time:
                break
            if self.step():
                fired += 1
        self._now = max(self._now, time)
        return fired

    def run_for(self, duration: float) -> int:
        """Advance virtual time by ``duration``, firing due events."""
        return self.run_until(self._now + duration)

    def _peek_time(self) -> Optional[float]:
        """Time of the next live event, dropping cancelled heads."""
        queue = self._queue
        while queue and queue[0][2]._cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    @property
    def pending(self) -> int:
        """Scheduled events that have not fired or been cancelled.

        O(1): a live-event counter maintained on schedule/cancel/fire,
        not a scan of the queue (cancelled entries may linger there
        until popped past).
        """
        return self._live_pending

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={self.pending})"

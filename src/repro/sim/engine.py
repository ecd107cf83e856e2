"""The discrete-event simulation driver.

The engine owns the clock and the event queue and runs the main loop.  All
other components (frequency model, kernel, workloads, metrics) schedule
callbacks through it.  The engine knows nothing about scheduling semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.log import EventLog
from .clock import Clock
from .events import Event, EventKind
from .queue import EventQueue
from .rng import RngRegistry

#: Version salt of the simulation semantics.  The content-addressed result
#: cache (experiments/cache.py) mixes this into every key, so bumping it
#: invalidates all cached results at once.  Bump whenever a change alters
#: what a simulation *computes* (event ordering, timing, RNG use, metrics),
#: not for pure refactors or speedups that keep runs bit-identical.
#: 2: correlated core-failure bursts draw their cpus from one socket of the
#:    Linux cpu numbering (multi-socket faulted runs changed).
ENGINE_VERSION = "2"


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """Event loop: pops events in time order and dispatches their callbacks."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.events_processed = 0
        #: The run's structured observability log (obs/).  Disabled until a
        #: sink is attached; every component that can see the engine (the
        #: kernel, policies via the kernel, the frequency model) emits
        #: through it behind an ``if obs.enabled:`` guard, so a run with no
        #: sinks allocates no event records.
        self.obs = EventLog()
        #: Mirror of ``clock.now``, kept in sync by the run loop.  A plain
        #: attribute: ``engine.now`` is the single hottest read in the
        #: simulator and a property call per read showed up in profiles.
        self.now = 0
        self._stopped = False
        self._stop_reason: Optional[str] = None

    def at(
        self,
        time: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"scheduling into the past: {time} < {self.clock.now}")
        return self.queue.schedule(time, kind, callback, args)

    def after(
        self,
        delay: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.queue.schedule(self.clock.now + delay, kind, callback, args)

    def reschedule(self, ev: Event, delay: int) -> Event:
        """Move pending event ``ev`` to ``delay`` microseconds from now.

        Same result as ``cancel(ev)`` then ``after(delay, ...)`` with ev's
        kind, callback and args, but usually reuses ``ev`` (see
        :meth:`EventQueue.reschedule`).  Returns the live handle.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if ev.cancelled:
            raise SimulationError(f"rescheduling a cancelled event: {ev!r}")
        return self.queue.reschedule(ev, self.clock.now + delay)

    def cancel(self, ev: Event) -> None:
        self.queue.cancel(ev)

    def stop(self, reason: str = "requested") -> None:
        """Ask the run loop to stop after the current event."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def run(self, until: Optional[int] = None, max_events: int = 200_000_000) -> int:
        """Run until the queue drains, ``until`` is reached, or stop().

        Returns the simulated end time in microseconds.
        """
        self._stopped = False
        self._stop_reason = None
        queue = self.queue
        clock = self.clock
        processed = 0
        while not self._stopped:
            if until is not None:
                nxt = queue.peek_time()
                if nxt is None or nxt > until:
                    clock.advance_to(max(until, clock.now))
                    self.now = clock.now
                    self._stop_reason = "until"
                    break
            ev = queue.pop()
            if ev is None:
                self._stop_reason = "drained"
                break
            clock.advance_to(ev.time)
            self.now = ev.time
            ev.callback(*ev.args)
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock")
        self.events_processed += processed
        return clock.now

"""Binary-heap event queue with O(1) cancellation and in-place reschedule.

The heap stores flat ``(time, kind, seq, event)`` tuples rather than the
:class:`Event` objects themselves.  The sequence number is unique, so heap
comparisons always resolve within the first three integers and never fall
through to the event object — every sift comparison is a C-level int
compare instead of a Python-level ``Event.__lt__`` call, which is the
single hottest operation of a simulation.

Moving a pending event to a later time (:meth:`EventQueue.reschedule`)
mutates the event's ``time``/``seq`` and pushes nothing: its heap entry
goes *stale*, recognisable because the entry's seq no longer equals
``event.seq``.  When a stale entry reaches the top it is re-pushed under
the event's current key instead of being dispatched.  This pops events in
exactly the order cancel + schedule would:

* a reschedule takes a fresh sequence number, just as schedule does, so
  the event's current key is the key cancel + schedule would have pushed;
* it is done in place only when the new key is >= the current one (a
  fresh seq is larger than every earlier seq, so a same-time move always
  qualifies); an earlier move tombstones the event and pushes a new one.
  Keys therefore only grow in place, and a stale entry's key is always
  <= its event's current key;
* so when a live, non-stale entry is at the top of the heap, every other
  live event's current key is >= its entry key >= the top key: the top is
  the live event with the smallest current key, the one cancel + schedule
  would pop.  Keys are unique, so there are no ties to break differently.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Optional

from .events import Event, EventKind


class EventQueue:
    """Time-ordered queue of :class:`Event` objects.

    Simultaneous events pop in (kind, sequence) order; the sequence number is
    assigned at scheduling time, so insertion order decides final ties.  The
    queue never reorders events of the same key, which keeps simulations
    deterministic across runs and platforms.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Add an event; returns a handle usable for cancellation."""
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, kind, seq, callback, args)
        heappush(self._heap, (time, int(kind), seq, ev))
        self._live += 1
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        Cancelled events stay in the heap as tombstones and are dropped
        when they reach the top, which is O(1) here and keeps the heap
        simple.
        """
        if not ev.cancelled:
            ev.cancelled = True
            self._live -= 1

    def reschedule(self, ev: Event, time: int) -> Event:
        """Move a pending event to ``time``; returns the live handle.

        Equivalent to ``cancel(ev)`` followed by ``schedule`` of the same
        callback at ``time`` — it consumes one sequence number and pops in
        the same order — but a move to the same or a later time reuses
        ``ev`` and pushes nothing (see the module docstring).  ``ev`` must
        be pending: scheduled, not yet popped and not cancelled.
        """
        if ev.cancelled:
            raise ValueError(f"cannot reschedule a cancelled event: {ev!r}")
        seq = self._seq
        self._seq = seq + 1
        if time >= ev.time:
            ev.time = time
            ev.seq = seq
            return ev
        ev.cancelled = True
        new = Event(time, ev.kind, seq, ev.callback, ev.args)
        heappush(self._heap, (time, int(ev.kind), seq, new))
        return new

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        entry = self._top()
        if entry is None:
            return None
        heappop(self._heap)
        self._live -= 1
        return entry[3]

    def peek_time(self) -> Optional[int]:
        """Time of the next live event without removing it."""
        entry = self._top()
        return None if entry is None else entry[0]

    def _top(self) -> Optional[tuple[int, int, int, Event]]:
        """Drop tombstones and re-key stale entries until the heap's top
        entry is the next live event's; return it (None when empty)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.cancelled:
                heappop(heap)
            elif entry[2] != ev.seq:
                heapreplace(heap, (ev.time, entry[1], ev.seq, ev))
            else:
                return entry
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0

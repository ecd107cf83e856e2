"""Tests for the event records and the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import Event, EventKind
from repro.sim.queue import EventQueue


def _noop(*args):
    pass


class TestEvent:
    def test_sort_key_orders_by_time_first(self):
        a = Event(10, EventKind.TICK, 0, _noop)
        b = Event(5, EventKind.BALANCE, 1, _noop)
        assert b < a

    def test_sort_key_orders_by_kind_on_time_tie(self):
        a = Event(10, EventKind.COMPLETION, 5, _noop)
        b = Event(10, EventKind.TICK, 0, _noop)
        assert a < b   # completions run before ticks at the same instant

    def test_sort_key_orders_by_seq_last(self):
        a = Event(10, EventKind.WAKEUP, 0, _noop)
        b = Event(10, EventKind.WAKEUP, 1, _noop)
        assert a < b

    def test_cancel_flag(self):
        e = Event(0, EventKind.IO, 0, _noop)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled


class TestEventQueue:
    def test_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert not q
        assert q.pop() is None
        assert q.peek_time() is None

    def test_fifo_within_same_key(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.schedule(10, EventKind.WAKEUP, order.append, (i,))
        while (ev := q.pop()) is not None:
            ev.callback(*ev.args)
        assert order == [0, 1, 2, 3, 4]

    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in (30, 10, 20):
            q.schedule(t, EventKind.TICK, _noop)
        times = [q.pop().time for _ in range(3)]
        assert times == [10, 20, 30]

    def test_kind_priority_at_same_time(self):
        q = EventQueue()
        q.schedule(5, EventKind.TICK, _noop)
        q.schedule(5, EventKind.COMPLETION, _noop)
        q.schedule(5, EventKind.WAKEUP, _noop)
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [EventKind.COMPLETION, EventKind.WAKEUP,
                         EventKind.TICK]

    def test_cancel_skipped_on_pop(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.schedule(2, EventKind.IO, _noop)
        q.cancel(ev)
        assert len(q) == 1
        popped = q.pop()
        assert popped.time == 2

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.schedule(7, EventKind.IO, _noop)
        q.cancel(ev)
        assert q.peek_time() == 7

    def test_clear(self):
        q = EventQueue()
        q.schedule(1, EventKind.IO, _noop)
        q.clear()
        assert not q
        assert q.pop() is None

    def test_len_tracks_live_events(self):
        q = EventQueue()
        evs = [q.schedule(i, EventKind.IO, _noop) for i in range(4)]
        assert len(q) == 4
        q.cancel(evs[0])
        assert len(q) == 3
        q.pop()
        assert len(q) == 2

    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.sampled_from(list(EventKind))),
                    min_size=1, max_size=60))
    def test_pop_order_is_total_and_stable(self, items):
        """Property: pops come out sorted by (time, kind, insertion seq)."""
        q = EventQueue()
        for t, k in items:
            q.schedule(t, k, _noop)
        popped = []
        while (ev := q.pop()) is not None:
            popped.append((ev.time, int(ev.kind), ev.seq))
        assert popped == sorted(popped)
        assert len(popped) == len(items)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.data())
    def test_cancellation_never_loses_live_events(self, times, data):
        q = EventQueue()
        handles = [q.schedule(t, EventKind.IO, _noop) for t in times]
        to_cancel = data.draw(st.sets(
            st.integers(0, len(handles) - 1), max_size=len(handles)))
        for i in to_cancel:
            q.cancel(handles[i])
        survivors = []
        while (ev := q.pop()) is not None:
            survivors.append(ev)
        assert len(survivors) == len(times) - len(to_cancel)
        assert all(not ev.cancelled for ev in survivors)


class TestReschedule:
    def test_same_time_keeps_handle_and_fires_after_newer_event(self):
        q = EventQueue()
        a = q.schedule(10, EventKind.FREQ, _noop, ("a",))
        q.schedule(10, EventKind.FREQ, _noop, ("b",))
        assert q.reschedule(a, 10) is a
        assert len(q) == 2
        assert [q.pop().args for _ in range(2)] == [("b",), ("a",)]
        assert q.pop() is None

    def test_later_time_keeps_handle(self):
        q = EventQueue()
        a = q.schedule(10, EventKind.FREQ, _noop, ("a",))
        q.schedule(20, EventKind.FREQ, _noop, ("b",))
        assert q.reschedule(a, 30) is a
        assert q.peek_time() == 20
        assert [(ev.time, ev.args) for ev in (q.pop(), q.pop())] == \
            [(20, ("b",)), (30, ("a",))]

    def test_earlier_time_returns_new_handle_and_tombstones_old(self):
        q = EventQueue()
        a = q.schedule(10, EventKind.FREQ, _noop, ("a",))
        b = q.reschedule(a, 5)
        assert b is not a
        assert a.cancelled and not b.cancelled
        assert (b.time, b.kind, b.callback, b.args) == \
            (5, EventKind.FREQ, _noop, ("a",))
        assert len(q) == 1
        assert q.pop() is b
        assert q.pop() is None

    def test_consumes_one_sequence_number(self):
        q = EventQueue()
        a = q.schedule(10, EventKind.FREQ, _noop)
        q.reschedule(a, 10)
        assert q.schedule(10, EventKind.FREQ, _noop).seq == a.seq + 1

    def test_rescheduling_a_cancelled_event_raises(self):
        q = EventQueue()
        a = q.schedule(10, EventKind.FREQ, _noop)
        q.cancel(a)
        with pytest.raises(ValueError):
            q.reschedule(a, 20)
        assert len(q) == 0
        assert q.pop() is None


class _CancelScheduleModel:
    """Reference queue: a dict of live keys, where reschedule means cancel
    followed by schedule."""

    def __init__(self):
        self.live = {}    # token -> (time, kind, seq)
        self.seq = 0

    def schedule(self, token, time, kind):
        self.live[token] = (time, kind, self.seq)
        self.seq += 1

    def cancel(self, token):
        del self.live[token]

    def reschedule(self, token, time):
        kind = self.live[token][1]
        self.cancel(token)
        self.schedule(token, time, kind)

    def pop(self):
        if not self.live:
            return None
        token = min(self.live, key=self.live.__getitem__)
        time, kind, seq = self.live.pop(token)
        return (time, kind, seq, (token,))

    def peek_time(self):
        return min(self.live.values())[0] if self.live else None


_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 40),
              st.sampled_from([EventKind.IO, EventKind.FREQ,
                               EventKind.TICK])),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("reschedule"), st.integers(0, 1000),
              st.integers(-15, 15)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
), max_size=120)


@given(_QUEUE_OPS)
def test_reschedule_is_equivalent_to_cancel_then_schedule(ops):
    """Property: the popped (time, kind, seq, payload) stream and len()
    match a reference queue in which reschedule is cancel + schedule."""
    q = EventQueue()
    model = _CancelScheduleModel()
    handles = {}    # token -> live handle in q
    popped, expected = [], []

    def pop_both():
        ev = q.pop()
        ref = model.pop()
        if ev is not None:
            assert ev is handles.pop(ev.args[0])
            popped.append((ev.time, int(ev.kind), ev.seq, ev.args))
        else:
            popped.append(None)
        expected.append(ref)

    for token, op in enumerate(ops):
        if op[0] == "schedule":
            _, time, kind = op
            handles[token] = q.schedule(time, kind, _noop, (token,))
            model.schedule(token, time, int(kind))
        elif op[0] == "pop":
            pop_both()
        elif op[0] == "peek":
            assert q.peek_time() == model.peek_time()
        elif handles:
            pending = sorted(handles)
            victim = pending[op[1] % len(pending)]
            if op[0] == "cancel":
                q.cancel(handles.pop(victim))
                model.cancel(victim)
            else:
                time = max(0, model.live[victim][0] + op[2])
                handles[victim] = q.reschedule(handles[victim], time)
                model.reschedule(victim, time)
        assert len(q) == len(model.live)
    while q or model.live:
        pop_both()
    assert popped == expected
    assert q.pop() is None

"""Tests for the simulation engine and RNG registry."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventKind
from repro.sim.rng import RngRegistry


class TestEngine:
    def test_runs_events_in_order(self):
        eng = Engine()
        seen = []
        eng.at(10, EventKind.IO, seen.append, (1,))
        eng.at(5, EventKind.IO, seen.append, (2,))
        eng.run()
        assert seen == [2, 1]
        assert eng.now == 10

    def test_after_is_relative(self):
        eng = Engine()
        eng.after(7, EventKind.IO, lambda: eng.after(3, EventKind.IO,
                                                     lambda: None))
        eng.run()
        assert eng.now == 10

    def test_no_scheduling_into_the_past(self):
        eng = Engine()
        eng.at(10, EventKind.IO, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.at(5, EventKind.IO, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.after(-1, EventKind.IO, lambda: None)

    def test_until_stops_before_later_events(self):
        eng = Engine()
        seen = []
        eng.at(5, EventKind.IO, seen.append, (1,))
        eng.at(50, EventKind.IO, seen.append, (2,))
        eng.run(until=20)
        assert seen == [1]
        assert eng.now == 20
        assert eng.stop_reason == "until"

    def test_until_resumable(self):
        eng = Engine()
        seen = []
        eng.at(5, EventKind.IO, seen.append, (1,))
        eng.at(50, EventKind.IO, seen.append, (2,))
        eng.run(until=20)
        eng.run()
        assert seen == [1, 2]

    def test_stop_from_callback(self):
        eng = Engine()
        seen = []
        eng.at(1, EventKind.IO, lambda: (seen.append(1),
                                         eng.stop("enough")))
        eng.at(2, EventKind.IO, seen.append, (2,))
        eng.run()
        assert seen == [1]
        assert eng.stop_reason == "enough"

    def test_drained_reason(self):
        eng = Engine()
        eng.run()
        assert eng.stop_reason == "drained"

    def test_cancel_through_engine(self):
        eng = Engine()
        seen = []
        ev = eng.at(5, EventKind.IO, seen.append, (1,))
        eng.cancel(ev)
        eng.run()
        assert seen == []

    def test_max_events_guard(self):
        eng = Engine()

        def forever():
            eng.after(1, EventKind.IO, forever)

        eng.after(1, EventKind.IO, forever)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(5):
            eng.at(i, EventKind.IO, lambda: None)
        eng.run()
        assert eng.events_processed == 5


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("x")
        b = RngRegistry(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        reg = RngRegistry(42)
        xs = [reg.stream("x").random() for _ in range(5)]
        ys = [reg.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_stream_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")

    def test_fork_is_independent(self):
        reg = RngRegistry(7)
        child = reg.fork("wl")
        assert child.stream("x").random() != reg.stream("x").random()

    def test_fork_deterministic(self):
        a = RngRegistry(7).fork("wl").stream("x").random()
        b = RngRegistry(7).fork("wl").stream("x").random()
        assert a == b


class TestReschedule:
    def test_reschedule_is_relative_to_now(self):
        eng = Engine()
        fired = []
        ev = eng.after(10, EventKind.FREQ, lambda: fired.append(eng.now))
        eng.after(5, EventKind.CONTROL,
                  lambda: eng.reschedule(ev, 20))
        eng.run()
        assert fired == [25]

    def test_negative_delay_rejected(self):
        eng = Engine()
        ev = eng.after(10, EventKind.FREQ, lambda: None)
        with pytest.raises(SimulationError):
            eng.reschedule(ev, -1)

    def test_cancelled_handle_rejected(self):
        eng = Engine()
        ev = eng.after(10, EventKind.FREQ, lambda: None)
        eng.cancel(ev)
        with pytest.raises(SimulationError):
            eng.reschedule(ev, 5)

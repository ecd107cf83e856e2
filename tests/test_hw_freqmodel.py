"""Tests for the DVFS model."""

import random

import pytest

from repro.hw.freqmodel import (FreqModel, PMParams, SPEED_SHIFT, SPEED_STEP)
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.sim.engine import Engine


class StubGovernor:
    """Fixed floor/request governor for unit tests."""

    def __init__(self, floor=1000, request=3900):
        self.floor = floor
        self.request = request

    def floor_mhz(self, cpu):
        return self.floor

    def request_mhz(self, cpu):
        return self.request


def make(pm=SPEED_SHIFT, floor=1000, request=3900,
         topo=Topology(2, 16, 2)):
    eng = Engine()
    gov = StubGovernor(floor, request)
    fm = FreqModel(eng, topo, XEON_5218, pm, gov)
    return eng, fm, gov


class TestActivityTracking:
    def test_starts_at_min(self):
        _, fm, _ = make()
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    def test_active_count_per_socket(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(16, busy=True, spinning=False)
        assert fm.active_physical_cores(0) == 1
        assert fm.active_physical_cores(1) == 1

    def test_siblings_share_one_physical_core(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(32, busy=True, spinning=False)   # sibling of 0
        assert fm.active_physical_cores(0) == 1
        fm.set_thread_state(0, busy=False, spinning=False)
        assert fm.active_physical_cores(0) == 1   # sibling still busy
        fm.set_thread_state(32, busy=False, spinning=False)
        assert fm.active_physical_cores(0) == 0

    def test_busy_and_spinning_rejected(self):
        _, fm, _ = make()
        with pytest.raises(ValueError):
            fm.set_thread_state(0, busy=True, spinning=True)

    def test_spinning_counts_as_active(self):
        _, fm, _ = make()
        fm.set_thread_state(0, busy=False, spinning=True)
        assert fm.active_physical_cores(0) == 1
        assert fm.core_is_active(0)

    def test_thread_state_readback(self):
        _, fm, _ = make()
        fm.set_thread_state(3, busy=True, spinning=False)
        assert fm.thread_state(3) == (True, False)
        assert fm.thread_state(4) == (False, False)


class TestInstantPstate:
    def test_activation_jumps_to_target_on_speed_shift(self):
        eng, fm, _ = make(request=2500)
        fm.set_thread_state(0, busy=True, spinning=False)
        # Speed Shift programs the P-state on the wakeup path: the core is
        # at the (pre-sustain-capped) requested frequency immediately.
        assert fm.freq_mhz(0) == 2500

    def test_activation_jump_capped_by_allcore_presustain(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == XEON_5218.limits[-1]   # all-core cap

    def test_speedstep_only_jumps_to_floor(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=2300, request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == 2300


class TestSustainedBoost:
    def test_sustained_activity_unlocks_full_turbo(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(1)   # 3900

    def test_gap_resets_sustained_activity(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        gap = SPEED_SHIFT.gap_forgiveness_us + 200
        eng.run(until=eng.now + gap)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=eng.now + 2_000)
        # Back under the pre-sustain cap (after decay toward it).
        assert fm.freq_mhz(0) <= XEON_5218.limits[-1] + SPEED_SHIFT.decay_step_mhz

    def test_short_gap_forgiven(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + SPEED_SHIFT.gap_forgiveness_us - 100)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(1)

    def test_no_autonomous_boost_on_speedstep(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=1800)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_STEP.turbo_latency_us + 20_000)
        # Follows the request, not the turbo ceiling.
        assert fm.freq_mhz(0) == 1800

    def test_turbo_ceiling_depends_on_active_count(self):
        eng, fm, _ = make(request=3900)
        for cpu in range(10):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 10_000)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(10)   # 3100


class TestIdleDecay:
    def test_idle_core_decays_to_min(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + 60_000)
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    def test_idle_hold_keeps_freq_briefly(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        f = fm.freq_mhz(0)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + SPEED_SHIFT.idle_hold_us - 500)
        assert fm.freq_mhz(0) == f

    def test_spin_holds_frequency(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        f = fm.freq_mhz(0)
        fm.set_thread_state(0, busy=False, spinning=True)
        eng.run(until=eng.now + 30_000)
        assert fm.freq_mhz(0) >= f

    def test_idle_duration(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=100)
        assert fm.idle_duration(0, eng.now) == 100
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.idle_duration(0, eng.now) is None


class TestListeners:
    def test_listener_called_on_change(self):
        eng, fm, _ = make(request=2500)
        changes = []
        fm.add_listener(lambda pc, mhz: changes.append((pc, mhz)))
        fm.set_thread_state(0, busy=True, spinning=False)
        assert changes and changes[0][0] == 0

    def test_force_freq(self):
        eng, fm, _ = make()
        fm.force_freq(3, 2222)
        assert fm.core_freq_mhz(3) == 2222


class _CancelAfterEngine(Engine):
    """Reference engine: reschedule is cancel followed by after."""

    def reschedule(self, ev, delay):
        self.cancel(ev)
        return self.after(delay, ev.kind, ev.callback, ev.args)


def _repricing_churn(engine_cls, seed=7):
    """Re-price cores 1,000 times at one instant, then keep re-pricing as
    time runs.  Returns the listener trace, the largest heap seen during
    the fixed-instant phase and the final number of pending events."""
    topo = Topology(2, 16, 2)
    n_pc = topo.n_physical_cores
    eng = engine_cls()
    gov = StubGovernor(floor=XEON_5218.min_mhz, request=2000)
    fm = FreqModel(eng, topo, XEON_5218, SPEED_STEP, gov)
    trace = []
    fm.add_listener(lambda pc, mhz: trace.append((eng.now, pc, mhz)))
    rng = random.Random(seed)

    def request():
        return rng.randrange(XEON_5218.min_mhz + 100, 4000, 100)

    # Thread 0 of every core stays busy, so every core stays active while
    # its sibling toggles and the governor's request moves.
    for pc in range(n_pc):
        fm.set_thread_state(pc, busy=True, spinning=False)
    max_heap = 0
    for _ in range(1_000):
        cpu = n_pc + rng.randrange(n_pc)
        if rng.random() < 0.5:
            busy = rng.random() < 0.5
            fm.set_thread_state(cpu, busy=busy,
                                spinning=not busy and rng.random() < 0.5)
        else:
            gov.request = request()
            fm.notify_request_change(cpu)
        max_heap = max(max_heap, len(eng.queue._heap))
    # Then any thread, idle included, as time advances: ramps, decays,
    # idle holds and cancelled steps all occur.
    for _ in range(300):
        eng.run(until=eng.now + rng.randrange(0, 1_500))
        cpu = rng.randrange(topo.n_cpus)
        state = rng.randrange(3)
        fm.set_thread_state(cpu, busy=state == 1, spinning=state == 2)
        gov.request = request()
        fm.notify_request_change(rng.randrange(topo.n_cpus))
    eng.run(until=eng.now + 100_000)
    return trace, max_heap, len(eng.queue)


class TestRepricingChurn:
    def test_same_instant_repricing_does_not_grow_the_heap(self):
        _, max_heap, _ = _repricing_churn(Engine)
        assert max_heap <= 2 * Topology(2, 16, 2).n_physical_cores

    def test_trace_matches_cancel_then_after(self):
        trace, _, pending = _repricing_churn(Engine)
        ref_trace, _, ref_pending = _repricing_churn(_CancelAfterEngine)
        assert len(trace) > 100
        assert trace == ref_trace
        assert pending == ref_pending

"""Unit tests for the scx_nest comparator policy (sched/scxnest.py)."""

import pytest

from repro.core.params import NestParams
from repro.experiments.parallel import RunSpec
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.obs import events as oev
from repro.sched.registry import make_registered_policy
from repro.sched.scxnest import (GlobalVtimeQueue, NestMasks, ScxNestPolicy,
                                 SLICE_US)
from repro.sim.clock import TICK_US
from repro.sim.engine import Engine
from repro.verify import check_run, run_scenario
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


def make(params=None):
    eng = Engine(0)
    policy = ScxNestPolicy(params or NestParams())
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    return eng, kern, policy


def noop_task(kern, name="x", prev=None):
    def noop(api):
        yield Compute(1)

    t = kern._new_task(noop, name, None)
    t.prev_cpu = prev
    return t


def occupy(kern, cpu):
    def hog(api):
        yield Compute(ms_of_work(1000))

    t = kern._new_task(hog, f"hog{cpu}", None)
    kern.enqueue(t, cpu)
    return t


class TestGlobalVtimeQueue:
    def test_fifo_within_equal_vtime(self):
        q = GlobalVtimeQueue()
        for key in (7, 3, 9, 1):
            q.push(key)
        assert [q.pop()[0] for _ in range(4)] == [7, 3, 9, 1]

    def test_lower_vtime_pops_first(self):
        q = GlobalVtimeQueue()
        q.charge(1)               # key 1 ran one slice, key 2 ran two
        q.charge(2)
        q.charge(2)
        q.push(2)
        q.push(1)
        assert q.pop()[0] == 1

    def test_charge_ratchets_the_clock(self):
        q = GlobalVtimeQueue()
        v = q.charge(5)
        assert v == SLICE_US and q.vtime_now == SLICE_US
        q.charge(6)                      # key 6 starts at the clock
        assert q.vtime_now == 2 * SLICE_US
        q.charge(5, amount_us=100)       # key 5 is still behind
        assert q.vtime_now == 2 * SLICE_US   # the clock never rewinds

    def test_push_clamps_lag(self):
        q = GlobalVtimeQueue()
        q.charge(2)               # key 2 ran once, long ago
        for _ in range(50):
            q.charge(1)           # the clock races ahead
        vt = q.push(2)            # key 2's stale vtime is clamped
        assert q.vtime_now - vt == q.max_lag_us

    def test_pop_empty_is_none_and_payloads_survive(self):
        q = GlobalVtimeQueue()
        assert q.pop() is None
        q.push(4, payload="p")
        assert q.pop() == (4, "p")

    def test_weight_divides_charge(self):
        q = GlobalVtimeQueue()
        assert q.charge(1, amount_us=1000, weight=2) == 500

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            GlobalVtimeQueue(slice_us=0)
        q = GlobalVtimeQueue()
        with pytest.raises(ValueError):
            q.charge(1, weight=0)
        with pytest.raises(ValueError):
            q.charge(1, amount_us=-5)

    def test_forget_resets_a_key_to_the_clock(self):
        q = GlobalVtimeQueue()
        q.charge(1)
        q.forget(1)
        assert q.vtime_of(1) == q.vtime_now


class TestNestMasks:
    def test_promote_moves_reserve_to_primary(self):
        m = NestMasks(r_max=4)
        m.admit_reserve(2)
        m.promote(2)
        assert m.primary == {2} and m.reserve == set()

    def test_promote_requires_reserve_membership(self):
        m = NestMasks(r_max=4)
        with pytest.raises(ValueError):
            m.promote(0)

    def test_expand_rejects_existing_members(self):
        m = NestMasks(r_max=4)
        m.expand(1)
        with pytest.raises(ValueError):
            m.expand(1)

    def test_demote_parks_in_reserve_until_full(self):
        m = NestMasks(r_max=1)
        m.expand(0)
        m.expand(1)
        assert m.demote(0) is True
        assert m.demote(1) is False      # reserve full: dropped entirely
        assert m.reserve == {0} and m.primary == set()

    def test_demote_requires_primary_membership(self):
        m = NestMasks(r_max=4)
        with pytest.raises(ValueError):
            m.demote(5)

    def test_admit_reserve_respects_bound_and_membership(self):
        m = NestMasks(r_max=1)
        assert m.admit_reserve(0) is True
        assert m.admit_reserve(0) is False   # already a member
        assert m.admit_reserve(1) is False   # bound reached
        m.expand(2)
        assert m.admit_reserve(2) is False   # in primary

    def test_reserve_disabled_never_admits(self):
        m = NestMasks(r_max=4, reserve_enabled=False)
        assert m.admit_reserve(0) is False
        m.expand(1)
        assert m.demote(1) is False
        m.check()

    def test_evict_clears_both_masks(self):
        m = NestMasks(r_max=4)
        m.expand(0)
        m.admit_reserve(1)
        assert m.evict(0) and m.evict(1) and not m.evict(2)
        m.check()

    def test_check_convicts_corrupted_state(self):
        m = NestMasks(r_max=1)
        m.primary.add(0)
        m.reserve.add(0)
        with pytest.raises(AssertionError):
            m.check()


class TestSelection:
    def test_first_fork_falls_through_to_cfs_into_reserve(self):
        eng, kern, policy = make()
        cpu = policy.select_cpu_fork(noop_task(kern), parent_cpu=0)
        assert policy.metrics.counters()["cfs_fallbacks"] == 1
        assert cpu in policy.reserve

    def test_reserve_hit_promotes(self):
        eng, kern, policy = make()
        policy._masks.admit_reserve(2)
        cpu = policy.select_cpu_fork(noop_task(kern), parent_cpu=0)
        assert cpu == 2
        assert 2 in policy.primary and 2 not in policy.reserve
        assert policy.metrics.counters()["reserve_hits"] == 1

    def test_primary_searched_before_reserve(self):
        eng, kern, policy = make()
        policy._masks.expand(3)
        policy._masks.admit_reserve(2)
        cpu = policy.select_cpu_fork(noop_task(kern), parent_cpu=0)
        assert cpu == 3
        assert policy.metrics.counters()["primary_hits"] == 1

    def test_prev_cpu_preferred_inside_primary(self):
        eng, kern, policy = make()
        policy._masks.expand(1)
        policy._masks.expand(5)
        t = noop_task(kern, prev=5)
        assert policy.select_cpu_wakeup(t, waker_cpu=0) == 5

    def test_impatient_task_expands_via_cfs(self):
        eng, kern, policy = make(NestParams(r_impatient=2))
        policy._masks.expand(0)
        occupy(kern, 0)     # the only primary core is busy
        t = noop_task(kern, prev=None)
        t.impatience = 2
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        c = policy.metrics.counters()
        assert c["impatient_placements"] == 1 and c["cfs_fallbacks"] == 1
        assert cpu in policy.primary      # direct expansion
        assert t.impatience == 0

    def test_failed_primary_search_builds_impatience(self):
        eng, kern, policy = make()
        t = noop_task(kern)
        policy.select_cpu_wakeup(t, waker_cpu=0)   # cfs fallback
        assert t.impatience == 1

    def test_busy_pick_enters_the_global_queue(self):
        eng, kern, policy = make()
        for cpu in range(MACHINE.topology.n_cpus):
            occupy(kern, cpu)
        policy.select_cpu_fork(noop_task(kern), parent_cpu=0)
        assert policy.metrics.counters()["vtime_enqueues"] == 1
        assert len(policy._queue) == 1

    def test_self_check_passes_after_selections(self):
        eng, kern, policy = make()
        for i in range(6):
            policy.select_cpu_fork(noop_task(kern, f"t{i}"), parent_cpu=0)
        policy.check_invariants()


class TestCompactionTimer:
    def test_untouched_primary_core_is_demoted_on_fire(self):
        eng, kern, policy = make()
        policy._masks.expand(0)
        policy.on_exit_idle(0)
        c = policy.metrics.counters()
        assert c["compact_arms"] == 1
        eng.run()
        c = policy.metrics.counters()
        assert c["compactions"] == 1 and c["compact_cancels"] == 0
        assert 0 not in policy.primary and 0 in policy.reserve

    def test_reused_core_cancels_the_timer(self):
        eng, kern, policy = make()
        policy._masks.expand(0)
        policy.on_exit_idle(0)
        occupy(kern, 0)          # reused before the timer fires
        eng.run()
        c = policy.metrics.counters()
        assert c["compact_cancels"] >= 1
        # The hog ran to completion and the core idled again; the
        # re-armed timer eventually demoted it.
        assert c["compactions"] <= c["compact_arms"]

    def test_fire_delay_matches_p_remove_ticks(self):
        eng, kern, policy = make(NestParams(p_remove_ticks=3.0))
        policy._masks.expand(0)
        policy.on_exit_idle(0)
        eng.run()
        assert eng.now == 3 * TICK_US

    def test_double_arming_is_suppressed(self):
        eng, kern, policy = make()
        policy._masks.expand(0)
        policy.on_exit_idle(0)
        policy.on_exit_idle(0)
        assert policy.metrics.counters()["compact_arms"] == 1

    def test_offline_eviction_disarms_and_clears_masks(self):
        eng, kern, policy = make()
        policy._masks.expand(0)
        policy._masks.admit_reserve(1)
        policy.on_exit_idle(0)
        kern.set_cpu_offline(0)
        assert 0 not in policy.primary
        eng.run()
        c = policy.metrics.counters()
        assert c["compactions"] == 0 and c["compact_cancels"] == 0
        assert c["offline_evictions"] == 1

    def test_compaction_disabled_never_arms(self):
        eng, kern, policy = make(NestParams().without("compaction"))
        policy._masks.expand(0)
        policy.on_exit_idle(0)
        assert policy.metrics.counters()["compact_arms"] == 0


class TestVtimePull:
    def test_idle_core_pulls_the_queued_task(self):
        eng, kern, policy = make()
        occupy(kern, 0)
        waiting = noop_task(kern, "waiting")
        kern.enqueue(waiting, 0)         # queued behind the hog
        policy._queue.push(waiting.tid, (waiting, 0))
        policy._pull_fired(8)            # idle core on the other die
        assert policy.metrics.counters()["vtime_pulls"] == 1
        assert kern.rqs[0].nr_queued == 0
        assert kern.cpus[8].current is waiting or waiting.prev_cpu == 8

    def test_stale_entries_are_discarded(self):
        eng, kern, policy = make()
        occupy(kern, 0)
        waiting = noop_task(kern, "waiting")
        kern.enqueue(waiting, 0)
        policy._queue.push(waiting.tid, (waiting, 3))   # wrong cpu: stale
        policy._pull_fired(8)
        assert policy.metrics.counters()["vtime_pulls"] == 0
        assert len(policy._queue) == 0   # the stale entry was consumed

    def test_busy_core_never_pulls(self):
        eng, kern, policy = make()
        occupy(kern, 0)
        occupy(kern, 8)
        waiting = noop_task(kern, "waiting")
        kern.enqueue(waiting, 0)
        policy._queue.push(waiting.tid, (waiting, 0))
        policy._pull_fired(8)
        assert policy.metrics.counters()["vtime_pulls"] == 0
        assert len(policy._queue) == 1   # entry kept for a real idle core

    def test_pull_respects_the_min_vtime_order(self):
        eng, kern, policy = make()
        occupy(kern, 0)
        old = noop_task(kern, "old")
        new = noop_task(kern, "new")
        kern.enqueue(old, 0)
        kern.enqueue(new, 0)
        policy._queue.charge(old.tid)    # old: one slice
        policy._queue.charge(new.tid)    # new: two slices (more vtime)
        policy._queue.charge(new.tid)
        policy._queue.push(new.tid, (new, 0))
        policy._queue.push(old.tid, (old, 0))
        policy._pull_fired(8)
        assert kern.cpus[8].current is old or old.prev_cpu == 8
        assert kern.rqs[0].nr_queued == 1


class TestEndToEnd:
    SCENARIO = RunSpec(workload="dacapo-h2", machine="ryzen_4650g",
                       scheduler="scxnest", governor="schedutil", seed=3,
                       scale=0.1)

    def test_reference_scenario_is_oracle_clean(self):
        art = run_scenario(self.SCENARIO)
        assert art.error is None
        assert check_run(art) == []

    def test_reference_scenario_exercises_the_machinery(self):
        art = run_scenario(self.SCENARIO)
        m = art.result.metrics
        for counter in ("scxnest.primary_hits", "scxnest.reserve_hits",
                        "scxnest.impatient_placements",
                        "scxnest.compactions", "scxnest.compact_cancels",
                        "scxnest.vtime_enqueues"):
            assert m[counter]["value"] > 0, counter

    def test_transition_events_carry_primary_size(self):
        art = run_scenario(self.SCENARIO)
        size = 0
        for ev in art.events:
            if ev.kind in oev.SCXNEST_PRIMARY_ADD_KINDS:
                size += 1
                assert ev.value == size
            elif ev.kind in oev.SCXNEST_PRIMARY_REMOVE_KINDS:
                size -= 1
                assert ev.value == size
            elif ev.kind == oev.NEST_OFFLINE_EVICT:
                size = ev.value

    def test_registry_resolution(self):
        policy = make_registered_policy("scxnest")
        assert isinstance(policy, ScxNestPolicy)

    def test_nest_params_override_reaches_the_policy(self):
        policy = make_registered_policy(
            "scxnest", NestParams(r_max=2, r_impatient=1))
        assert policy.params.r_max == 2
        assert policy.params.r_impatient == 1

"""Tests for the Nest policy state machine (paper §3)."""

import pytest

from repro.core.nest import NestPolicy
from repro.core.params import DEFAULT_PARAMS, NestParams
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.sim.clock import TICK_US
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


def make(params=None):
    eng = Engine(0)
    policy = NestPolicy(params or NestParams())
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


class TestNestGrowth:
    def test_first_fork_goes_through_cfs_into_reserve(self):
        eng, kern, policy = make()
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert policy.stats["cfs_fallbacks"] == 1
        assert cpu in policy.reserve
        assert policy.home_cpu == 0

    def test_reserve_hit_promotes_to_primary(self):
        eng, kern, policy = make()
        policy.reserve.add(2)
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu == 2
        assert 2 in policy.primary and 2 not in policy.reserve
        assert policy.stats["reserve_hits"] == 1

    def test_primary_searched_first(self):
        eng, kern, policy = make()
        policy.primary.add(3)
        policy.reserve.add(2)
        kern.rqs[3].last_busy_us = 0
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu == 3
        assert policy.stats["primary_hits"] == 1

    def test_reserve_bounded_by_r_max(self):
        eng, kern, policy = make(NestParams(r_max=2))
        for i in range(4):
            t = noop_task(kern, f"t{i}")
            cpu = policy.select_cpu_fork(t, parent_cpu=0)
            occupy(kern, cpu)   # keep it busy so the next fork goes to CFS
        assert len(policy.reserve) <= 2

    def test_busy_primary_cores_skipped(self):
        eng, kern, policy = make()
        policy.primary.update({1, 2})
        occupy(kern, 1)
        kern.rqs[2].last_busy_us = kern.engine.now
        t = noop_task(kern)
        assert policy.select_cpu_fork(t, parent_cpu=0) == 2


class TestCompaction:
    def test_stale_primary_core_demoted_on_touch(self):
        """A stale core is demoted when a task trips over it; since it is
        then the only reserve core, the same search may promote it back
        (Figure 1's reserve->primary arrow)."""
        eng, kern, policy = make()
        policy.primary.update({1})
        # Make core 1 stale: last used long ago.
        kern.rqs[1].last_busy_us = 0
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert policy.stats["compactions"] >= 1
        assert cpu == 1 and policy.stats["reserve_hits"] == 1

    def test_stale_core_skipped_when_alternatives_exist(self):
        eng, kern, policy = make()
        policy.primary.update({1, 2})
        kern.rqs[1].last_busy_us = 0            # stale
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        kern.rqs[2].last_busy_us = eng.now      # fresh
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu == 2
        assert 1 in policy.reserve and 1 not in policy.primary

    def test_fresh_primary_core_not_demoted(self):
        eng, kern, policy = make()
        policy.primary.add(1)
        kern.rqs[1].last_busy_us = kern.engine.now
        t = noop_task(kern)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu == 1 and 1 in policy.primary

    def test_compaction_disabled_by_ablation(self):
        eng, kern, policy = make(NestParams(compaction_enabled=False))
        policy.primary.add(1)
        kern.rqs[1].last_busy_us = 0
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        t = noop_task(kern)
        assert policy.select_cpu_fork(t, parent_cpu=0) == 1

    def test_demote_drops_core_when_reserve_full(self):
        eng, kern, policy = make(NestParams(r_max=1))
        policy.reserve.add(5)
        policy.primary.add(1)
        kern.rqs[1].last_busy_us = 0
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        t = noop_task(kern)
        policy.select_cpu_fork(t, parent_cpu=0)
        assert 1 not in policy.primary and 1 not in policy.reserve


class TestAttachment:
    def test_attached_core_is_first_choice(self):
        eng, kern, policy = make()
        policy.primary.update({2, 3})
        kern.rqs[2].last_busy_us = kern.engine.now
        kern.rqs[3].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=3)
        t.record_core(2)
        t.record_core(2)   # attached to 2
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu == 2
        assert policy.stats["attachment_hits"] == 1

    def test_attachment_requires_primary_membership(self):
        eng, kern, policy = make()
        policy.primary.add(3)
        kern.rqs[3].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=3)
        t.record_core(2)
        t.record_core(2)   # attached to 2, but 2 not in the primary nest
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu == 3

    def test_attached_core_reclaimable_even_if_stale(self):
        """§3.3: a task can reclaim its attached core even when the core is
        compaction-eligible."""
        eng, kern, policy = make()
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = 0
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        t = noop_task(kern, prev=2)
        t.record_core(2)
        t.record_core(2)
        assert policy.select_cpu_wakeup(t, waker_cpu=0) == 2

    def test_history_needs_two_consecutive_runs(self):
        eng, kern, policy = make()
        t = noop_task(kern)
        t.record_core(1)
        t.record_core(2)
        assert t.attached_core is None
        t.record_core(2)
        assert t.attached_core == 2

    def test_attachment_disabled_by_ablation(self):
        eng, kern, policy = make(NestParams(attachment_enabled=False))
        policy.primary.update({2})
        kern.rqs[2].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=2)
        t.record_core(2)
        t.record_core(2)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert policy.stats["attachment_hits"] == 0
        assert cpu == 2   # still found via the normal primary search


class TestImpatience:
    def test_busy_prev_increments_impatience(self):
        eng, kern, policy = make()
        occupy(kern, 2)
        policy.primary.update({2, 3})
        kern.rqs[3].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=2)
        policy.select_cpu_wakeup(t, waker_cpu=0)
        assert t.impatience == 1

    def test_idle_prev_resets_impatience(self):
        eng, kern, policy = make()
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=2)
        t.impatience = 1
        policy.select_cpu_wakeup(t, waker_cpu=0)
        assert t.impatience == 0

    def test_impatient_task_expands_primary_directly(self):
        """§3.1: an impatient task skips the primary nest; its core joins
        the primary nest directly and the counter resets."""
        eng, kern, policy = make()
        occupy(kern, 2)
        policy.primary.add(2)
        t = noop_task(kern, prev=2)
        t.impatience = NestParams().r_impatient   # will exceed on this wakeup
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu in policy.primary
        assert t.impatience == 0
        assert policy.stats["impatient_placements"] == 1

    def test_impatience_disabled_by_ablation(self):
        eng, kern, policy = make(NestParams(impatience_enabled=False))
        occupy(kern, 2)
        policy.primary.update({2, 3})
        kern.rqs[3].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=2)
        t.impatience = 99
        policy.select_cpu_wakeup(t, waker_cpu=0)
        assert policy.stats["impatient_placements"] == 0


class TestExitDemotion:
    def test_exit_leaves_idle_core_demoted(self):
        eng, kern, policy = make()
        policy.primary.add(1)
        policy.on_exit_idle(1)
        assert 1 not in policy.primary
        assert 1 in policy.reserve
        assert policy.stats["exit_demotions"] == 1

    def test_exit_on_busy_core_keeps_primary(self):
        eng, kern, policy = make()
        policy.primary.add(1)
        occupy(kern, 1)
        policy.on_exit_idle(1)
        assert 1 in policy.primary


class TestFlagAndSpin:
    def test_placement_pending_blocks_selection(self):
        eng, kern, policy = make()
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = kern.engine.now
        kern.rqs[2].placement_pending = 1
        t = noop_task(kern, prev=2)
        assert policy.select_cpu_wakeup(t, waker_cpu=0) != 2

    def test_flag_ignored_when_disabled(self):
        eng, kern, policy = make(NestParams(placement_flag=False))
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = kern.engine.now
        kern.rqs[2].placement_pending = 1
        t = noop_task(kern, prev=2)
        assert policy.select_cpu_wakeup(t, waker_cpu=0) == 2

    def test_spin_ticks_from_params(self):
        _, _, policy = make()
        assert policy.spin_ticks() == DEFAULT_PARAMS.s_max_ticks
        _, _, nospin = make(NestParams(spin_enabled=False))
        assert nospin.spin_ticks() == 0

    def test_nest_sizes(self):
        _, _, policy = make()
        policy.primary.update({1, 2})
        policy.reserve.add(3)
        assert policy.nest_sizes() == (2, 1)

    def test_policy_name(self):
        _, _, policy = make()
        assert policy.name == "Nest"


class TestWakeupWorkConservation:
    def test_fallback_crosses_dies_when_enabled(self):
        eng, kern, policy = make()
        die0 = kern.topology.die_span_of_cpu[0]
        for c in die0:
            occupy(kern, c)
        t = noop_task(kern, prev=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu not in die0

    def test_fallback_stays_on_die_when_disabled(self):
        eng, kern, policy = make(
            NestParams(wakeup_work_conservation=False))
        die0 = kern.topology.die_span_of_cpu[0]
        for c in die0:
            occupy(kern, c)
        t = noop_task(kern, prev=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu in die0

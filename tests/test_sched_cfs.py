"""Tests for the CFS placement model (§2.1 behaviours)."""

import pytest

from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.sched.cfs import CfsPolicy, WAKEUP_SCAN_LIMIT, _qload, _rotate
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


def make():
    eng = Engine(0)
    policy = CfsPolicy()
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    return eng, kern, policy


def occupy(kern, cpu):
    """Install a fake running task on a cpu."""

    def hog(api):
        yield Compute(ms_of_work(1000))

    t = kern._new_task(hog, f"hog{cpu}", None)
    kern.enqueue(t, cpu)
    return t


class TestRotate:
    def test_rotate_starts_at_member(self):
        assert _rotate((0, 1, 2, 3), 2) == (2, 3, 0, 1)

    def test_rotate_nonmember_starts_after(self):
        assert _rotate((0, 2, 4, 6), 3) == (4, 6, 0, 2)

    def test_rotate_beyond_end_wraps(self):
        assert _rotate((0, 1, 2), 9) == (0, 1, 2)

    def test_rotate_sorts_input(self):
        assert _rotate((3, 1, 2), 2) == (2, 3, 1)


class TestQload:
    def test_quantisation_buckets(self):
        assert _qload(0.0) == _qload(31.0)
        assert _qload(31.0) < _qload(33.0)


class TestForkPlacement:
    def test_idle_machine_fork_lands_near_parent(self):
        eng, kern, policy = make()

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        # Same socket as the parent on an idle machine.
        assert kern.topology.socket_of(cpu) == 0

    def test_fork_avoids_busy_cpus(self):
        eng, kern, policy = make()
        for c in (0, 1):
            occupy(kern, c)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert kern.cpu_is_idle(cpu)

    def test_fork_prefers_long_idle_over_recently_used(self):
        """The §2.1 anti-reuse bias: recent load disfavours warm cores."""
        eng, kern, policy = make()
        # Give cpu 1 a recent-load footprint.
        kern.rqs[1].busy_avg.add(500)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu != 1

    def test_fork_stays_local_when_idle_counts_equal(self):
        """v5.9 find_idlest_group: the local group wins unless another has
        strictly more idle cpus."""
        eng, kern, policy = make()

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=4)   # socket 1 cpu
        assert kern.topology.socket_of(cpu) == 1

    def test_fork_crosses_socket_when_local_fuller(self):
        eng, kern, policy = make()
        for c in (0, 1, 2):
            occupy(kern, c)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert kern.topology.socket_of(cpu) == 1


class TestWakeupPlacement:
    def _task(self, kern, prev_cpu):
        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "w", None)
        t.prev_cpu = prev_cpu
        t.util_est = 300.0
        return t

    def test_idle_prev_wins(self):
        eng, kern, policy = make()
        t = self._task(kern, prev_cpu=3)
        assert policy.select_cpu_wakeup(t, waker_cpu=1) == 3

    def test_busy_prev_falls_to_die_scan(self):
        eng, kern, policy = make()
        occupy(kern, 3)
        t = self._task(kern, prev_cpu=3)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=1)
        assert cpu != 3
        assert kern.topology.die_of(cpu) == kern.topology.die_of(3)

    def test_wakeup_not_work_conserving_across_dies(self):
        """§2.1: wakeup only considers the target die; with the whole die
        busy the task queues there even though the other die is idle."""
        eng, kern, policy = make()
        die = kern.topology.die_span_of_cpu[0]
        for c in die:
            occupy(kern, c)
        t = self._task(kern, prev_cpu=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu in die   # stuck on the busy die

    def test_nest_extension_searches_all_dies(self):
        """The same scenario through the all-dies search finds the idle
        socket (Nest's §3.4 work conservation)."""
        eng, kern, policy = make()
        die = kern.topology.die_span_of_cpu[0]
        for c in die:
            occupy(kern, c)
        cpu = policy.select_idle_sibling(0, all_dies=True,
                                         check_pending=True)
        assert cpu not in die

    def test_prefers_core_with_idle_sibling(self):
        eng, kern, policy = make()
        occupy(kern, 0)     # physical core 0: thread 8 is its sibling
        t = self._task(kern, prev_cpu=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        # The chosen cpu's sibling should be idle (select_idle_core).
        sib = kern.topology.sibling_of(cpu)
        assert kern.cpu_is_idle(cpu) and kern.cpu_is_idle(sib)

    def test_pending_flag_respected_when_asked(self):
        eng, kern, policy = make()
        kern.rqs[2].placement_pending = 1
        assert not policy._usable_idle(2, check_pending=True)
        assert policy._usable_idle(2, check_pending=False)

    def test_scan_limit_constant_sane(self):
        assert 1 <= WAKEUP_SCAN_LIMIT <= 64

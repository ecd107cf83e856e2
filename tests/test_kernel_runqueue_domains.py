"""Tests for the runqueue and the scheduling-domain hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.governors.performance import PerformanceGovernor
from repro.hw.machines import ALL_MACHINES, XEON_5218_2S
from repro.hw.topology import Topology
from repro.kernel.domains import Domain, DomainHierarchy
from repro.kernel.runqueue import RunQueue, SLEEPER_BONUS_US
from repro.kernel.scheduler_core import Kernel
from repro.kernel.task import Task
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine


def mk_task(tid, vruntime=0.0):
    t = Task(tid, f"t{tid}", iter(()), None, 0)
    t.vruntime = vruntime
    return t


def mc_domain(h, cpu):
    """The die-level (last-level-cache) domain of ``cpu``."""
    (mc,) = [d for d in h.domains_of(cpu) if d.name == "MC"]
    return mc


class TestRunQueue:
    def test_pop_smallest_vruntime(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 300))
        rq.push(mk_task(2, 100))
        rq.push(mk_task(3, 200))
        assert [rq.pop().tid for _ in range(3)] == [2, 3, 1]

    def test_fifo_on_equal_vruntime(self):
        rq = RunQueue(0)
        for tid in (1, 2, 3):
            rq.push(mk_task(tid, 50))
        assert [rq.pop().tid for _ in range(3)] == [1, 2, 3]

    def test_double_push_rejected(self):
        rq = RunQueue(0)
        t = mk_task(1)
        rq.push(t)
        with pytest.raises(RuntimeError):
            rq.push(t)

    def test_min_vruntime_advances(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 500))
        rq.pop()
        assert rq.min_vruntime == 500

    def test_sleeper_bonus_clamp(self):
        """A long sleeper re-enters near min_vruntime minus the bonus."""
        rq = RunQueue(0)
        rq.min_vruntime = 100_000
        sleeper = mk_task(1, 0.0)
        rq.push(sleeper)
        assert sleeper.vruntime == 100_000 - SLEEPER_BONUS_US

    def test_no_clamp_for_fresh_vruntime(self):
        rq = RunQueue(0)
        rq.min_vruntime = 100
        t = mk_task(1, 5_000)
        rq.push(t)
        assert t.vruntime == 5_000

    def test_remove(self):
        rq = RunQueue(0)
        a, b = mk_task(1), mk_task(2)
        rq.push(a)
        rq.push(b)
        assert rq.remove(a)
        assert not rq.remove(a)
        assert rq.pop() is b
        assert rq.pop() is None

    def test_steal_one_takes_largest_vruntime(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 10))
        rq.push(mk_task(2, 99))
        rq.push(mk_task(3, 50))
        assert rq.steal_one().tid == 2
        assert rq.nr_queued == 2

    def test_steal_from_empty(self):
        assert RunQueue(0).steal_one() is None

    def test_queued_tasks_listing(self):
        rq = RunQueue(0)
        rq.push(mk_task(1))
        rq.push(mk_task(2))
        rq.pop()
        assert [t.tid for t in rq.queued_tasks()] == [2]

    def test_peek_skips_removed(self):
        rq = RunQueue(0)
        a, b = mk_task(1, 1), mk_task(2, 2)
        rq.push(a)
        rq.push(b)
        rq.remove(a)
        assert rq.peek() is b

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    def test_pop_order_is_sorted(self, vruntimes):
        """Property: pops are non-decreasing in effective vruntime."""
        rq = RunQueue(0)
        for i, vr in enumerate(vruntimes):
            rq.push(mk_task(i, vr))
        out = []
        while (t := rq.pop()) is not None:
            out.append(t.vruntime)
        assert out == sorted(out)
        assert len(out) == len(vruntimes)


class TestDomains:
    def test_two_socket_smt_levels(self):
        h = DomainHierarchy(Topology(2, 4, 2))
        names = [d.name for d in h.domains_of(0)]
        assert names == ["SMT", "MC", "NUMA"]

    def test_single_socket_has_no_numa(self):
        h = DomainHierarchy(Topology(1, 4, 2))
        assert [d.name for d in h.domains_of(0)] == ["SMT", "MC"]

    def test_smt1_has_no_smt_level(self):
        h = DomainHierarchy(Topology(2, 4, 1))
        assert [d.name for d in h.domains_of(0)] == ["MC", "NUMA"]

    def test_smt_domain_is_sibling_pair(self):
        h = DomainHierarchy(Topology(2, 4, 2))
        smt = h.domains_of(1)[0]
        assert smt.span == (1, 9)
        assert smt.groups == ((1,), (9,))

    def test_mc_groups_are_physical_cores(self):
        h = DomainHierarchy(Topology(1, 2, 2))
        mc = h.domains_of(0)[-1]
        assert mc.name == "MC"
        assert sorted(mc.span) == [0, 1, 2, 3]
        assert sorted(mc.groups) == [(0, 2), (1, 3)]

    def test_numa_groups_are_sockets(self):
        topo = Topology(2, 2, 2)
        h = DomainHierarchy(topo)
        numa = h.domains_of(0)[-1]
        assert numa.name == "NUMA"
        assert len(numa.groups) == 2
        assert sorted(sum(numa.groups, ())) == topo.all_cpus()

    def test_die_span(self):
        topo = Topology(2, 4, 2)
        h = DomainHierarchy(topo)
        for cpu in topo.all_cpus():
            assert set(mc_domain(h, cpu).span) == \
                set(topo.die_span_of_cpu[cpu]) == \
                set(topo.cpus_in_socket(topo.socket_of(cpu)))

    def test_groups_partition_span(self):
        for topo in (Topology(2, 8, 2), Topology(4, 5, 2), Topology(1, 6, 1)):
            h = DomainHierarchy(topo)
            for cpu in topo.all_cpus():
                for dom in h.domains_of(cpu):
                    assert sorted(sum(dom.groups, ())) == sorted(dom.span)
                    assert cpu in dom.span


def old_domain_stacks(topo):
    """Verbatim copy of the earlier per-hierarchy build: a fresh list of
    Domains per cpu, recomputing each socket's MC groups for every cpu."""
    socket_spans = {s: tuple(sorted(topo.cpus_in_socket(s)))
                    for s in topo.sockets()}
    machine_span = tuple(range(topo.n_cpus))
    per_cpu = {}
    for cpu in range(topo.n_cpus):
        stack = []
        level = 0
        if topo.smt == 2:
            smt_span = tuple(sorted(topo.smt_siblings(cpu)))
            stack.append(Domain(
                name="SMT", level=level, span=smt_span,
                groups=tuple((c,) for c in smt_span)))
            level += 1
        socket = topo.socket_of(cpu)
        mc_span = socket_spans[socket]
        if topo.smt == 2:
            mc_groups = tuple(
                tuple(sorted(topo.smt_siblings(c)))
                for c in mc_span if topo.thread_of(c) == 0)
        else:
            mc_groups = tuple((c,) for c in mc_span)
        stack.append(Domain(
            name="MC", level=level, span=mc_span, groups=mc_groups))
        level += 1
        if topo.n_sockets > 1:
            numa_groups = tuple(socket_spans[s] for s in topo.sockets())
            stack.append(Domain(
                name="NUMA", level=level, span=machine_span,
                groups=numa_groups))
        per_cpu[cpu] = stack
    return per_cpu


MODELLED = sorted(ALL_MACHINES.items())


class TestSharedDomainStacks:
    """Stacks are built once per topology and shared as tuples."""

    @pytest.mark.parametrize("key,machine", MODELLED)
    def test_stacks_match_per_cpu_build(self, key, machine):
        topo = machine.topology
        h = DomainHierarchy(topo)
        old = old_domain_stacks(topo)
        for cpu in topo.all_cpus():
            assert isinstance(h.domains_of(cpu), tuple)
            assert h.domains_of(cpu) == tuple(old[cpu])

    @pytest.mark.parametrize("key,machine", MODELLED)
    def test_die_span_is_the_mc_span(self, key, machine):
        topo = machine.topology
        h = DomainHierarchy(topo)
        for cpu in topo.all_cpus():
            assert mc_domain(h, cpu).span == topo.die_span_of_cpu[cpu]

    @pytest.mark.parametrize("key,machine", MODELLED)
    def test_kernel_and_freqmodel_bind_the_topology_tables(self, key,
                                                           machine):
        """One set of tables per topology: the hot-path names are the
        topology's own tuples, not copies."""
        topo = machine.topology
        kern = Kernel(Engine(0), machine, CfsPolicy(), PerformanceGovernor())
        assert kern.topology is topo
        assert kern.pc_of is topo.pc_of_cpu
        assert kern.die_of is topo.die_of_cpu
        assert kern.sibling_of is topo.sibling_of_cpu
        assert kern.die_span is topo.die_span_of_cpu
        assert kern.threads_of_pc is topo.threads_of_pc
        freq = kern.freq
        assert freq.topology is topo
        assert freq._pc_of is topo.pc_of_cpu
        assert freq._socket_of_pc is topo.socket_of_pc
        assert freq._siblings_of_pc is topo.threads_of_pc

    def test_kernels_on_one_machine_share_stacks(self):
        kernels = [Kernel(Engine(0), XEON_5218_2S, CfsPolicy(),
                          PerformanceGovernor()) for _ in range(2)]
        a, b = (k.domains for k in kernels)
        assert a is not b
        for cpu in (0, 17, 63):
            assert a.domains_of(cpu) is b.domains_of(cpu)
            assert kernels[0].die_span[cpu] is kernels[1].die_span[cpu]

    def test_equal_topologies_share_stacks(self):
        a = DomainHierarchy(Topology(2, 4, 2))
        b = DomainHierarchy(Topology(2, 4, 2))
        assert a.domains_of(5) is b.domains_of(5)
        assert DomainHierarchy(Topology(4, 2, 2)).domains_of(5) \
            != a.domains_of(5)

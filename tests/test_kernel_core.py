"""End-to-end tests of the kernel core: lifecycle, ticks, preemption,
blocking, barriers, channels, spinning, balancing."""

import pytest

from repro.governors.performance import PerformanceGovernor
from repro.governors.schedutil import SchedutilGovernor
from repro.hw.energy import PowerParams
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel, KernelConfig
from repro.kernel.syscalls import (Barrier, BarrierWait, Channel, Compute,
                                   Exit, Fork, Recv, Send, Sleep,
                                   WaitChildren, WaitTask, Yield)
from repro.kernel.task import TaskState
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.workloads.base import ms_of_work, us_of_work

TINY = Machine(
    name="tiny", cpu_model="Test CPU", microarchitecture="Test",
    topology=Topology(1, 2, 2), turbo=XEON_5218, pm=SPEED_SHIFT,
    power=PowerParams())

BIG = Machine(
    name="big", cpu_model="Test CPU", microarchitecture="Test",
    topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT,
    power=PowerParams())


def make_kernel(machine=TINY, policy=None, governor=None, config=None,
                seed=0):
    eng = Engine(seed)
    kern = Kernel(eng, machine, policy or CfsPolicy(),
                  governor or PerformanceGovernor(), config=config,
                  tracer=Tracer(machine.n_cpus, record_segments=True))
    return eng, kern


class TestBasicLifecycle:
    def test_single_compute_task_runs_and_exits(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(1.0))

        t = kern.spawn(beh, "solo")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED
        assert t.exited_us is not None
        assert kern.n_live == 0
        assert kern.n_runnable == 0

    def test_compute_time_scales_with_frequency(self):
        # At the all-core cap (2.8 GHz pre-sustain with performance
        # governor), 2.8M cycles take about 1 ms.
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(2_800_000)

        kern.spawn(beh, "t")
        end = kern.run_until_idle()
        assert 900 <= end <= 1_500

    def test_empty_behaviour_exits_immediately(self):
        eng, kern = make_kernel()

        def beh(api):
            return
            yield  # pragma: no cover

        t = kern.spawn(beh, "noop")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED

    def test_explicit_exit_action(self):
        eng, kern = make_kernel()
        after_exit = []

        def beh(api):
            yield Exit()
            after_exit.append(1)  # pragma: no cover

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert after_exit == []

    def test_sleep_blocks_for_duration(self):
        eng, kern = make_kernel()
        times = {}

        def beh(api):
            times["before"] = api.now
            yield Sleep(5_000)
            times["after"] = api.now

        kern.spawn(beh, "sleeper")
        kern.run_until_idle()
        assert times["after"] - times["before"] >= 5_000

    def test_stop_when_idle(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(us_of_work(100))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert eng.stop_reason == "workload-complete"


class TestForkAndWait:
    def test_fork_returns_child_task(self):
        eng, kern = make_kernel()
        seen = {}

        def child(api):
            yield Compute(us_of_work(50))

        def parent(api):
            c = yield Fork(child, name="kid")
            seen["child"] = c
            yield WaitChildren()
            seen["child_state"] = c.state

        kern.spawn(parent, "parent")
        kern.run_until_idle()
        assert seen["child"].name == "kid"
        assert seen["child_state"] is TaskState.EXITED

    def test_wait_children_with_no_children_continues(self):
        eng, kern = make_kernel()

        def parent(api):
            yield WaitChildren()
            yield Compute(us_of_work(10))

        t = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED

    def test_wait_task_specific(self):
        eng, kern = make_kernel()
        order = []

        def slow(api):
            yield Compute(ms_of_work(2.0))
            order.append("slow")

        def fast(api):
            yield Compute(us_of_work(50))
            order.append("fast")

        def parent(api):
            s = yield Fork(slow, name="slow")
            f = yield Fork(fast, name="fast")
            yield WaitTask(s)
            order.append("parent")

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert order.index("slow") < order.index("parent")

    def test_fork_runs_children_in_parallel(self):
        eng, kern = make_kernel()

        def child(api):
            yield Compute(ms_of_work(2.0))

        def parent(api):
            for _ in range(3):
                # Space the forks out (simultaneous forks legitimately race
                # for the same core, the paper's §3.4 collision).
                yield Compute(us_of_work(20))
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        end = kern.run_until_idle()
        # 3 x 2 ms of work on >= 3 effective cpus: far less than serial.
        serial_us = 3 * 2_000 * 1000 / 2_800
        assert end < serial_us * 0.8

    def test_task_tree_recorded(self):
        eng, kern = make_kernel()

        def child(api):
            yield Compute(us_of_work(10))

        def parent(api):
            yield Fork(child)
            yield WaitChildren()

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert len(p.children) == 1
        assert next(iter(p.children)).parent is p


class TestLiveChildCounter:
    """``Task.n_live_children`` counts children not yet EXITED."""

    def test_out_of_order_exits_wake_parent_after_the_last(self):
        eng, kern = make_kernel(BIG)
        seen = {}

        def child(api, ms):
            yield Compute(ms_of_work(ms))
            seen.setdefault("exits", []).append((ms, api.now))

        def parent(api):
            me = api.task
            for ms in (3.0, 1.0, 2.0):
                yield Compute(us_of_work(20))   # no fork collisions
                yield Fork(child, args=(ms,))
            seen["forked"] = me.n_live_children
            yield WaitChildren()
            seen["woke"] = api.now
            seen["after"] = me.n_live_children

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert seen["forked"] == 3
        assert [ms for ms, _ in seen["exits"]] == [1.0, 2.0, 3.0]
        assert seen["woke"] >= seen["exits"][-1][1]
        assert seen["after"] == 0
        assert p.n_live_children == 0

    def test_parent_without_children(self):
        eng, kern = make_kernel()

        def parent(api):
            yield WaitChildren()

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert p.state is TaskState.EXITED
        assert p.n_live_children == 0

    def test_grandchild_exit_leaves_grandparent_count(self):
        eng, kern = make_kernel()
        seen = {}

        def grandchild(api):
            yield Compute(us_of_work(10))

        def child(api):
            yield Fork(grandchild)
            yield WaitChildren()
            seen["child"] = api.task.n_live_children
            seen["grandparent"] = api.task.parent.n_live_children
            yield Compute(us_of_work(10))

        def grandparent(api):
            yield Fork(child)
            yield WaitChildren()

        g = kern.spawn(grandparent, "g")
        kern.run_until_idle()
        assert seen == {"child": 0, "grandparent": 1}
        assert g.n_live_children == 0

    def test_parent_exits_before_its_children(self):
        eng, kern = make_kernel()
        kids = []

        def child(api):
            yield Compute(ms_of_work(1.0))

        def parent(api):
            kids.append((yield Fork(child)))
            kids.append((yield Fork(child)))

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert p.exited_us < min(k.exited_us for k in kids)
        assert p.n_live_children == 0
        assert kern.n_live == 0


class TestChannels:
    def test_send_recv_roundtrip(self):
        eng, kern = make_kernel()
        got = []

        def receiver(api, ch):
            msg = yield Recv(ch)
            got.append(msg)

        def sender(api):
            ch = Channel()
            yield Fork(receiver, name="rx", args=(ch,))
            yield Compute(us_of_work(100))
            yield Send(ch, "hello")
            yield WaitChildren()

        kern.spawn(sender, "tx")
        kern.run_until_idle()
        assert got == ["hello"]

    def test_recv_of_buffered_message_does_not_block(self):
        eng, kern = make_kernel()
        got = []

        def beh(api):
            ch = Channel()
            yield Send(ch, 1)
            yield Send(ch, 2)
            got.append((yield Recv(ch)))
            got.append((yield Recv(ch)))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert got == [1, 2]

    def test_ping_pong(self):
        eng, kern = make_kernel()
        hops = []

        def ponger(api, ping, pong):
            for _ in range(3):
                yield Recv(ping)
                hops.append("pong")
                yield Send(pong, "p")

        def pinger(api):
            ping, pong = Channel(), Channel()
            yield Fork(ponger, name="pong", args=(ping, pong))
            for _ in range(3):
                yield Send(ping, "p")
                hops.append("ping")
                yield Recv(pong)
            yield WaitChildren()

        kern.spawn(pinger, "ping")
        kern.run_until_idle()
        assert hops.count("ping") == 3 and hops.count("pong") == 3


class TestBarriers:
    def test_barrier_synchronises(self):
        eng, kern = make_kernel(BIG)
        after = []

        def worker(api, barrier, wait_ms):
            yield Compute(ms_of_work(wait_ms))
            yield BarrierWait(barrier)
            after.append(api.now)

        def parent(api):
            b = Barrier(3)
            yield Fork(worker, args=(b, 0.5))
            yield Fork(worker, args=(b, 1.0))
            yield Fork(worker, args=(b, 2.0))
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert len(after) == 3
        # Everyone leaves the barrier close to the slowest arrival.
        assert max(after) - min(after) < 1_000

    def test_barrier_rounds(self):
        eng, kern = make_kernel(BIG)
        rounds_done = []

        def worker(api, barrier, idx):
            for r in range(3):
                yield Compute(us_of_work(100 * (idx + 1)))
                yield BarrierWait(barrier)
            rounds_done.append(idx)

        def parent(api):
            b = Barrier(2)
            yield Fork(worker, args=(b, 0))
            yield Fork(worker, args=(b, 1))
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert sorted(rounds_done) == [0, 1]


class TestPreemptionAndTicks:
    def test_timeslice_shares_one_cpu(self):
        """Two CPU hogs pinned by circumstance to one core both finish."""
        eng, kern = make_kernel(config=KernelConfig(newidle_balance=False,
                                                    periodic_balance_us=0))

        def hog(api):
            yield Compute(ms_of_work(20.0))

        def parent(api):
            yield Fork(hog)
            yield Fork(hog)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle(max_us=2_000_000)
        assert kern.n_live == 0

    def test_wakeup_preemption(self):
        """A task waking after a sleep preempts a long-running hog on its
        cpu when no other cpu is available."""
        eng, kern = make_kernel()
        wake_latency = {}

        def sleeper(api):
            yield Compute(us_of_work(100))
            t0 = api.now
            yield Sleep(1_000)
            wake_latency["v"] = api.task.wakeup_latency_us

        kern.spawn(sleeper, "s")
        kern.run_until_idle()
        assert wake_latency["v"] < 1_000

    def test_vruntime_accumulates(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(10))

        t = kern.spawn(beh, "t")
        kern.run_until_idle()
        assert t.vruntime > 0
        assert t.total_runtime_us > 0

    def test_total_cycles_accounted(self):
        eng, kern = make_kernel()
        work = ms_of_work(5.0)

        def beh(api):
            yield Compute(work)

        t = kern.spawn(beh, "t")
        kern.run_until_idle()
        assert t.total_cycles == pytest.approx(work, rel=0.01)


class TestYield:
    def test_yield_keeps_task_runnable(self):
        eng, kern = make_kernel()
        steps = []

        def beh(api):
            steps.append(1)
            yield Yield()
            steps.append(2)
            yield Compute(us_of_work(10))

        t = kern.spawn(beh, "y")
        kern.run_until_idle()
        assert steps == [1, 2]
        assert t.state is TaskState.EXITED


class TestSmtContention:
    def test_sibling_contention_slows_execution(self):
        """Two tasks on the two hyperthreads of one physical core run
        slower than two tasks on separate physical cores."""

        def run(machine, pin_same_core):
            eng, kern = make_kernel(
                machine, config=KernelConfig(newidle_balance=False,
                                             periodic_balance_us=0))

            def hog(api):
                yield Compute(ms_of_work(10.0))

            t1 = kern._new_task(hog, "a", None)
            t2 = kern._new_task(hog, "b", None)
            kern.enqueue(t1, 0)
            kern.enqueue(t2, 2 if pin_same_core else 1)  # 2 = sibling of 0
            kern.run_until_idle()
            return eng.now

        shared = run(TINY, True)
        separate = run(TINY, False)
        assert shared > separate * 1.3


class TestBalancing:
    def test_newidle_balance_pulls_queued_work(self):
        eng, kern = make_kernel(BIG)

        def hog(api):
            yield Compute(ms_of_work(5.0))

        # Overload cpu 0 artificially with direct enqueues.
        tasks = [kern._new_task(hog, f"h{i}", None) for i in range(4)]
        for t in tasks:
            kern.enqueue(t, 0)
        kern.run_until_idle()
        assert sum(t.n_migrations for t in tasks) > 0

    def test_periodic_balance_runs(self):
        eng, kern = make_kernel(
            BIG, config=KernelConfig(newidle_balance=False,
                                     periodic_balance_us=10_000))

        def hog(api):
            yield Compute(ms_of_work(40.0))

        tasks = [kern._new_task(hog, f"h{i}", None) for i in range(3)]
        for t in tasks:
            kern.enqueue(t, 0)
        kern.run_until_idle(max_us=3_000_000)
        assert sum(t.n_migrations for t in tasks) > 0


class TestAccountingInvariants:
    def test_runnable_counter_returns_to_zero(self):
        eng, kern = make_kernel(BIG)

        def child(api):
            yield Compute(us_of_work(200))
            yield Sleep(100)
            yield Compute(us_of_work(200))

        def parent(api):
            for _ in range(6):
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert kern.n_runnable == 0
        assert kern.n_live == 0

    def test_trace_segments_do_not_overlap_per_core(self):
        eng, kern = make_kernel(BIG, seed=3)

        def child(api):
            yield Compute(us_of_work(300))
            yield Sleep(150)
            yield Compute(us_of_work(300))

        def parent(api):
            for _ in range(8):
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        per_core = {}
        for seg in kern.tracer.segments:
            per_core.setdefault(seg.core, []).append((seg.start, seg.end))
        for spans in per_core.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_energy_accumulated(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(5))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert kern.energy.energy_joules > 0

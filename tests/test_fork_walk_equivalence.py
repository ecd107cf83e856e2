"""Same-choice pins for the CFS fork walk.

``_find_idlest_group`` and ``_find_idlest_cpu`` read a cpu's recent load
only where it can decide the choice (counts first, loads for tied groups
only; no busy loads once an idle cpu is best; stop at an idle cpu with no
quantized load).  The functions below are verbatim copies of the earlier
eager walk, which read every candidate's load; on seeded random kernel
states the two must choose the same cpu at every step.
"""

import random

import pytest

from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import E7_8870_V4_4S, XEON_5218_2S, Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.pelt import PeltAvg
from repro.kernel.runqueue import RunQueue
from repro.kernel.scheduler_core import Kernel
from repro.kernel.task import Task
from repro.sched.cfs import CfsPolicy, LOAD_EPSILON, _qload, _rotate
from repro.sim.engine import Engine


# ---- verbatim copies of the earlier eager walk -------------------------------

def old_select_cpu_fork(self, task, parent_cpu):
    kernel = self.kernel
    cpu = parent_cpu
    stack = kernel.domains.domains_of(cpu)
    # Walk from the highest domain down to the lowest.
    for level in range(len(stack) - 1, -1, -1):
        dom = stack[level]
        group = old_find_idlest_group(self, dom.groups, cpu)
        cpu = old_find_idlest_cpu(self, group, from_cpu=parent_cpu)
        stack = kernel.domains.domains_of(cpu)
    return cpu


def old_find_idlest_group(self, groups, current_cpu):
    kernel = self.kernel
    now = kernel.engine.now
    rqs = kernel.rqs
    cpus = kernel.cpus
    online = kernel.cpu_online
    local = None
    best = None
    best_key = None
    for group in groups:
        if current_cpu in group:
            local = group
            continue
        idle_cpus = 0
        running = 0
        load = 0.0
        n_online = 0
        for c in group:
            if not online[c]:
                continue
            n_online += 1
            rq = rqs[c]
            q = rq.nr_queued
            if cpus[c].current is None:
                if q == 0:
                    idle_cpus += 1
                running += q
            else:
                running += q + 1
            load += rq.load_avg(now)
        if n_online == 0:
            continue
        key = (-idle_cpus, running, _qload(load))
        if best_key is None or key < best_key:
            best, best_key = group, key
    if local is None:
        return best
    if best is None:
        return local
    local_idle = sum(1 for c in local
                     if online[c] and cpus[c].current is None
                     and rqs[c].nr_queued == 0)
    if local_idle >= -best_key[0]:
        return local
    return best


def old_find_idlest_cpu(self, group, from_cpu):
    kernel = self.kernel
    now = kernel.engine.now
    rqs = kernel.rqs
    cpus = kernel.cpus
    online = kernel.cpu_online
    check_pending = self.check_pending_default
    best = None
    best_key = None
    for rank, c in enumerate(_rotate(group, from_cpu)):
        if not online[c]:
            continue
        rq = rqs[c]
        q = rq.nr_queued
        busy = cpus[c].current is not None
        if not busy and q == 0 \
                and not (check_pending and rq.placement_pending > 0):
            key = (0, 0, _qload(rq.load_avg(now)), rank)
        else:
            key = (1, q + (1 if busy else 0),
                   _qload(rq.load_avg(now)), rank)
        if best_key is None or key < best_key:
            best, best_key = c, key
    if best is None:
        return kernel.least_loaded_online(from_cpu)
    return best


# ---- seeded random kernel states ---------------------------------------------

def machine(topology):
    return Machine(name="t", cpu_model="t", microarchitecture="t",
                   topology=topology, turbo=XEON_5218, pm=SPEED_SHIFT)


MACHINES = {
    "5218": XEON_5218_2S,                    # 2x16x2
    "e7": E7_8870_V4_4S,                     # 4x20x2
    "smt1": machine(Topology(3, 6, 1)),
    "1socket": machine(Topology(1, 8, 2)),
}

#: Loads just below, at and just above multiples of LOAD_EPSILON, so that
#: quantized loads (and group sums of them) tie and split at the edges.
EDGE_LOADS = (0.0, 0.25, LOAD_EPSILON - 0.01, LOAD_EPSILON,
              LOAD_EPSILON + 0.01, 2 * LOAD_EPSILON - 0.5, 2 * LOAD_EPSILON,
              3 * LOAD_EPSILON + 1.0, 300.0, 1024.0)

RUNNER = Task(999_999, "runner", None, None, 0)


def cpu_state(rng):
    """(busy, nr_queued, placement_pending, busy_avg, currently_busy,
    blocked_load) for one cpu, loads as (value, age in us)."""
    busy = rng.random() < 0.4
    queued = rng.choice((0, 0, 0, 1, 2))
    pending = 1 if rng.random() < 0.2 else 0
    if rng.random() < 0.6:
        # An exact edge load: no decay, no blocked part.
        return busy, queued, pending, (rng.choice(EDGE_LOADS), 0), False, \
            (0.0, 0)
    return busy, queued, pending, \
        (rng.uniform(0.0, 1024.0), rng.randrange(0, 20_000)), \
        rng.random() < 0.5, \
        (rng.choice((0.0, rng.uniform(0.0, 400.0))), rng.randrange(0, 20_000))


def seed_state(kern, rng):
    """Install a random state on every cpu.  Sockets often copy socket 0's
    state cpu for cpu, so whole groups tie on idle count, running count
    and load; single cpus, physical cores and whole sockets go offline."""
    topo = kern.topology
    now = rng.randrange(20_000, 60_000)
    kern.engine.now = now     # the walk reads only engine.now
    cps = topo.cores_per_socket
    npc = topo.n_physical_cores
    socket0 = {}
    copy = [s == 0 or rng.random() < 0.5 for s in range(topo.n_sockets)]
    for c in range(topo.n_cpus):
        pos = (c % npc % cps, c // npc)
        if copy[topo.socket_of(c)]:
            if pos not in socket0:
                socket0[pos] = cpu_state(rng)
            state = socket0[pos]
        else:
            state = cpu_state(rng)
        busy, queued, pending, (bv, bage), running, (lv, lage) = state
        rq = RunQueue(c, now)
        rq.nr_queued = queued
        rq.placement_pending = pending
        rq.busy_avg = PeltAvg(now - bage, bv)
        rq.currently_busy = running
        rq.blocked_load = PeltAvg(now - lage, lv)
        kern.rqs[c] = rq
        kern.cpus[c].current = RUNNER if busy else None
        kern.cpu_online[c] = rng.random() >= 0.1
    if rng.random() < 0.3:
        for c in topo.cpus_in_socket(rng.randrange(topo.n_sockets)):
            kern.cpu_online[c] = False
    if rng.random() < 0.3:
        for c in topo.smt_siblings(rng.randrange(topo.n_cpus)):
            kern.cpu_online[c] = False


def make_policy(name, check_pending):
    policy = CfsPolicy(check_pending_default=check_pending)
    Kernel(Engine(0), MACHINES[name], policy, PerformanceGovernor())
    return policy


@pytest.mark.parametrize("check_pending", [False, True])
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_fork_walk_matches_eager_walk(name, check_pending):
    policy = make_policy(name, check_pending)
    kern = policy.kernel
    n = kern.topology.n_cpus
    rng = random.Random(f"{name}:{check_pending}")
    for _ in range(150):
        seed_state(kern, rng)
        for parent in rng.sample(range(n), 6):
            kern.cpu_online[parent] = True
            assert policy.select_cpu_fork(RUNNER, parent) == \
                old_select_cpu_fork(policy, RUNNER, parent)
            for dom in kern.domains.domains_of(parent):
                assert policy._find_idlest_group(dom.groups, parent) == \
                    old_find_idlest_group(policy, dom.groups, parent)
                for group in dom.groups:
                    assert policy._find_idlest_cpu(group, parent) == \
                        old_find_idlest_cpu(policy, group, parent)


def test_fork_walk_reads_fewer_loads(monkeypatch):
    """The lazy walk never reads more loads than the eager one did."""
    reads = [0]
    load_avg = RunQueue.load_avg

    def counted(self, now):
        reads[0] += 1
        return load_avg(self, now)

    monkeypatch.setattr(RunQueue, "load_avg", counted)
    policy = make_policy("e7", False)
    kern = policy.kernel
    rng = random.Random(7)
    lazy = eager = 0
    for _ in range(40):
        seed_state(kern, rng)
        parent = rng.randrange(kern.topology.n_cpus)
        kern.cpu_online[parent] = True
        reads[0] = 0
        new = policy.select_cpu_fork(RUNNER, parent)
        lazy += reads[0]
        reads[0] = 0
        old = old_select_cpu_fork(policy, RUNNER, parent)
        eager += reads[0]
        assert new == old
    assert lazy < eager


class TestHandPickedTies:
    """Small states that decide each early exit of the lazy walk."""

    def setup_method(self):
        self.policy = make_policy("smt1", False)   # 3 sockets x 6 cpus
        self.kern = self.policy.kernel
        self.kern.engine.now = 1_000

    def load(self, cpu, value):
        self.kern.rqs[cpu].busy_avg = PeltAvg(self.kern.engine.now, value)

    def busy(self, *cpus):
        for c in cpus:
            self.kern.cpus[c].current = RUNNER

    def check_group(self, groups, cpu, expected):
        assert old_find_idlest_group(self.policy, groups, cpu) == expected
        assert self.policy._find_idlest_group(groups, cpu) == expected

    def check_cpu(self, group, cpu, expected):
        assert old_find_idlest_cpu(self.policy, group, cpu) == expected
        assert self.policy._find_idlest_cpu(group, cpu) == expected

    def test_local_group_holds_on_equal_idle_count(self):
        groups = ((0, 1), (2, 3), (4, 5))
        self.busy(1, 3, 5)
        self.check_group(groups, 0, (0, 1))

    def test_first_of_equal_loads_wins(self):
        groups = ((0, 1), (2, 3), (4, 5))
        self.busy(0, 1)
        self.load(2, 40.0)
        self.load(4, 40.0)
        self.check_group(groups, 0, (2, 3))

    def test_smaller_quantized_load_wins_a_tie(self):
        groups = ((0, 1), (2, 3), (4, 5))
        self.busy(0, 1)
        self.load(2, LOAD_EPSILON)
        self.load(4, LOAD_EPSILON - 0.01)
        self.check_group(groups, 0, (4, 5))

    def test_idle_cpu_with_a_later_zero_load_wins(self):
        self.load(0, LOAD_EPSILON)           # quantized load 1
        self.check_cpu((0, 1, 2), 0, 1)

    def test_busy_cpus_compare_on_load(self):
        self.busy(0, 1, 2)
        self.load(0, 2 * LOAD_EPSILON)
        self.load(1, LOAD_EPSILON)
        self.check_cpu((0, 1, 2), 0, 2)

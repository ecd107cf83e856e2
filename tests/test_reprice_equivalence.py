"""Bit-exact pins for the DVFS re-pricing formulas.

The schedutil request, the frequency model's target and the energy meter's
power sum are evaluated with bound constants and plain comparisons instead
of attribute chains and ``min``/``max``.  Each test below keeps a verbatim
copy of the earlier formula and requires ``==`` (and the same result type)
on random states — never an approximate comparison, because the simulator's
digests depend on every bit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors.schedutil import HEADROOM, SchedutilGovernor
from repro.hw.energy import EnergyMeter, PowerParams
from repro.hw.freqmodel import (AMD_BOOST, FreqModel, SPEED_SHIFT,
                                SPEED_STEP)
from repro.hw.machines import E7_8870_V4_4S, Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.pelt import PELT_MAX, PeltAvg
from repro.kernel.scheduler_core import Kernel
from repro.kernel.task import Task
from repro.obs import events as oev
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


# ---- verbatim copies of the earlier formulas ---------------------------------

def old_request_mhz(gov, cpu):
    kernel = gov.kernel
    now = kernel.engine.now
    rq = kernel.rqs[cpu]
    util = rq.util(now)
    est = 0.0
    current = kernel.cpus[cpu].current
    if current is not None:
        est += max(current.util_est, current.pelt.peek(now, True))
    for t in rq.queued_tasks():
        est += t.util_est
    util = max(util, min(PELT_MAX, est))
    f = HEADROOM * kernel.machine.max_turbo_mhz * util / PELT_MAX
    mhz = max(kernel.machine.min_mhz,
              min(kernel.machine.max_turbo_mhz, int(f)))
    return mhz


def old_target_mhz(self, pc, now):
    st = self._cores[pc]
    if st.active_threads == 0 and st.spinning_threads == 0:
        return self._min_mhz
    ceiling = self._ceiling_by_active[
        self._socket_active[self._socket_of_pc[pc]]]
    sustained = (st.active_since is not None
                 and now - st.active_since >= self.pm.turbo_latency_us)
    if sustained and self.pm.autonomous_boost:
        target = ceiling
    else:
        if not sustained:
            if self._presustain_cap_mhz < ceiling:
                ceiling = self._presustain_cap_mhz
        request = 0
        floor = self._min_mhz
        governor = self.governor
        for t in self._siblings_of_pc[pc]:
            r = governor.request_mhz(t)
            if r > request:
                request = r
            f = governor.floor_mhz(t)
            if f > floor:
                floor = f
        target = min(ceiling, max(request, floor))
    if st.spinning_threads > 0 and st.active_threads == 0:
        target = min(ceiling, max(target, st.mhz))
    target = max(target, self._min_mhz)
    cap = self._thermal_cap[pc]
    if cap is not None and target > cap:
        target = cap
    return target


def old_compute_power(self):
    p = self.params
    topo = self.topology
    total = 0.0
    cps = topo.cores_per_socket
    for socket in range(topo.n_sockets):
        total += p.uncore_watts
        base = socket * cps
        vmax_mhz = 0
        for pc in range(base, base + cps):
            if self._core_active[pc]:
                vmax_mhz = max(vmax_mhz, self._core_mhz[pc])
        v = p.v0 + p.v_slope * (vmax_mhz / 1000.0)
        for pc in range(base, base + cps):
            if self._core_active[pc]:
                f_ghz = self._core_mhz[pc] / 1000.0
                total += p.core_static_watts + p.c_dyn * f_ghz * v * v
            else:
                total += p.core_idle_watts
    return total


def same(a, b):
    return a == b and type(a) is type(b)


# ---- schedutil request -------------------------------------------------------

#: util_est values that make sums land below, exactly at and above PELT_MAX.
UTIL = st.one_of(st.sampled_from([0.0, 128.0, 256.0, 512.0, 1024.0]),
                 st.floats(0.0, 1024.0))
TIME = st.integers(0, 100_000)


def schedutil_kernel():
    eng = Engine(0)
    gov = SchedutilGovernor()
    kern = Kernel(eng, MACHINE, CfsPolicy(), gov)
    return eng, kern, gov


def set_state(eng, kern, cpu, now, busy, queued, current):
    """Install a runqueue state directly: busy = (value, age, running),
    queued = [(util_est, vruntime, removed)], current = None or
    (util_est, pelt value, pelt age)."""
    eng.clock.advance_to(now)
    eng.now = now
    rq = kern.rqs[cpu]
    value, age, running = busy
    rq.busy_avg = PeltAvg(now - min(age, now), value)
    rq.currently_busy = running
    tid = 1000
    removed = []
    for util_est, vruntime, gone in queued:
        t = Task(tid, f"q{tid}", None, None, 0)
        tid += 1
        t.util_est = util_est
        t.vruntime = vruntime
        rq.push(t)
        if gone:
            removed.append(t)
    for t in removed:          # tombstones stay in the heap
        assert rq.remove(t)
    if current is not None:
        util_est, pelt_value, pelt_age = current
        t = Task(tid, "cur", None, None, 0)
        t.util_est = util_est
        t.pelt = PeltAvg(now - min(pelt_age, now), pelt_value)
        kern.cpus[cpu].current = t


@settings(max_examples=300)
@given(now=TIME,
       busy=st.tuples(st.floats(0.0, 1024.0), TIME, st.booleans()),
       queued=st.lists(st.tuples(UTIL, st.floats(0.0, 1e6), st.booleans()),
                       max_size=8),
       current=st.none() | st.tuples(UTIL, st.floats(0.0, 1024.0), TIME),
       cpu=st.integers(0, MACHINE.n_cpus - 1),
       start=UTIL)
def test_request_mhz_matches_old_formula(now, busy, queued, current, cpu,
                                         start):
    eng, kern, gov = schedutil_kernel()
    set_state(eng, kern, cpu, now, busy, queued, current)
    rq = kern.rqs[cpu]
    old_sum = start
    for t in rq.queued_tasks():
        old_sum += t.util_est
    assert same(rq.add_queued_util_est(start), old_sum)
    assert same(gov.request_mhz(cpu), old_request_mhz(gov, cpu))


@given(util=st.floats(0.0, 1024.0) | st.integers(0, PELT_MAX))
def test_bound_scale_is_left_to_right_product(util):
    _, _, gov = schedutil_kernel()
    assert same(gov._scale * util / PELT_MAX,
                HEADROOM * MACHINE.max_turbo_mhz * util / PELT_MAX)


@pytest.mark.parametrize("queued,current,busy", [
    ([], None, (0.0, 0, False)),                                # empty
    ([(512.0, 1.0, False), (512.0, 2.0, False)], None,
     (0.0, 0, False)),                                          # == PELT_MAX
    ([(300.0, 1.0, False), (200.0, 2.0, False)], None,
     (0.0, 0, False)),                                          # below
    ([(900.0, 1.0, False), (900.0, 2.0, True), (400.0, 3.0, False)],
     (100.0, 50.0, 10), (0.0, 0, False)),                       # above
    ([(10.0, 1.0, False)], (5.0, 3.0, 0), (800.0, 100, True)),  # util > est
    ([(700.0, 1.0, True)], (0.0, 0.0, 0), (0.0, 0, False)),     # all removed
])
def test_request_mhz_boundaries(queued, current, busy):
    eng, kern, gov = schedutil_kernel()
    set_state(eng, kern, 3, 5_000, busy, queued, current)
    assert same(gov.request_mhz(3), old_request_mhz(gov, 3))


def test_request_mhz_emits_every_call():
    eng, kern, gov = schedutil_kernel()
    set_state(eng, kern, 1, 2_000, (300.0, 50, True),
              [(200.0, 1.0, False)], None)
    events = eng.obs.attach_memory()
    values = [gov.request_mhz(1) for _ in range(3)]
    assert [(e.kind, e.cpu, e.value) for e in events] == \
        [(oev.FREQ_REQUEST, 1, v) for v in values]
    assert gov.floor_mhz(1) == MACHINE.min_mhz


# ---- frequency-model target --------------------------------------------------

class TableGovernor:
    """Per-cpu floors and requests drawn by the test."""

    def __init__(self, floors, requests):
        self.floors = floors
        self.requests = requests

    def floor_mhz(self, cpu):
        return self.floors[cpu]

    def request_mhz(self, cpu):
        return self.requests[cpu]


TOPO = Topology(2, 16, 2)
MHZ = st.integers(XEON_5218.min_mhz, XEON_5218.max_turbo_mhz)


#: (active threads, spinning threads, mhz, activity age or None, cap or None)
CORE = st.tuples(st.integers(0, 2), st.integers(0, 2), MHZ,
                 st.none() | st.integers(0, 20_000), st.none() | MHZ)


@pytest.mark.parametrize("pm", [SPEED_SHIFT, SPEED_STEP, AMD_BOOST],
                         ids=lambda pm: pm.name)
@settings(max_examples=60)
@given(floors=st.lists(MHZ, min_size=TOPO.n_cpus, max_size=TOPO.n_cpus),
       requests=st.lists(st.integers(0, 4500), min_size=TOPO.n_cpus,
                         max_size=TOPO.n_cpus),
       socket_active=st.lists(st.integers(0, TOPO.cores_per_socket),
                              min_size=TOPO.n_sockets,
                              max_size=TOPO.n_sockets),
       cores=st.lists(CORE, min_size=TOPO.n_physical_cores,
                      max_size=TOPO.n_physical_cores),
       now=st.integers(0, 100_000))
def test_target_mhz_matches_old_formula(pm, floors, requests, socket_active,
                                        cores, now):
    fm = FreqModel(Engine(), TOPO, XEON_5218, pm,
                   TableGovernor(floors, requests))
    fm._socket_active[:] = socket_active
    for pc, (active, spinning, mhz, age, cap) in enumerate(cores):
        c = fm._cores[pc]
        c.active_threads = active
        c.spinning_threads = min(spinning, 2 - active)
        c.mhz = mhz
        c.active_since = None if age is None else now - age
        fm._thermal_cap[pc] = cap
    for pc in range(TOPO.n_physical_cores):
        assert same(fm._target_mhz(pc, now), old_target_mhz(fm, pc, now))


# ---- energy meter power sum --------------------------------------------------

@pytest.mark.parametrize("topo", [Topology(2, 16, 2), Topology(4, 20, 2)],
                         ids=["2x16x2", "4x20x2"])
@settings(max_examples=100)
@given(data=st.data())
def test_compute_power_matches_old_formula(topo, data):
    n = topo.n_physical_cores
    params = data.draw(st.sampled_from([PowerParams(), E7_8870_V4_4S.power])
                       | st.builds(PowerParams,
                                   *[st.floats(0.0, 50.0)] * 6))
    meter = EnergyMeter(topo, params)
    active = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mhz = data.draw(st.lists(st.integers(0, 4500), min_size=n, max_size=n))
    for pc in range(n):
        meter.set_core_active(pc, active[pc], 0)
        meter.set_core_freq(pc, mhz[pc], 0)
    assert same(meter._compute_power(), old_compute_power(meter))

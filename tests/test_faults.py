"""Fault-injection subsystem: plans, injector, kernel fault mechanics.

The contract under test is the chaos subsystem's headline property: a
faulted run is exactly as deterministic as a clean one, because the fault
plan is drawn from the run's own seeded RNG streams and every fault is
applied as an ordinary engine event.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.faults import (FAULT_PROFILES, FaultConfig, FaultInjector,
                          FaultPlan, fault_profile)
from repro.faults.plan import (KIND_CORE_FAILURE, KIND_CPU_OFFLINE,
                               KIND_STRAGGLER, KIND_THERMAL_CAP, _count)
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine, get_machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RngRegistry
from repro.workloads.base import ms_of_work
from repro.workloads.catalog import make_workload

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)

#: A config whose horizon matches the short test workloads, so planned
#: faults actually land inside the run.
SHORT = dict(horizon_us=10_000)


def make_kernel():
    eng = Engine(0)
    kern = Kernel(eng, MACHINE, CfsPolicy(), PerformanceGovernor())
    return eng, kern


def hog(kern, cpu, work_ms=1000):
    def body(api):
        yield Compute(ms_of_work(work_ms))

    t = kern._new_task(body, f"hog{cpu}", None)
    kern.enqueue(t, cpu)
    return t


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled

    def test_each_family_enables(self):
        assert FaultConfig(hotplug_rate_per_s=1.0).enabled
        assert FaultConfig(thermal_rate_per_s=1.0).enabled
        assert FaultConfig(tick_jitter_us=10).enabled
        assert FaultConfig(straggler_rate_per_s=1.0).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(horizon_us=0)
        with pytest.raises(ValueError):
            FaultConfig(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultConfig(thermal_cap_ratio=0.0)
        with pytest.raises(ValueError):
            FaultConfig(min_online_cpus=0)

    def test_profiles(self):
        assert not fault_profile("none").enabled
        for name in ("hotplug", "thermal", "jitter", "stragglers", "chaos"):
            assert fault_profile(name).enabled, name
        with pytest.raises(KeyError):
            fault_profile("earthquake")

    def test_count_rounding(self):
        assert _count(0.0, 1_000_000) == 0
        assert _count(4.0, 1_000_000) == 4
        assert _count(4.0, 500_000) == 2


class TestFaultPlan:
    def gen(self, config, seed=0):
        return FaultPlan.generate(config, Topology(1, 8), nominal_mhz=2300,
                                  min_mhz=800, rng=RngRegistry(seed))

    def test_same_seed_same_plan(self):
        cfg = FaultConfig(hotplug_rate_per_s=3.0, thermal_rate_per_s=3.0,
                          straggler_rate_per_s=3.0)
        a, b = self.gen(cfg, seed=7), self.gen(cfg, seed=7)
        assert a.specs == b.specs

    def test_different_seed_different_plan(self):
        cfg = FaultConfig(hotplug_rate_per_s=5.0)
        assert self.gen(cfg, seed=1).specs != self.gen(cfg, seed=2).specs

    def test_families_draw_from_independent_streams(self):
        """Enabling thermal faults must not shift the hotplug draws."""
        only_hotplug = self.gen(FaultConfig(hotplug_rate_per_s=5.0))
        both = self.gen(FaultConfig(hotplug_rate_per_s=5.0,
                                    thermal_rate_per_s=5.0))
        hot = [s for s in both.specs if s.kind == KIND_CPU_OFFLINE]
        assert hot == only_hotplug.specs

    def test_specs_sorted_and_in_horizon(self):
        plan = self.gen(FaultConfig(hotplug_rate_per_s=10.0,
                                    straggler_rate_per_s=10.0,
                                    horizon_us=50_000))
        times = [s.at_us for s in plan.specs]
        assert times == sorted(times)
        assert all(1 <= t <= 50_000 for t in times)

    def test_counts_and_describe(self):
        plan = self.gen(FaultConfig(hotplug_rate_per_s=3.0,
                                    tick_jitter_us=100))
        assert plan.counts() == {KIND_CPU_OFFLINE: 6}   # 3/s over the 2s horizon
        assert "cpu_offline=6" in plan.describe()
        assert "tick_jitter" in plan.describe()

    def test_thermal_cap_floored_at_min_mhz(self):
        plan = self.gen(FaultConfig(thermal_rate_per_s=5.0,
                                    thermal_cap_ratio=0.01))
        assert all(s.value == 800 for s in plan.specs
                   if s.kind == KIND_THERMAL_CAP)

    def test_straggler_value_scales_factor(self):
        plan = self.gen(FaultConfig(straggler_rate_per_s=5.0,
                                    straggler_factor=2.5))
        assert all(s.value == 250 for s in plan.specs
                   if s.kind == KIND_STRAGGLER)


class TestCorrelatedFailurePlans:
    """Correlated core-failure bursts: same-socket targeting, the k-of-n
    budget, seeded determinism, and the named CLI profiles."""

    def gen(self, config, seed=0, n_cpus=16, n_sockets=2):
        topology = Topology(n_sockets, n_cpus // (2 * n_sockets))
        return FaultPlan.generate(config, topology, nominal_mhz=2300,
                                  min_mhz=800, rng=RngRegistry(seed))

    def test_same_seed_bit_identical_plan(self):
        cfg = FaultConfig(core_failure_rate_per_s=10.0,
                          core_failure_burst=3)
        a, b = self.gen(cfg, seed=9), self.gen(cfg, seed=9)
        assert a.specs == b.specs

    def test_different_seed_different_plan(self):
        cfg = FaultConfig(core_failure_rate_per_s=10.0)
        assert self.gen(cfg, seed=1).specs != self.gen(cfg, seed=2).specs

    def test_burst_targets_share_a_socket(self):
        cfg = FaultConfig(core_failure_rate_per_s=20.0,
                          core_failure_burst=4)
        plan = self.gen(cfg, n_cpus=16, n_sockets=2)
        bursts = {}
        for s in plan.specs:
            assert s.kind == KIND_CORE_FAILURE
            bursts.setdefault(s.at_us, []).append(s.target)
        assert bursts
        topology = Topology(2, 4)
        for targets in bursts.values():
            sockets = {topology.socket_of(t) for t in targets}
            assert len(sockets) == 1
            assert len(set(targets)) == len(targets)   # distinct threads

    def test_budget_caps_total_failures(self):
        cfg = FaultConfig(core_failure_rate_per_s=50.0,
                          core_failure_burst=4, core_failure_budget=6)
        plan = self.gen(cfg)
        assert 0 < len(plan.specs) <= 6

    def test_burst_clamped_to_socket_size(self):
        cfg = FaultConfig(core_failure_rate_per_s=5.0,
                          core_failure_burst=64)
        plan = self.gen(cfg, n_cpus=8, n_sockets=2)
        bursts = {}
        for s in plan.specs:
            bursts.setdefault(s.at_us, []).append(s.target)
        assert all(len(ts) <= 4 for ts in bursts.values())

    def test_family_stream_is_independent(self):
        """Enabling hotplug must not shift the corefail draws."""
        only = self.gen(FaultConfig(core_failure_rate_per_s=5.0))
        both = self.gen(FaultConfig(core_failure_rate_per_s=5.0,
                                    hotplug_rate_per_s=5.0))
        core = [s for s in both.specs if s.kind == KIND_CORE_FAILURE]
        assert core == only.specs

    def test_downtime_carried_on_specs(self):
        cfg = FaultConfig(core_failure_rate_per_s=5.0,
                          core_failure_downtime_us=77_000)
        plan = self.gen(cfg)
        assert all(s.duration_us == 77_000 for s in plan.specs)

    def test_profiles_registered(self):
        for name in ("corefail", "corefail-burst"):
            cfg = fault_profile(name)
            assert cfg.enabled
            assert cfg.core_failure_rate_per_s > 0
        assert fault_profile("corefail-burst").core_failure_burst \
            > fault_profile("corefail").core_failure_burst

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(core_failure_burst=0)
        with pytest.raises(ValueError):
            FaultConfig(core_failure_budget=-1)
        with pytest.raises(ValueError):
            FaultConfig(core_failure_downtime_us=-1)


class TestHotplugMechanics:
    def test_offline_drains_and_migrates(self):
        eng, kern = make_kernel()
        t = hog(kern, 3)
        eng.run(until=100)
        assert t.cpu == 3
        kern.set_cpu_offline(3)
        assert not kern.cpu_online[3]
        assert kern.cpus[3].current is None
        assert kern.rqs[3].nr_queued == 0
        assert not kern.cpu_is_idle(3)       # offline is not "idle"
        assert kern.metrics.counter("fault_orphan_migrations").value == 1
        eng.run(until=200)
        assert t.cpu is not None and t.cpu != 3

    def test_offline_scrubs_attachment_history(self):
        eng, kern = make_kernel()
        t = hog(kern, 2)
        t.core_history = [2, 2]
        assert t.attached_core == 2
        kern.set_cpu_offline(2)
        assert t.attached_core is None

    def test_cannot_offline_last_cpu(self):
        eng, kern = make_kernel()
        for cpu in range(1, MACHINE.topology.n_cpus):
            kern.set_cpu_offline(cpu)
        with pytest.raises(SimulationError):
            kern.set_cpu_offline(0)

    def test_online_restores_placement_target(self):
        eng, kern = make_kernel()
        kern.set_cpu_offline(5)
        assert kern.least_loaded_online(5) != 5
        kern.set_cpu_online(5)
        assert kern.cpu_online[5]
        assert kern.cpu_is_idle(5)

    def test_least_loaded_online_prefers_near_die(self):
        eng, kern = make_kernel()
        near_die = list(kern.topology.die_span_of_cpu[0])
        assert kern.least_loaded_online(0) in near_die

    def test_offline_idempotent(self):
        eng, kern = make_kernel()
        kern.set_cpu_offline(4)
        kern.set_cpu_offline(4)          # no-op, no double accounting
        kern.set_cpu_online(4)
        kern.set_cpu_online(4)
        assert kern.cpu_online[4]


class TestStragglerMechanics:
    def test_slow_running_task_stretches_remaining_work(self):
        eng, kern = make_kernel()
        t = hog(kern, 1, work_ms=10)
        eng.run(until=1000)
        assert t.completion_event is not None
        before = t.completion_event.time
        assert kern.slow_running_task(1, 3.0)
        assert t.completion_event.time > before

    def test_idle_cpu_is_skipped(self):
        eng, kern = make_kernel()
        assert not kern.slow_running_task(0, 3.0)

    def test_factor_one_is_noop(self):
        eng, kern = make_kernel()
        hog(kern, 1)
        eng.run(until=1000)
        assert not kern.slow_running_task(1, 1.0)


class TestThermalMechanics:
    def test_cap_clamps_down_immediately(self):
        eng, kern = make_kernel()
        hog(kern, 0)
        eng.run(until=5000)
        pc = kern.topology.physical_core_of(0)
        assert kern.freq.core_freq_mhz(pc) > 1200   # busy core is turboing
        kern.freq.set_thermal_cap(pc, 1200)
        assert kern.freq.core_freq_mhz(pc) <= 1200
        assert kern.freq.thermal_cap(pc) == 1200
        kern.freq.set_thermal_cap(pc, None)
        assert kern.freq.thermal_cap(pc) is None

    def test_cap_floored_at_min_mhz(self):
        eng, kern = make_kernel()
        pc = 0
        kern.freq.set_thermal_cap(pc, 1)
        assert kern.freq.thermal_cap(pc) == kern.freq._min_mhz


def faulted_run(fc, scheduler="nest", seed=7):
    return run_experiment(
        make_workload("phoronix-libavif-avifenc-1", scale=0.3),
        get_machine("5218_2s"), scheduler, "schedutil", seed=seed, faults=fc)


class TestEndToEndDeterminism:
    """Same seed + same fault config => bit-identical results."""

    def assert_identical(self, a, b):
        assert a.makespan_us == b.makespan_us
        assert a.energy_joules == b.energy_joules
        assert a.metrics == b.metrics
        assert a.policy_stats == b.policy_stats
        assert a.n_migrations == b.n_migrations
        assert a.extra == b.extra

    def test_hotplug_run_reproducible_and_effective(self):
        fc = FaultConfig(hotplug_rate_per_s=400.0, hotplug_downtime_us=3000,
                         **SHORT)
        a, b = faulted_run(fc), faulted_run(fc)
        self.assert_identical(a, b)
        assert a.metrics["kernel.fault_cpu_offline"]["value"] > 0
        assert a.extra["faults_injected"] > 0

    def test_chaos_run_reproducible(self):
        fc = FaultConfig(hotplug_rate_per_s=300.0, thermal_rate_per_s=300.0,
                         straggler_rate_per_s=300.0, tick_jitter_us=300,
                         hotplug_downtime_us=2500, **SHORT)
        for scheduler in ("nest", "cfs", "smove"):
            self.assert_identical(faulted_run(fc, scheduler),
                                  faulted_run(fc, scheduler))

    def test_thermal_cap_slows_the_run(self):
        fc = FaultConfig(thermal_rate_per_s=400.0, thermal_duration_us=4000,
                         **SHORT)
        assert faulted_run(fc).makespan_us > faulted_run(None).makespan_us

    def test_clean_run_untouched_by_subsystem(self):
        """No fault config => no fault counters, no extra keys: cached
        results and golden files from fault-free runs stay bit-identical."""
        res = faulted_run(None)
        assert "faults_injected" not in res.extra
        assert not any(k.startswith("kernel.fault_") for k in res.metrics)

    def test_disabled_config_equals_no_config(self):
        a = faulted_run(FaultConfig())
        b = faulted_run(None)
        self.assert_identical(a, b)

    def test_profiles_all_run_clean(self):
        for name in FAULT_PROFILES:
            res = faulted_run(fault_profile(name) if name != "none" else None,
                              seed=3)
            assert res.makespan_us > 0, name


#: Dense enough that correlated bursts reliably land inside a ~65ms
#: deadline run and catch RT copies on-core.
COREFAIL_DENSE = FaultConfig(core_failure_rate_per_s=60.0,
                             core_failure_burst=3,
                             core_failure_downtime_us=10_000,
                             horizon_us=100_000)


def ftrt_run(fc=COREFAIL_DENSE, seed=2, collect_events=False):
    return run_experiment(make_workload("deadline-periodic"),
                          get_machine("ryzen_4650g"), "ftrt", "schedutil",
                          seed=seed, faults=fc,
                          collect_events=collect_events)


class TestCorrelatedFailureRuns:
    """End-to-end correlated core failures against the FT-RT scheduler:
    deterministic replay, fail-stop kill semantics, and reconciliation
    through the oracle's plan re-derivation."""

    def test_faulted_ftrt_run_bit_identical(self):
        a, b = ftrt_run(), ftrt_run()
        assert a.makespan_us == b.makespan_us
        assert a.energy_joules == b.energy_joules
        assert a.metrics == b.metrics
        assert a.policy_stats == b.policy_stats
        assert a.extra == b.extra

    def test_failures_kill_and_recover(self):
        res = ftrt_run()
        m = res.metrics
        assert m["kernel.fault_core_failures"]["value"] > 0
        jobs = (m["kernel.rt_deadline_met"]["value"]
                + m["kernel.rt_deadline_miss"]["value"])
        assert jobs == 32   # every released job accounted exactly once
        # Kills happened and every activation answers a kill.
        assert m["kernel.rt_kills"]["value"] > 0
        assert m["kernel.rt_backup_activations"]["value"] \
            <= m["kernel.rt_kills"]["value"]

    def test_plan_rederivation_reconciles(self):
        """The oracle re-derives the corefail plan from (seed, config,
        machine shape) and reconciles it against the run's counters."""
        from repro.experiments.parallel import RunSpec
        from repro.verify import check_run, run_scenario
        sc = RunSpec(workload="deadline-periodic", machine="ryzen_4650g",
                     scheduler="ftrt", governor="schedutil", seed=2,
                     scale=1.0, faults=COREFAIL_DENSE)
        assert check_run(run_scenario(sc)) == []

    def test_corefail_skip_guard_counts(self):
        """Bursts that would drop below min_online_cpus are skipped and
        counted, keeping plan reconciliation exact."""
        fc = FaultConfig(core_failure_rate_per_s=400.0,
                         core_failure_burst=6, core_failure_downtime_us=30_000,
                         min_online_cpus=10, horizon_us=60_000)
        res = ftrt_run(fc)
        m = res.metrics
        applied = m["kernel.fault_core_failures"]["value"]
        skipped = m["kernel.fault_core_failure_skipped"]["value"]
        assert applied + skipped == res.extra["faults_injected"]
        assert skipped > 0

    def test_non_rt_tasks_survive_core_failure(self):
        """Fail-stop destroys only deadline-carrying copies; ordinary
        tasks are migrated by the hotplug path underneath."""
        fc = FaultConfig(core_failure_rate_per_s=400.0,
                         core_failure_burst=4, core_failure_downtime_us=5_000,
                         horizon_us=10_000)
        res = faulted_run(fc)   # nest + throughput workload: no RT tasks
        assert res.metrics["kernel.fault_core_failures"]["value"] > 0
        assert "kernel.rt_kills" not in res.metrics
        assert res.makespan_us > 0


class TestInjectorGuards:
    def test_min_online_cpus_respected(self):
        fc = FaultConfig(hotplug_rate_per_s=5000.0, hotplug_downtime_us=9000,
                         min_online_cpus=2, horizon_us=10_000)
        res = faulted_run(fc)
        skipped = res.metrics["kernel.fault_offline_skipped"]["value"]
        applied = res.metrics["kernel.fault_cpu_offline"]["value"]
        assert applied + skipped == res.extra["faults_injected"]
        assert skipped > 0   # the guard actually fired at this rate

    def test_install_counts_specs(self):
        eng, kern = make_kernel()
        cfg = FaultConfig(hotplug_rate_per_s=5.0, horizon_us=1_000_000)
        plan = FaultPlan.generate(cfg, kern.topology, 2300, 800, eng.rng)
        assert FaultInjector(kern, plan, cfg).install() == len(plan)

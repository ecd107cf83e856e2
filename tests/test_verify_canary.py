"""Mutation canaries: prove the oracle is not vacuously green.

Each canary monkeypatches a real Nest branch into a subtly wrong one —
the kind of bug a refactor could introduce — runs the *real* simulator,
and asserts the oracle convicts it.  Crucially the mutations chosen here
survive ``NestPolicy.check_invariants`` (the policy's own self-check),
so only the external oracle stands between them and a green suite.
"""

from unittest import mock

import pytest

from repro.core.nest import NestPolicy
from repro.core.params import NestParams
from repro.experiments.parallel import RunSpec
from repro.faults import FaultConfig
from repro.kernel.scheduler_core import Kernel
from repro.obs import events as oev
from repro.sched.ftrt import FtrtPolicy
from repro.verify import check_run, run_scenario
from repro.verify.shrink import shrink

#: dacapo-h2 churns enough tasks that end-of-run exit demotions pile
#: cores into the reserve — exactly where a missing R_max bound shows.
CANARY_SCENARIO = RunSpec(
    workload="dacapo-h2", machine="ryzen_4650g", scheduler="nest",
    governor="schedutil", seed=3, scale=0.1,
    nest_params=NestParams(r_max=1))

#: Fault-free FT-RT deadline run: every job meets its deadline and every
#: backup is admitted disjoint, so the rt.* invariants are silent — until
#: a mutant breaks the protocol.
FTRT_CANARY = RunSpec(
    workload="deadline-periodic", machine="ryzen_4650g", scheduler="ftrt",
    governor="schedutil", seed=7, scale=1.0)

#: The same run under a correlated core-failure storm dense enough that
#: kills and backup activations actually happen (the stock profiles'
#: 2s horizon outlives this short run).
FTRT_FAULTED_CANARY = RunSpec(
    workload="deadline-periodic", machine="ryzen_4650g", scheduler="ftrt",
    governor="schedutil", seed=7, scale=1.0,
    faults=FaultConfig(core_failure_rate_per_s=60.0,
                       core_failure_burst=3,
                       core_failure_downtime_us=10_000,
                       horizon_us=100_000))


def _names(scenario=CANARY_SCENARIO):
    return {v.invariant for v in check_run(run_scenario(scenario))}


def test_unmutated_baseline_is_clean():
    assert _names() == set()


def test_oracle_catches_missing_r_max_bound():
    # Mutation: _demote forgets the §3.1 R_max check and grows the
    # reserve without bound.
    def bad_demote(self, cpu, kind=oev.NEST_COMPACT):
        self.primary.discard(cpu)
        self.reserve.add(cpu)          # missing: len(reserve) < r_max
        self._c_compact.value += 1
        if self._obs.enabled:
            self._obs.emit(self.kernel.engine.now, kind, cpu=cpu,
                           value=len(self.primary))

    with mock.patch.object(NestPolicy, "_demote", bad_demote):
        names = _names()
    assert "nest.final_state" in names


def test_oracle_catches_compaction_that_keeps_the_core():
    # Mutation: compaction moves the core into the reserve but forgets
    # to remove it from the primary (overlap + wrong replay size).
    def bad_demote(self, cpu, kind=oev.NEST_COMPACT):
        if self.params.reserve_enabled \
                and len(self.reserve) < self.params.r_max:
            self.reserve.add(cpu)      # missing: primary.discard(cpu)
        self._c_compact.value += 1
        if self._obs.enabled:
            self._obs.emit(self.kernel.engine.now, kind, cpu=cpu,
                           value=len(self.primary))

    with mock.patch.object(NestPolicy, "_demote", bad_demote):
        names = _names()
    assert names & {"nest.primary_replay", "nest.final_state"}


def test_oracle_catches_stale_placement_histograms():
    # Mutation: the per-placement instrumentation stops being recorded.
    with mock.patch.object(NestPolicy, "_finish_placement",
                           lambda self, examined: None):
        names = _names()
    assert "metrics.histograms" in names


def test_canary_failure_shrinks_to_a_replayable_repro(tmp_path):
    # The whole loop: mutate, catch, shrink under the mutation, save,
    # and confirm the shrunk scenario still convicts the mutant.
    def bad_demote(self, cpu, kind=oev.NEST_COMPACT):
        self.primary.discard(cpu)
        self.reserve.add(cpu)
        self._c_compact.value += 1
        if self._obs.enabled:
            self._obs.emit(self.kernel.engine.now, kind, cpu=cpu,
                           value=len(self.primary))

    with mock.patch.object(NestPolicy, "_demote", bad_demote):
        def checker(sc):
            return check_run(run_scenario(sc))

        violations = checker(CANARY_SCENARIO)
        assert violations
        small, small_violations = shrink(CANARY_SCENARIO, checker,
                                         violations=violations, budget=20)
        assert small_violations
        assert {v.invariant for v in small_violations} \
            & {v.invariant for v in violations}
        # The shrunk scenario stays a nest scenario (the bug needs one).
        assert small.scheduler == "nest"

    from repro.verify.repro import replay_repro, save_repro
    path = save_repro(tmp_path / "canary.json", small, small_violations)
    # Unmutated code replays clean: the repro documents a fixed bug.
    assert replay_repro(path) == []


class TestRtCanaries:
    """Mutation canaries for the three FT-RT invariants (DESIGN.md §10):
    each mutant is protocol-breaking but keeps the policy's own counter
    self-check green, so only the oracle stands in its way."""

    def test_ftrt_baselines_are_clean(self):
        assert _names(FTRT_CANARY) == set()
        assert _names(FTRT_FAULTED_CANARY) == set()

    def test_oracle_catches_backup_on_primary_core(self):
        # Mutation: the disjointness scan "finds" the primary's own cpu —
        # one core failure would now take out both copies of the job.
        def bad_disjoint(self, pcpu):
            return pcpu if self.kernel.cpu_online[pcpu] else None

        with mock.patch.object(FtrtPolicy, "_disjoint_cpu", bad_disjoint):
            names = _names(FTRT_CANARY)
        assert "rt.backup_disjoint" in names

    def test_oracle_catches_phantom_deadline_misses(self):
        # Mutation: the accounting flips every outcome to a miss.  In a
        # fault-free run there is nothing to blame the misses on, so the
        # causality invariant convicts.
        orig = Kernel._rt_account

        def bad_account(self, primary, met, recovery_us=None):
            orig(self, primary, False, recovery_us)

        with mock.patch.object(Kernel, "_rt_account", bad_account):
            names = _names(FTRT_CANARY)
        assert "rt.miss_causality" in names

    def test_oracle_catches_unpaired_backup_activation(self):
        # Mutation: retiring a cancelled backup emits a spurious
        # activation event (a plausible refactor slip) — the event stream
        # no longer mirrors the activation counter, and the event's
        # timestamp has no core-failure to pair with.
        orig = Kernel._rt_on_exit

        def bad_on_exit(self, task):
            if task.backup_of is not None and self.obs.enabled:
                self.obs.emit(self.engine.now, oev.RT_BACKUP_ACTIVATE,
                              task=task.tid, value=task.backup_of.tid)
            orig(self, task)

        with mock.patch.object(Kernel, "_rt_on_exit", bad_on_exit):
            names = _names(FTRT_CANARY)
        assert "rt.activation_pairing" in names

    def test_rt_mutations_survive_the_policy_self_check(self):
        # The disjointness mutant increments disjoint_ok for its bogus
        # placements, so FtrtPolicy.check_invariants stays balanced.
        def bad_disjoint(self, pcpu):
            return pcpu if self.kernel.cpu_online[pcpu] else None

        with mock.patch.object(FtrtPolicy, "_disjoint_cpu", bad_disjoint):
            art = run_scenario(FTRT_CANARY)
        assert art.error is None


def test_mutations_survive_the_policy_self_check():
    # The canaries specifically target gaps the policy's own
    # check_invariants cannot see — placement-tier accounting still adds
    # up — so a passing self-check must NOT be read as "nest is correct".
    def bad_demote(self, cpu, kind=oev.NEST_COMPACT):
        self.primary.discard(cpu)
        self.reserve.add(cpu)
        self._c_compact.value += 1

    with mock.patch.object(NestPolicy, "_demote", bad_demote):
        art = run_scenario(CANARY_SCENARIO)
    assert art.error is None   # run_experiment's self-check passed

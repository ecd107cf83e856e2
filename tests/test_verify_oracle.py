"""Invariant oracle: clean runs pass, corrupted artifacts are caught.

The corruption tests never touch the simulator — they tamper with the
*artifacts* (events, metrics, snapshot) of a real clean run and assert
the matching invariant fires.  test_verify_canary.py covers the other
direction: tampering with the scheduler and letting real artifacts
convict it.
"""

import dataclasses

import pytest

from repro.experiments.parallel import RunSpec
from repro.obs import events as oev
from repro.obs.events import SchedEvent
from repro.verify.execute import RunArtifacts, run_scenario
from repro.verify.generate import ScenarioGenerator
from repro.verify.oracle import (INVARIANTS, NestSnapshot, Violation,
                                 check_run)
from repro.faults.plan import FaultConfig

NEST_SCENARIO = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                        scheduler="nest", governor="schedutil", seed=3,
                        scale=0.2)


@pytest.fixture(scope="module")
def nest_art():
    art = run_scenario(NEST_SCENARIO)
    assert art.error is None
    return art


def _names(violations):
    return {v.invariant for v in violations}


def test_clean_run_passes_every_invariant(nest_art):
    assert check_run(nest_art) == []


def test_clean_runs_pass_across_schedulers_and_faults():
    gen = ScenarioGenerator(99)
    checked = 0
    for i in range(25):
        art = run_scenario(gen.generate(i))
        assert check_run(art) == [], gen.generate(i).label
        checked += 1
    assert checked == 25


def test_crash_short_circuits_to_run_completed():
    bad = dataclasses.replace(NEST_SCENARIO, workload="no-such-workload")
    art = run_scenario(bad)
    assert art.error is not None
    assert _names(check_run(art)) == {"run.completed"}


def test_invariant_names_are_stable_and_unique():
    names = [name for name, _fn in INVARIANTS]
    assert len(names) == len(set(names))
    assert len(names) >= 12           # the tentpole's "about a dozen"
    assert "nest.primary_replay" in names
    assert "faults.consistency" in names


def _copy_with(art: RunArtifacts, **kw) -> RunArtifacts:
    return RunArtifacts(**{**art.__dict__, **kw})


def test_catches_clock_regression(nest_art):
    events = list(nest_art.events)
    last = events[-1]
    events.append(SchedEvent(t=last.t - 1, kind=oev.SCHED_WAKEUP,
                             cpu=0, task=1))
    broken = _copy_with(nest_art, events=events)
    assert "clock.monotonic" in _names(check_run(broken))


def test_catches_unknown_event_kind(nest_art):
    events = list(nest_art.events)
    events[0] = events[0]._replace(kind="sched.wat")
    broken = _copy_with(nest_art, events=events)
    assert "events.vocabulary" in _names(check_run(broken))


def test_catches_counter_event_divergence(nest_art):
    metrics = dict(nest_art.result.metrics)
    entry = dict(metrics["nest.placements"])
    entry["value"] += 1
    metrics["nest.placements"] = entry
    broken = _copy_with(nest_art,
                        result=dataclasses.replace(nest_art.result,
                                                   metrics=metrics))
    names = _names(check_run(broken))
    assert "nest.placement_accounting" in names
    assert "nest.event_counter_match" in names


def test_catches_phantom_promote(nest_art):
    events = list(nest_art.events)
    # Promote a cpu that is already a primary member per the replay.
    first_promo = next(e for e in events if e.kind in oev.PRIMARY_ADD_KINDS)
    idx = events.index(first_promo)
    events.insert(idx + 1, first_promo)
    broken = _copy_with(nest_art, events=events)
    names = _names(check_run(broken))
    assert "nest.primary_replay" in names


def test_catches_snapshot_mismatch(nest_art):
    snap = nest_art.nest
    wrong = NestSnapshot(primary=snap.primary | {nest_art.machine.n_cpus - 1,
                                                 0, 1, 2},
                         reserve=snap.reserve, r_max=snap.r_max)
    broken = _copy_with(nest_art, nest=wrong)
    assert "nest.primary_replay" in _names(check_run(broken))


def test_catches_reserve_overflow_and_overlap(nest_art):
    snap = nest_art.nest
    overfull = NestSnapshot(primary=snap.primary,
                            reserve=frozenset(range(snap.r_max + 1)),
                            r_max=snap.r_max)
    broken = _copy_with(nest_art, nest=overfull)
    names = _names(check_run(broken))
    assert "nest.final_state" in names

    if snap.primary:
        overlapping = NestSnapshot(primary=snap.primary,
                                   reserve=frozenset(list(snap.primary)[:1]),
                                   r_max=snap.r_max)
        broken = _copy_with(nest_art, nest=overlapping)
        assert "nest.final_state" in _names(check_run(broken))


def test_catches_double_commit(nest_art):
    events = list(nest_art.events)
    commit = next(e for e in events if e.kind in oev.COMMIT_KINDS)
    events.insert(events.index(commit), commit)
    broken = _copy_with(nest_art, events=events)
    assert "sched.wakeup_dispatch" in _names(check_run(broken))


def test_catches_latency_histogram_drift(nest_art):
    metrics = dict(nest_art.result.metrics)
    entry = dict(metrics["kernel.wakeup_latency_us"])
    entry["sum"] += 5
    metrics["kernel.wakeup_latency_us"] = entry
    broken = _copy_with(nest_art,
                        result=dataclasses.replace(nest_art.result,
                                                   metrics=metrics))
    assert "sched.latency_accounting" in _names(check_run(broken))


def test_catches_histogram_bucket_corruption(nest_art):
    metrics = dict(nest_art.result.metrics)
    entry = dict(metrics["nest.search_len"])
    entry["counts"] = list(entry["counts"])
    entry["counts"][0] += 1
    metrics["nest.search_len"] = entry
    broken = _copy_with(nest_art,
                        result=dataclasses.replace(nest_art.result,
                                                   metrics=metrics))
    assert "metrics.histograms" in _names(check_run(broken))


def test_catches_frequency_escape(nest_art):
    events = list(nest_art.events)
    events.append(SchedEvent(t=events[-1].t, kind=oev.FREQ_STEP, cpu=0,
                             value=nest_art.machine.max_turbo_mhz + 1000))
    broken = _copy_with(nest_art, events=events)
    assert "freq.sanity" in _names(check_run(broken))


def test_catches_double_spin_start(nest_art):
    events = list(nest_art.events)
    spin = next((e for e in events if e.kind == oev.SPIN_START), None)
    assert spin is not None, "nest run should warm-spin"
    events.insert(events.index(spin), spin)
    broken = _copy_with(nest_art, events=events)
    assert "spin.pairing" in _names(check_run(broken))


def test_catches_fault_count_drift():
    faulted = dataclasses.replace(
        NEST_SCENARIO, seed=17,
        faults=FaultConfig(hotplug_rate_per_s=100.0,
                           horizon_us=40_000))
    art = run_scenario(faulted)
    assert art.error is None
    assert check_run(art) == []
    extra = dict(art.result.extra)
    extra["faults_injected"] = extra.get("faults_injected", 0.0) + 1
    broken = _copy_with(art, result=dataclasses.replace(art.result,
                                                        extra=extra))
    assert "faults.consistency" in _names(check_run(broken))


FTRT_SCENARIO = RunSpec(
    workload="deadline-periodic", machine="ryzen_4650g", scheduler="ftrt",
    governor="schedutil", seed=2, scale=1.0,
    faults=FaultConfig(core_failure_rate_per_s=60.0,
                       core_failure_burst=3,
                       core_failure_downtime_us=10_000,
                       horizon_us=100_000))


@pytest.fixture(scope="module")
def ftrt_art():
    art = run_scenario(FTRT_SCENARIO)
    assert art.error is None
    # The scenario must actually exercise the RT machinery, or the rt.*
    # tamper tests below would be vacuous.
    assert any(e.kind == oev.RT_BACKUP_ACTIVATE for e in art.events)
    return art


def test_ftrt_faulted_run_passes_every_invariant(ftrt_art):
    assert check_run(ftrt_art) == []


def test_catches_miss_before_any_fault(ftrt_art):
    events = [SchedEvent(t=0, kind=oev.RT_DEADLINE_MISS, task=1, value=0)] \
        + list(ftrt_art.events)
    metrics = dict(ftrt_art.result.metrics)
    old = metrics.get("kernel.rt_deadline_miss", {"type": "counter",
                                                  "value": 0})
    metrics["kernel.rt_deadline_miss"] = {"type": "counter",
                                          "value": old["value"] + 1}
    broken = _copy_with(ftrt_art, events=events,
                        result=dataclasses.replace(ftrt_art.result,
                                                   metrics=metrics))
    assert "rt.miss_causality" in _names(check_run(broken))


def test_catches_miss_in_faultless_run():
    art = run_scenario(dataclasses.replace(FTRT_SCENARIO, faults=None))
    assert art.error is None
    metrics = dict(art.result.metrics)
    metrics["kernel.rt_deadline_miss"] = {"type": "counter", "value": 1}
    broken = _copy_with(art, result=dataclasses.replace(art.result,
                                                        metrics=metrics))
    assert "rt.miss_causality" in _names(check_run(broken))


def test_catches_backup_on_primary_physical_core(ftrt_art):
    events = list(ftrt_art.events)
    idx, place = next((i, e) for i, e in enumerate(events)
                      if e.kind == oev.RT_BACKUP_PLACE and e.value >= 0)
    events[idx] = place._replace(cpu=place.value)   # same core as primary
    broken = _copy_with(ftrt_art, events=events)
    assert "rt.backup_disjoint" in _names(check_run(broken))


def test_fallback_backup_placement_not_convicted(ftrt_art):
    """value=-1 marks an admitted fallback (no committed primary core):
    the disjointness invariant deliberately lets it pass."""
    events = list(ftrt_art.events)
    idx, place = next((i, e) for i, e in enumerate(events)
                      if e.kind == oev.RT_BACKUP_PLACE and e.value >= 0)
    events[idx] = place._replace(cpu=place.value, value=-1)
    broken = _copy_with(ftrt_art, events=events)
    assert "rt.backup_disjoint" not in _names(check_run(broken))


def test_catches_unpaired_activation_event(ftrt_art):
    last = ftrt_art.events[-1]
    events = list(ftrt_art.events) + [
        SchedEvent(t=last.t, kind=oev.RT_BACKUP_ACTIVATE, cpu=0,
                   task=999, value=998)]
    broken = _copy_with(ftrt_art, events=events)
    assert "rt.activation_pairing" in _names(check_run(broken))


def test_catches_kill_outside_failure_instant(ftrt_art):
    events = list(ftrt_art.events)
    idx, kill = next((i, e) for i, e in enumerate(events)
                     if e.kind == oev.RT_KILL)
    failure_times = {e.t for e in events
                     if e.kind == oev.FAULT_CORE_FAILURE}
    # Retime the kill to an instant with no core-failure event, keeping
    # the log sorted (drop + re-insert at the front at t=0).
    events.pop(idx)
    assert 0 not in failure_times
    events.insert(0, kill._replace(t=0))
    broken = _copy_with(ftrt_art, events=events)
    assert "rt.activation_pairing" in _names(check_run(broken))


def test_violation_formatting():
    v = Violation("nest.final_state", "boom", t=42)
    assert "nest.final_state" in str(v) and "@t=42" in str(v)
    assert v.to_dict() == {"invariant": "nest.final_state",
                           "message": "boom", "t": 42}

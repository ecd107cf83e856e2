"""The invariant oracle: paper-derived properties checked after a run.

Each invariant is a pure function over the :class:`RunArtifacts` of one
simulation — the serialized :class:`RunResult`, the structured event log
and the final nest snapshot — returning the :class:`Violation`\\ s it
found.  The oracle never re-runs the simulator; it *replays* what the
observability layer recorded, so anything it can catch, it can catch on
every fuzzed scenario for the cost of one list walk.

The paper mapping:

* §3.1 — nest membership is replayed exactly from the ``nest.*``
  transition events (every primary-set mutation emits one), disjointness
  and the ``R_max`` reserve bound are checked on the final snapshot, and
  placement-tier counters must sum to the placement count;
* §3.2 — warm-core spins start/stop strictly alternately per cpu;
* §3.3 — attachment hits must target the core the replayed two-wakeup
  history says the task is attached to, and disabled features must leave
  no event footprint;
* §3.4 — every runnable task is placed exactly once: two placement
  commits of the same task must have a dispatch between them;
* §2.3 — hardware frequency steps stay within the machine's envelope;
* faults — the deterministic fault plan is re-derived from the seed and
  reconciled with the fault counters and events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from ..core.params import DEFAULT_PARAMS, NestParams
from ..faults.plan import (KIND_CORE_FAILURE, KIND_CPU_OFFLINE,
                           KIND_STRAGGLER, KIND_THERMAL_CAP, FaultPlan)
from ..obs import events as oev
from ..sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .execute import RunArtifacts

#: Cap on violations reported per invariant per run (a broken replay
#: otherwise floods the report with thousands of identical lines).
MAX_PER_INVARIANT = 5


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by the oracle or a differential check."""

    invariant: str
    message: str
    t: Optional[int] = None

    def __str__(self) -> str:
        at = f" @t={self.t}" if self.t is not None else ""
        return f"{self.invariant}{at}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "message": self.message,
                "t": self.t}


@dataclass(frozen=True)
class NestSnapshot:
    """Final nest membership, captured through the runner's policy probe."""

    primary: frozenset
    reserve: frozenset
    r_max: int
    reserve_enabled: bool = True


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _counter(metrics: Dict[str, Any], name: str) -> int:
    entry = metrics.get(name)
    return entry["value"] if entry else 0


def _kind_counts(events) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for ev in events:
        out[ev.kind] = out.get(ev.kind, 0) + 1
    return out


def _params_of(art: "RunArtifacts") -> NestParams:
    return art.scenario.nest_params or DEFAULT_PARAMS


def _is_nest(art: "RunArtifacts") -> bool:
    return _in_group(art, "nest")


def _is_scxnest(art: "RunArtifacts") -> bool:
    return _in_group(art, "scxnest")


def _in_group(art: "RunArtifacts", group: str) -> bool:
    """Policy-specific invariant families are gated by the registry's
    ``invariant_groups`` metadata, not by hard-coded scheduler names, so
    a newly registered policy opts into a family with one tuple entry."""
    from ..sched.registry import invariant_groups_of
    return group in invariant_groups_of(art.scenario.scheduler)


def _has_hotplug(art: "RunArtifacts") -> bool:
    """Hotplug scrubs attachment histories and redirects placements
    without emitting commit events, so history replay must stand down."""
    if any(ev.kind in (oev.FAULT_CPU_OFFLINE, oev.FAULT_CPU_ONLINE)
           for ev in art.events):
        return True
    return _counter(art.result.metrics, "kernel.fault_placement_redirects") > 0


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def check_completed(art: "RunArtifacts") -> Iterable[Violation]:
    """The simulation ran to its end without crashing."""
    res = art.result
    if res.makespan_us < 0:
        yield Violation("run.completed", f"negative makespan {res.makespan_us}")
    if res.n_tasks <= 0:
        yield Violation("run.completed", "run created no tasks")
    if res.events_processed <= 0:
        yield Violation("run.completed", "engine processed no events")


def check_clock_monotonic(art: "RunArtifacts") -> Iterable[Violation]:
    """Event timestamps never run backwards and stay within the run."""
    last = 0
    end = art.result.makespan_us
    for i, ev in enumerate(art.events):
        if ev.t < last:
            yield Violation("clock.monotonic",
                            f"event #{i} ({ev.kind}) at t={ev.t} after "
                            f"t={last}", t=ev.t)
            return
        last = ev.t
    if art.events and last > end:
        yield Violation("clock.monotonic",
                        f"last event at t={last} beyond makespan {end}",
                        t=last)


def check_vocabulary(art: "RunArtifacts") -> Iterable[Violation]:
    """Every event uses a known kind and plausible cpu/task fields."""
    n_cpus = art.machine.n_cpus
    bad = 0
    for ev in art.events:
        problem = None
        if ev.kind not in oev.EVENT_KINDS:
            problem = f"unknown kind {ev.kind!r}"
        elif not -1 <= ev.cpu < n_cpus:
            problem = f"cpu {ev.cpu} outside [-1, {n_cpus})"
        elif ev.task < -1:
            problem = f"task id {ev.task}"
        if problem:
            yield Violation("events.vocabulary", f"{ev.kind}: {problem}",
                            t=ev.t)
            bad += 1
            if bad >= MAX_PER_INVARIANT:
                return


def check_placement_accounting(art: "RunArtifacts") -> Iterable[Violation]:
    """§3.1: every placement is claimed by exactly one search tier."""
    if not _is_nest(art):
        return
    m = art.result.metrics
    tiers = {k: _counter(m, f"nest.{k}") for k in
             ("attachment_hits", "primary_hits", "reserve_hits",
              "cfs_fallbacks")}
    placements = _counter(m, "nest.placements")
    if sum(tiers.values()) != placements:
        yield Violation("nest.placement_accounting",
                        f"{tiers} sums to {sum(tiers.values())} "
                        f"!= placements {placements}")


def check_event_counter_match(art: "RunArtifacts") -> Iterable[Violation]:
    """The event log and the metrics registry tell the same story."""
    if not _is_nest(art) or not art.events:
        return
    m = art.result.metrics
    counts = _kind_counts(art.events)
    expected = {
        oev.PLACE_ATTACH: _counter(m, "nest.attachment_hits"),
        oev.PLACE_PRIMARY: _counter(m, "nest.primary_hits"),
        oev.PLACE_IMPATIENT: _counter(m, "nest.impatient_placements"),
        oev.NEST_PROMOTE: _counter(m, "nest.reserve_hits"),
        oev.NEST_COMPACT: (_counter(m, "nest.compactions")
                           - _counter(m, "nest.exit_demotions")),
        oev.NEST_EXIT_DEMOTE: _counter(m, "nest.exit_demotions"),
        oev.NEST_OFFLINE_EVICT: _counter(m, "nest.offline_evictions"),
    }
    for kind, want in expected.items():
        got = counts.get(kind, 0)
        if got != want:
            yield Violation("nest.event_counter_match",
                            f"{got} {kind} event(s) but counters say {want}")
    total_place = sum(counts.get(k, 0) for k in oev.PLACEMENT_KINDS)
    placements = _counter(m, "nest.placements")
    if total_place != placements:
        yield Violation("nest.event_counter_match",
                        f"{total_place} place.* events != placements "
                        f"counter {placements}")


def check_primary_replay(art: "RunArtifacts") -> Iterable[Violation]:
    """§3.1: the primary nest replayed from events is always consistent —
    promotions add non-members, demotions remove members, the size each
    transition reports matches the replayed set, primary hits target
    members, and the final replayed set equals the live snapshot."""
    if not _is_nest(art) or not art.events:
        return
    primary: set = set()
    bad = 0
    for ev in art.events:
        kind = ev.kind
        if kind in oev.PRIMARY_ADD_KINDS:
            # nest.expand may be idempotent: an impatient task bypasses
            # the primary search, so CFS can pick a core that is already
            # a member (§3.1 expansion is then a no-op).  nest.promote
            # cannot — the reserve is disjoint from the primary.
            if ev.cpu in primary and kind == oev.NEST_PROMOTE:
                yield Violation("nest.primary_replay",
                                f"{kind} of cpu {ev.cpu} already in primary",
                                t=ev.t)
                bad += 1
            primary.add(ev.cpu)
        elif kind in oev.PRIMARY_REMOVE_KINDS:
            if ev.cpu not in primary:
                yield Violation("nest.primary_replay",
                                f"{kind} of cpu {ev.cpu} not in primary",
                                t=ev.t)
                bad += 1
            primary.discard(ev.cpu)
        elif kind == oev.NEST_OFFLINE_EVICT:
            primary.discard(ev.cpu)   # may have been reserve-only
        elif kind in (oev.PLACE_ATTACH, oev.PLACE_PRIMARY):
            if ev.cpu not in primary:
                yield Violation("nest.primary_replay",
                                f"{kind} chose cpu {ev.cpu} outside the "
                                f"replayed primary nest {sorted(primary)}",
                                t=ev.t)
                bad += 1
        else:
            continue
        if kind in oev.NEST_TRANSITION_KINDS and ev.value != len(primary):
            yield Violation("nest.primary_replay",
                            f"{kind} reports primary size {ev.value}, "
                            f"replay says {len(primary)}", t=ev.t)
            bad += 1
        if bad >= MAX_PER_INVARIANT:
            return
    if art.nest is not None and primary != set(art.nest.primary):
        yield Violation("nest.primary_replay",
                        f"final replayed primary {sorted(primary)} != live "
                        f"snapshot {sorted(art.nest.primary)}")


def check_final_state(art: "RunArtifacts") -> Iterable[Violation]:
    """§3.1: primary ∩ reserve = ∅, |reserve| ≤ R_max, members are cpus."""
    snap = art.nest
    if snap is None:
        return
    overlap = snap.primary & snap.reserve
    if overlap:
        yield Violation("nest.final_state",
                        f"primary and reserve overlap on {sorted(overlap)}")
    if snap.reserve_enabled:
        if len(snap.reserve) > snap.r_max:
            yield Violation("nest.final_state",
                            f"reserve has {len(snap.reserve)} cores, "
                            f"R_max is {snap.r_max}")
    elif snap.reserve:
        yield Violation("nest.final_state",
                        f"reserve disabled but holds {sorted(snap.reserve)}")
    n = art.machine.n_cpus
    stray = [c for c in (snap.primary | snap.reserve)
             if not 0 <= c < n]
    if stray:
        yield Violation("nest.final_state",
                        f"nest members outside cpu range: {stray}")


def check_attachment(art: "RunArtifacts") -> Iterable[Violation]:
    """§3.3: an attachment hit requires two consecutive same-core commits.

    Replays each task's two-slot core history from the placement-commit
    events; every ``place.attach`` must target exactly the replayed
    attached core.  Stands down under hotplug faults (the kernel scrubs
    histories and redirects placements without commit events).
    """
    if not _is_nest(art) or not art.events or _has_hotplug(art):
        return
    history: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
    bad = 0
    for ev in art.events:
        if ev.kind == oev.PLACE_ATTACH:
            a, b = history.get(ev.task, (None, None))
            attached = a if a is not None and a == b else None
            if attached != ev.cpu:
                yield Violation(
                    "nest.attachment", f"task {ev.task} attach-placed on "
                    f"cpu {ev.cpu} but its history {(a, b)} attaches "
                    f"{attached}", t=ev.t)
                bad += 1
                if bad >= MAX_PER_INVARIANT:
                    return
        elif ev.kind in oev.COMMIT_KINDS:
            a, _ = history.get(ev.task, (None, None))
            history[ev.task] = (ev.cpu, a)


def check_feature_legality(art: "RunArtifacts") -> Iterable[Violation]:
    """Disabled §3 features must leave no event footprint."""
    if not _is_nest(art) or not art.events:
        return
    p = _params_of(art)
    counts = _kind_counts(art.events)
    rules = (
        (p.attachment_enabled, oev.PLACE_ATTACH, "attachment"),
        (p.reserve_enabled, oev.PLACE_RESERVE, "reserve"),
        (p.reserve_enabled, oev.NEST_PROMOTE, "reserve"),
        (p.impatience_enabled, oev.PLACE_IMPATIENT, "impatience"),
        (p.compaction_enabled, oev.NEST_COMPACT, "compaction"),
        (p.spin_enabled, oev.SPIN_START, "spin"),
    )
    for enabled, kind, feature in rules:
        if not enabled and counts.get(kind, 0):
            yield Violation("nest.feature_legality",
                            f"{feature} disabled but {counts[kind]} "
                            f"{kind} event(s) emitted")


def check_wakeup_dispatch(art: "RunArtifacts") -> Iterable[Violation]:
    """Every runnable task is placed exactly once: two placement commits
    of the same task must have a dispatch in between (a task cannot block
    and wake again without having run)."""
    pending: Dict[int, int] = {}   # task -> t of the undispatched commit
    bad = 0
    for ev in art.events:
        if ev.kind in oev.COMMIT_KINDS:
            if ev.task in pending:
                yield Violation(
                    "sched.wakeup_dispatch",
                    f"task {ev.task} committed twice (t={pending[ev.task]} "
                    f"then t={ev.t}) with no dispatch between", t=ev.t)
                bad += 1
                if bad >= MAX_PER_INVARIANT:
                    return
            pending[ev.task] = ev.t
        elif ev.kind == oev.SCHED_DISPATCH:
            pending.pop(ev.task, None)
    # Commits still pending at the end are fine: the engine stopped (task
    # exit cascade or max_us cutoff) inside their placement window.


def check_latency_accounting(art: "RunArtifacts") -> Iterable[Violation]:
    """Dispatch events, the latency histogram and the per-task sums agree."""
    if not art.events:
        return
    res = art.result
    m = res.metrics
    hist = m.get("kernel.wakeup_latency_us")
    dispatches = [ev for ev in art.events if ev.kind == oev.SCHED_DISPATCH]
    if hist is not None:
        if hist["count"] != len(dispatches):
            yield Violation("sched.latency_accounting",
                            f"{len(dispatches)} dispatch events but the "
                            f"latency histogram saw {hist['count']}")
        ev_sum = sum(ev.value for ev in dispatches)
        if hist["sum"] != ev_sum or hist["sum"] != res.wakeup_latency_us:
            yield Violation("sched.latency_accounting",
                            f"latency sums disagree: histogram "
                            f"{hist['sum']}, events {ev_sum}, result "
                            f"{res.wakeup_latency_us}")
    n_wakeups = sum(1 for ev in art.events if ev.kind == oev.SCHED_WAKEUP)
    if n_wakeups != res.total_wakeups:
        yield Violation("sched.latency_accounting",
                        f"{n_wakeups} wakeup commits != total_wakeups "
                        f"{res.total_wakeups}")
    n_migrations = sum(1 for ev in art.events
                       if ev.kind == oev.SCHED_MIGRATE)
    if n_migrations > res.n_migrations:
        yield Violation("sched.latency_accounting",
                        f"{n_migrations} migrate events exceed the result's "
                        f"n_migrations {res.n_migrations}")


def check_histograms(art: "RunArtifacts") -> Iterable[Violation]:
    """Serialized instruments are internally consistent."""
    m = art.result.metrics
    for name, entry in m.items():
        kind = entry.get("type")
        if kind == "counter":
            if not isinstance(entry["value"], int) or entry["value"] < 0:
                yield Violation("metrics.histograms",
                                f"counter {name} = {entry['value']!r}")
        elif kind == "histogram":
            if len(entry["counts"]) != len(entry["edges"]) + 1:
                yield Violation("metrics.histograms",
                                f"{name}: {len(entry['counts'])} buckets "
                                f"for {len(entry['edges'])} edges")
            if sum(entry["counts"]) != entry["count"]:
                yield Violation("metrics.histograms",
                                f"{name}: bucket sum "
                                f"{sum(entry['counts'])} != count "
                                f"{entry['count']}")
            if any(c < 0 for c in entry["counts"]):
                yield Violation("metrics.histograms",
                                f"{name}: negative bucket count")
    for prefix in ("nest", "scxnest"):
        if not _in_group(art, prefix):
            continue
        placements = _counter(m, f"{prefix}.placements")
        for hname in (f"{prefix}.search_len", f"{prefix}.primary_size"):
            entry = m.get(hname)
            if entry is not None and entry["count"] != placements:
                yield Violation("metrics.histograms",
                                f"{hname} observed {entry['count']} "
                                f"placements, counter says {placements}")


def check_freq_sanity(art: "RunArtifacts") -> Iterable[Violation]:
    """§2.3: hardware frequency steps stay inside the machine envelope,
    and the frequency-residency distribution accounts for busy time."""
    lo = art.machine.min_mhz
    hi = art.machine.max_turbo_mhz
    bad = 0
    for ev in art.events:
        if ev.kind == oev.FREQ_STEP and not lo <= ev.value <= hi:
            yield Violation("freq.sanity",
                            f"core {ev.cpu} stepped to {ev.value} MHz, "
                            f"envelope is [{lo}, {hi}]", t=ev.t)
            bad += 1
            if bad >= MAX_PER_INVARIANT:
                return
    fdist = art.result.freq_dist
    if fdist is not None:
        total = sum(fdist.bin_time_us)
        if total != fdist.total_us:
            yield Violation("freq.sanity",
                            f"freq distribution bins sum to {total}, "
                            f"total_us is {fdist.total_us}")
        budget = art.result.makespan_us * art.machine.n_cpus
        if fdist.total_us > budget:
            yield Violation("freq.sanity",
                            f"freq residency {fdist.total_us}µs exceeds "
                            f"makespan × cpus = {budget}µs")


def check_spin_pairing(art: "RunArtifacts") -> Iterable[Violation]:
    """§3.2: per cpu, spin starts and stops strictly alternate."""
    spinning: set = set()
    bad = 0
    for ev in art.events:
        if ev.kind == oev.SPIN_START:
            if ev.cpu in spinning:
                yield Violation("spin.pairing",
                                f"cpu {ev.cpu} started spinning twice",
                                t=ev.t)
                bad += 1
            spinning.add(ev.cpu)
        elif ev.kind == oev.SPIN_STOP:
            if ev.cpu not in spinning:
                yield Violation("spin.pairing",
                                f"cpu {ev.cpu} stopped a spin it never "
                                f"started", t=ev.t)
                bad += 1
            spinning.discard(ev.cpu)
        if bad >= MAX_PER_INVARIANT:
            return
    # Spins still open at the end are legal: the engine stopped mid-spin.


def check_fault_consistency(art: "RunArtifacts") -> Iterable[Violation]:
    """The deterministic fault plan re-derived from the seed reconciles
    with the injected-fault counters and the fault event stream."""
    config = art.scenario.faults
    if config is None or not config.enabled:
        return
    res = art.result
    m = res.metrics
    machine = art.machine
    plan = FaultPlan.generate(config, machine.topology,
                              machine.nominal_mhz, machine.min_mhz,
                              RngRegistry(art.scenario.seed))
    injected = int(res.extra.get("faults_injected", -1))
    if injected != len(plan):
        yield Violation("faults.consistency",
                        f"result reports {injected} planned faults, the "
                        f"re-derived plan has {len(plan)}")
    planned = plan.counts()
    family_counters = {
        KIND_CPU_OFFLINE: (_counter(m, "kernel.fault_cpu_offline")
                           + _counter(m, "kernel.fault_offline_skipped")),
        KIND_THERMAL_CAP: _counter(m, "kernel.fault_thermal_caps"),
        KIND_STRAGGLER: (_counter(m, "kernel.fault_stragglers")
                         + _counter(m, "kernel.fault_straggler_skipped")),
        KIND_CORE_FAILURE: (
            _counter(m, "kernel.fault_core_failures")
            + _counter(m, "kernel.fault_core_failure_skipped")),
    }
    for kind, handled in family_counters.items():
        if handled > planned.get(kind, 0):
            yield Violation("faults.consistency",
                            f"{handled} {kind} faults handled but only "
                            f"{planned.get(kind, 0)} were planned")
    # Core failures offline the thread through the same hotplug machinery,
    # so an online event may repay either an offline fault or a failure.
    if _counter(m, "kernel.fault_cpu_online") \
            > (_counter(m, "kernel.fault_cpu_offline")
               + _counter(m, "kernel.fault_core_failures")):
        yield Violation("faults.consistency",
                        "more cpus brought online than taken offline")
    if art.events:
        counts = _kind_counts(art.events)
        offline_events = counts.get(oev.FAULT_CPU_OFFLINE, 0)
        offline_expected = (_counter(m, "kernel.fault_cpu_offline")
                            + _counter(m, "kernel.fault_core_failures"))
        if offline_events != offline_expected:
            yield Violation("faults.consistency",
                            f"{offline_events} {oev.FAULT_CPU_OFFLINE} "
                            f"events but offline + core-failure counters "
                            f"= {offline_expected}")
        event_mirrors = (
            (oev.FAULT_CPU_ONLINE, "kernel.fault_cpu_online"),
            (oev.FAULT_THERMAL_CAP, "kernel.fault_thermal_caps"),
            (oev.FAULT_STRAGGLER, "kernel.fault_stragglers"),
            (oev.FAULT_CORE_FAILURE, "kernel.fault_core_failures"),
        )
        for kind, counter in event_mirrors:
            if counts.get(kind, 0) != _counter(m, counter):
                yield Violation("faults.consistency",
                                f"{counts.get(kind, 0)} {kind} events but "
                                f"{counter} = {_counter(m, counter)}")
        jitter_events = counts.get(oev.FAULT_JITTER_ON, 0)
        if (config.tick_jitter_us > 0) != (jitter_events == 1):
            yield Violation("faults.consistency",
                            f"tick_jitter_us={config.tick_jitter_us} but "
                            f"{jitter_events} jitter_on event(s)")


def check_rt_miss_causality(art: "RunArtifacts") -> Iterable[Violation]:
    """Deadline streams carry generous slack, so a fault-free run meets
    every deadline: a miss without a single logged fault is a scheduler
    bug, not bad luck."""
    m = art.result.metrics
    misses = _counter(m, "kernel.rt_deadline_miss")
    if misses == 0:
        return
    fault_counters = ("kernel.fault_core_failures", "kernel.fault_cpu_offline",
                      "kernel.fault_thermal_caps", "kernel.fault_stragglers")
    if all(_counter(m, c) == 0 for c in fault_counters) \
            and not any(ev.kind in oev.FAULT_KINDS for ev in art.events):
        yield Violation("rt.miss_causality",
                        f"{misses} deadline miss(es) in a run that logged "
                        f"no fault")
        return
    if art.events:
        first_fault = min((ev.t for ev in art.events
                           if ev.kind in oev.FAULT_KINDS), default=None)
        bad = 0
        for ev in art.events:
            if ev.kind != oev.RT_DEADLINE_MISS:
                continue
            if first_fault is None or ev.t < first_fault:
                yield Violation("rt.miss_causality",
                                f"task {ev.task} missed its deadline before "
                                f"any fault was injected", t=ev.t)
                bad += 1
                if bad >= MAX_PER_INVARIANT:
                    return


def check_rt_backup_disjoint(art: "RunArtifacts") -> Iterable[Violation]:
    """A backup admitted against a known primary core must land on a
    different physical core — otherwise one failure takes both copies."""
    topo = art.machine.topology
    bad = 0
    for ev in art.events:
        if ev.kind != oev.RT_BACKUP_PLACE or ev.value < 0:
            continue
        if topo.physical_core_of(ev.cpu) == topo.physical_core_of(ev.value):
            yield Violation("rt.backup_disjoint",
                            f"backup {ev.task} placed on cpu {ev.cpu}, the "
                            f"same physical core as its primary's cpu "
                            f"{ev.value}", t=ev.t)
            bad += 1
            if bad >= MAX_PER_INVARIANT:
                return


def check_rt_activation_pairing(art: "RunArtifacts") -> Iterable[Violation]:
    """Backups are promoted only inside the application of a core-failure
    fault, so every activation (and every RT kill) shares its timestamp
    with a ``fault.core_failure`` event, and the counters mirror the
    event stream."""
    m = art.result.metrics
    activations = _counter(m, "kernel.rt_backup_activations")
    if art.events:
        counts = _kind_counts(art.events)
        if counts.get(oev.RT_BACKUP_ACTIVATE, 0) != activations:
            yield Violation("rt.activation_pairing",
                            f"{counts.get(oev.RT_BACKUP_ACTIVATE, 0)} "
                            f"activation events but the counter says "
                            f"{activations}")
        if counts.get(oev.RT_KILL, 0) != _counter(m, "kernel.rt_kills"):
            yield Violation("rt.activation_pairing",
                            f"{counts.get(oev.RT_KILL, 0)} rt.kill events "
                            f"but the counter says "
                            f"{_counter(m, 'kernel.rt_kills')}")
        failure_times = {ev.t for ev in art.events
                         if ev.kind == oev.FAULT_CORE_FAILURE}
        bad = 0
        for ev in art.events:
            if ev.kind not in (oev.RT_BACKUP_ACTIVATE, oev.RT_KILL):
                continue
            if ev.t not in failure_times:
                yield Violation("rt.activation_pairing",
                                f"{ev.kind} for task {ev.task} has no "
                                f"core-failure event at its timestamp",
                                t=ev.t)
                bad += 1
                if bad >= MAX_PER_INVARIANT:
                    return
    elif activations > _counter(m, "kernel.rt_kills"):
        yield Violation("rt.activation_pairing",
                        f"{activations} backup activations exceed "
                        f"{_counter(m, 'kernel.rt_kills')} RT kills")


def check_scxnest_accounting(art: "RunArtifacts") -> Iterable[Violation]:
    """scx_nest tier accounting: every placement is claimed by exactly
    one of primary / reserve / global-queue fallback, impatient
    placements are a subset of the fallbacks, and compaction-timer
    outcomes never exceed the timers armed."""
    if not _is_scxnest(art):
        return
    m = art.result.metrics
    tiers = {k: _counter(m, f"scxnest.{k}") for k in
             ("primary_hits", "reserve_hits", "cfs_fallbacks")}
    placements = _counter(m, "scxnest.placements")
    if sum(tiers.values()) != placements:
        yield Violation("scxnest.accounting",
                        f"{tiers} sums to {sum(tiers.values())} "
                        f"!= placements {placements}")
    if _counter(m, "scxnest.impatient_placements") > tiers["cfs_fallbacks"]:
        yield Violation("scxnest.accounting",
                        f"impatient placements "
                        f"{_counter(m, 'scxnest.impatient_placements')} "
                        f"exceed cfs fallbacks {tiers['cfs_fallbacks']}")
    fired = (_counter(m, "scxnest.compactions")
             + _counter(m, "scxnest.compact_cancels"))
    if fired > _counter(m, "scxnest.compact_arms"):
        yield Violation("scxnest.accounting",
                        f"{fired} compaction-timer outcomes but only "
                        f"{_counter(m, 'scxnest.compact_arms')} arms")
    if _counter(m, "scxnest.vtime_pulls") \
            > _counter(m, "scxnest.vtime_enqueues"):
        yield Violation("scxnest.accounting",
                        f"{_counter(m, 'scxnest.vtime_pulls')} vtime pulls "
                        f"exceed {_counter(m, 'scxnest.vtime_enqueues')} "
                        f"enqueues")


def check_scxnest_event_counter_match(art: "RunArtifacts"
                                      ) -> Iterable[Violation]:
    """scx_nest's event log and counters tell the same story."""
    if not _is_scxnest(art) or not art.events:
        return
    m = art.result.metrics
    counts = _kind_counts(art.events)
    expected = {
        oev.PLACE_PRIMARY: _counter(m, "scxnest.primary_hits"),
        oev.PLACE_RESERVE: _counter(m, "scxnest.reserve_hits"),
        oev.SCXNEST_PROMOTE: _counter(m, "scxnest.reserve_hits"),
        oev.PLACE_IMPATIENT: _counter(m, "scxnest.impatient_placements"),
        oev.PLACE_CFS: (_counter(m, "scxnest.cfs_fallbacks")
                        - _counter(m, "scxnest.impatient_placements")),
        oev.SCXNEST_EXPAND: _counter(m, "scxnest.expansions"),
        oev.SCXNEST_COMPACT: _counter(m, "scxnest.compactions"),
        oev.SCXNEST_COMPACT_ARM: _counter(m, "scxnest.compact_arms"),
        oev.SCXNEST_COMPACT_CANCEL: _counter(m, "scxnest.compact_cancels"),
        oev.SCXNEST_VTIME_PULL: _counter(m, "scxnest.vtime_pulls"),
        oev.NEST_OFFLINE_EVICT: _counter(m, "scxnest.offline_evictions"),
    }
    for kind, want in expected.items():
        got = counts.get(kind, 0)
        if got != want:
            yield Violation("scxnest.event_counter_match",
                            f"{got} {kind} event(s) but counters say {want}")
    total_place = sum(counts.get(k, 0) for k in oev.PLACEMENT_KINDS)
    placements = _counter(m, "scxnest.placements")
    if total_place != placements:
        yield Violation("scxnest.event_counter_match",
                        f"{total_place} place.* events != placements "
                        f"counter {placements}")


def check_scxnest_mask_replay(art: "RunArtifacts") -> Iterable[Violation]:
    """The primary mask replayed from ``scxnest.*`` transition events is
    always consistent: promotions and expansions add non-members,
    compactions remove members, each transition's reported size matches
    the replayed set, primary hits target members, and the final
    replayed set equals the live snapshot."""
    if not _is_scxnest(art) or not art.events:
        return
    primary: set = set()
    bad = 0
    for ev in art.events:
        kind = ev.kind
        if kind in oev.SCXNEST_PRIMARY_ADD_KINDS:
            # Both adds are strict: the policy guards membership before
            # emitting (unlike nest.expand, which may be idempotent).
            if ev.cpu in primary:
                yield Violation("scxnest.mask_replay",
                                f"{kind} of cpu {ev.cpu} already in primary",
                                t=ev.t)
                bad += 1
            primary.add(ev.cpu)
        elif kind in oev.SCXNEST_PRIMARY_REMOVE_KINDS:
            if ev.cpu not in primary:
                yield Violation("scxnest.mask_replay",
                                f"{kind} of cpu {ev.cpu} not in primary",
                                t=ev.t)
                bad += 1
            primary.discard(ev.cpu)
        elif kind == oev.NEST_OFFLINE_EVICT:
            primary.discard(ev.cpu)   # may have been reserve-only
        elif kind == oev.PLACE_PRIMARY:
            if ev.cpu not in primary:
                yield Violation("scxnest.mask_replay",
                                f"{kind} chose cpu {ev.cpu} outside the "
                                f"replayed primary mask {sorted(primary)}",
                                t=ev.t)
                bad += 1
        else:
            continue
        if kind in oev.SCXNEST_TRANSITION_KINDS and ev.value != len(primary):
            yield Violation("scxnest.mask_replay",
                            f"{kind} reports primary size {ev.value}, "
                            f"replay says {len(primary)}", t=ev.t)
            bad += 1
        if bad >= MAX_PER_INVARIANT:
            return
    if art.nest is not None and primary != set(art.nest.primary):
        yield Violation("scxnest.mask_replay",
                        f"final replayed primary {sorted(primary)} != live "
                        f"snapshot {sorted(art.nest.primary)}")


def check_result_sanity(art: "RunArtifacts") -> Iterable[Violation]:
    """Energy, latency and horizon bounds on the summary record."""
    res = art.result
    if not math.isfinite(res.energy_joules) or res.energy_joules < 0:
        yield Violation("result.sanity",
                        f"energy {res.energy_joules!r} out of range")
    if res.makespan_us > 0 and res.energy_joules == 0:
        yield Violation("result.sanity", "nonzero run consumed no energy")
    if res.wakeup_latency_us < 0:
        yield Violation("result.sanity",
                        f"negative wakeup latency {res.wakeup_latency_us}")
    if art.scenario.max_us is not None \
            and res.makespan_us > art.scenario.max_us:
        yield Violation("result.sanity",
                        f"makespan {res.makespan_us} exceeds the "
                        f"max_us cutoff {art.scenario.max_us}")
    under = res.underload
    if under is not None and under.underload_per_second < 0:
        yield Violation("result.sanity", "negative underload rate")


#: The oracle, in evaluation order.  Names are stable: repro files,
#: shrinking and the mutation canary key off them.
INVARIANTS: Tuple[Tuple[str, Any], ...] = (
    ("run.completed", check_completed),
    ("clock.monotonic", check_clock_monotonic),
    ("events.vocabulary", check_vocabulary),
    ("nest.placement_accounting", check_placement_accounting),
    ("nest.event_counter_match", check_event_counter_match),
    ("nest.primary_replay", check_primary_replay),
    ("nest.final_state", check_final_state),
    ("nest.attachment", check_attachment),
    ("nest.feature_legality", check_feature_legality),
    ("sched.wakeup_dispatch", check_wakeup_dispatch),
    ("sched.latency_accounting", check_latency_accounting),
    ("metrics.histograms", check_histograms),
    ("freq.sanity", check_freq_sanity),
    ("spin.pairing", check_spin_pairing),
    ("faults.consistency", check_fault_consistency),
    ("rt.miss_causality", check_rt_miss_causality),
    ("rt.backup_disjoint", check_rt_backup_disjoint),
    ("rt.activation_pairing", check_rt_activation_pairing),
    ("scxnest.accounting", check_scxnest_accounting),
    ("scxnest.event_counter_match", check_scxnest_event_counter_match),
    ("scxnest.mask_replay", check_scxnest_mask_replay),
)


def check_run(art: "RunArtifacts") -> List[Violation]:
    """Evaluate every invariant against one run's artifacts."""
    if art.error is not None:
        return [Violation("run.completed", f"simulation crashed: {art.error}")]
    if art.result is None:   # pragma: no cover - execute() guarantees one
        return [Violation("run.completed", "no result produced")]
    out: List[Violation] = []
    for _name, fn in INVARIANTS:
        out.extend(fn(art))
    return out

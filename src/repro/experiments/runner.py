"""Experiment harness: run (workload × machine × scheduler × governor).

This is the equivalent of the artifact's ``run_everything`` scripts: it
builds a fresh simulator for every run, wires up the measurement sinks, runs
to completion and returns a :class:`RunResult`.  ``compare`` evaluates a set
of scheduler/governor combinations against the paper's baseline
(CFS-schedutil) over several seeds, producing the speedup/error-bar numbers
plotted in Figures 5-13.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..core.params import NestParams
from ..faults import FaultConfig, FaultInjector, FaultPlan
from ..governors.base import Governor
from ..governors.performance import PerformanceGovernor
from ..governors.schedutil import SchedutilGovernor
from ..hw.machines import Machine
from ..kernel.scheduler_core import Kernel, KernelConfig
from ..metrics.freqdist import FreqDistribution
from ..metrics.summary import (RunResult, energy_savings, improvement_stddev,
                               speedup)
from ..metrics.underload import UnderloadTracker
from ..sched.base import SelectionPolicy
from ..sched.registry import make_registered_policy
from ..sim.engine import Engine
from ..sim.trace import Tracer
from ..workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .parallel import SweepExecutor

#: The paper's baseline combination (§5.1).
BASELINE = ("cfs", "schedutil")

#: The combinations most figures sweep.
STANDARD_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("cfs", "schedutil"),
    ("cfs", "performance"),
    ("nest", "schedutil"),
    ("nest", "performance"),
)


def make_policy(name: str, nest_params: Optional[NestParams] = None) -> SelectionPolicy:
    """Instantiate a selection policy by short name (sched/registry.py)."""
    return make_registered_policy(name, nest_params)


def gc_totals() -> Tuple[int, int]:
    """(collections, objects collected) summed over all GC generations."""
    stats = gc.get_stats()
    return (sum(s.get("collections", 0) for s in stats),
            sum(s.get("collected", 0) for s in stats))


def _maybe_start_tracemalloc() -> bool:
    """Start tracemalloc for this run iff ``$REPRO_TRACEMALLOC`` asks.

    Off by default: tracing allocations costs 2-4x wall time, which would
    poison every timing number in the sweep.  Returns True when *this*
    call started tracing (and therefore owns stopping it).
    """
    if os.environ.get("REPRO_TRACEMALLOC", "") not in ("1", "true", "yes"):
        return False
    import tracemalloc
    if tracemalloc.is_tracing():
        return False
    tracemalloc.start()
    return True


def _attach_memory_stats(result: RunResult, gc_base: Tuple[int, int],
                         tracing_allocs: bool) -> None:
    """Fill the host-side memory fields of a finished RunResult.

    Reads only (``getrusage``, ``gc.get_stats``) — the simulation is
    already over, and nothing here feeds back into engine state, so the
    deterministic result surface is untouched.
    """
    from ..obs.telemetry.hub import rss_peak_kb
    result.rss_peak_kb = rss_peak_kb()
    collections, collected = gc_totals()
    result.gc_collections = collections - gc_base[0]
    result.gc_collected = collected - gc_base[1]
    if tracing_allocs:
        import tracemalloc
        result.alloc_peak_kb = tracemalloc.get_traced_memory()[1] // 1024
        tracemalloc.stop()


def make_governor(name: str) -> Governor:
    """Instantiate a power governor by short name."""
    key = name.lower()
    if key in ("schedutil", "sched"):
        return SchedutilGovernor()
    if key in ("performance", "perf"):
        return PerformanceGovernor()
    raise ValueError(f"unknown governor {name!r}")


def run_experiment(
    workload: Workload,
    machine: Machine,
    scheduler: str = "cfs",
    governor: str = "schedutil",
    seed: int = 0,
    nest_params: Optional[NestParams] = None,
    record_trace: bool = False,
    max_us: Optional[int] = None,
    kernel_config: Optional[KernelConfig] = None,
    collect_events: bool = False,
    faults: Optional[FaultConfig] = None,
    policy_probe: Optional[Callable[[SelectionPolicy], None]] = None,
    telemetry: Optional[Any] = None,
) -> RunResult:
    """Run one simulation to completion and collect its measurements.

    ``collect_events=True`` attaches a memory sink to the engine's
    structured event log; the events ride on the result as
    ``result.events`` (transient — not cached, like trace segments).

    ``faults`` enables the chaos subsystem (see :mod:`repro.faults`): the
    config expands into a deterministic fault plan drawn from the run's
    own seeded RNG streams, so the faulted run is exactly as reproducible
    as a clean one.

    ``policy_probe`` is called with the live selection policy after the
    run (and after its own invariant check), before the policy is
    discarded — the verification oracle uses it to snapshot final nest
    membership, which never reaches the serialized result.

    ``telemetry`` is a per-process
    :class:`~repro.obs.telemetry.hub.WorkerTelemetry` emitter (installed
    by the sweep executor's pool initializer); when present, a
    wall-clock-gated heartbeat sink is piggybacked on the tracer so the
    parent sees live sim-time progress.  The sink only *reads* engine
    state — a telemetry-on run stays bit-identical to a telemetry-off
    run.
    """
    wall_start = time.perf_counter()
    gc_base = gc_totals()
    tracing_allocs = _maybe_start_tracemalloc()
    engine = Engine(seed)
    policy = make_policy(scheduler, nest_params)
    events = engine.obs.attach_memory() if collect_events else None
    tracer = Tracer(machine.n_cpus, record_segments=record_trace)
    gov = make_governor(governor)
    kernel = Kernel(engine, machine, policy, gov,
                    config=kernel_config, tracer=tracer)

    under = UnderloadTracker()
    tracer.add_sink(under.segment_sink)
    kernel.runnable_observers.append(under.runnable_sink)
    fdist = FreqDistribution(machine)
    tracer.add_sink(fdist.segment_sink)
    if telemetry is not None:
        tracer.add_sink(telemetry.heartbeat_sink(engine))

    injector: Optional[FaultInjector] = None
    if faults is not None and faults.enabled:
        plan = FaultPlan.generate(faults, machine.topology,
                                  machine.nominal_mhz, machine.min_mhz,
                                  engine.rng)
        injector = FaultInjector(kernel, plan, faults)
        injector.install()

    workload.start(kernel)
    end = kernel.run_until_idle(max_us)
    policy.check_invariants()
    if policy_probe is not None:
        policy_probe(policy)

    metrics = kernel.metrics.as_dict("kernel.")
    policy_registry = getattr(policy, "metrics", None)
    if policy_registry is not None:
        metrics.update(policy_registry.as_dict(f"{policy.name.lower()}."))

    tasks = kernel.tasks.values()
    result = RunResult(
        scheduler=policy.name,
        governor=gov.name,
        machine=machine.name,
        workload=workload.name,
        seed=seed,
        makespan_us=end,
        energy_joules=kernel.energy.energy_joules,
        underload=under.finalize(end),
        freq_dist=fdist,
        n_tasks=len(kernel.tasks),
        n_migrations=sum(t.n_migrations for t in tasks),
        total_wakeups=sum(t.n_wakeups for t in tasks),
        wakeup_latency_us=sum(t.wakeup_latency_us for t in tasks),
        policy_stats=dict(getattr(policy, "stats", {})),
        metrics=metrics,
        sim_wall_s=time.perf_counter() - wall_start,
        events_processed=engine.events_processed,
    )
    _attach_memory_stats(result, gc_base, tracing_allocs)
    if injector is not None:
        result.extra["faults_injected"] = float(len(injector.plan))
    if record_trace:
        result.extra["n_segments"] = float(len(tracer.segments))
        result.trace_segments = tracer.segments  # type: ignore[attr-defined]
    if events is not None:
        result.extra["n_events"] = float(len(events))
        result.events = events  # type: ignore[attr-defined]
    return result


@dataclass
class ComboStats:
    """Aggregate over the seeds of one scheduler/governor combination."""

    scheduler: str
    governor: str
    makespans_us: List[int] = field(default_factory=list)
    energies_j: List[float] = field(default_factory=list)
    underload_per_s: List[float] = field(default_factory=list)
    top_freq_fraction: List[float] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.scheduler}-{self.governor}"

    @property
    def mean_makespan_us(self) -> float:
        return sum(self.makespans_us) / len(self.makespans_us)

    @property
    def mean_energy_j(self) -> float:
        return sum(self.energies_j) / len(self.energies_j)

    @property
    def mean_underload_per_s(self) -> float:
        return sum(self.underload_per_s) / len(self.underload_per_s)

    @property
    def mean_top_freq(self) -> float:
        return sum(self.top_freq_fraction) / len(self.top_freq_fraction)


@dataclass
class Comparison:
    """Speedups of each combination against the CFS-schedutil baseline."""

    workload: str
    machine: str
    combos: Dict[Tuple[str, str], ComboStats]

    @property
    def baseline(self) -> ComboStats:
        return self.combos[BASELINE]

    def speedup_of(self, scheduler: str, governor: str) -> float:
        cand = self.combos[(scheduler, governor)]
        return speedup(self.baseline.makespans_us, cand.makespans_us)

    def energy_savings_of(self, scheduler: str, governor: str) -> float:
        cand = self.combos[(scheduler, governor)]
        return energy_savings(self.baseline.energies_j, cand.energies_j)

    def error_bar_of(self, scheduler: str, governor: str) -> float:
        cand = self.combos[(scheduler, governor)]
        return improvement_stddev(self.baseline.mean_makespan_us,
                                  [float(v) for v in cand.makespans_us])

    def underload_of(self, scheduler: str, governor: str) -> float:
        return self.combos[(scheduler, governor)].mean_underload_per_s


def compare(
    workload_factory: Callable[[], Workload],
    machine: Machine,
    combos: Sequence[Tuple[str, str]] = STANDARD_COMBOS,
    seeds: Sequence[int] = (1, 2, 3),
    nest_params: Optional[NestParams] = None,
    max_us: Optional[int] = None,
    kernel_config: Optional[KernelConfig] = None,
    executor: Optional["SweepExecutor"] = None,
    faults: Optional[FaultConfig] = None,
) -> Comparison:
    """Run every combo over every seed; the paper's Figure 5-13 procedure.

    With an ``executor`` the (combo × seed) sweep fans out over worker
    processes (and consults the executor's result cache); the aggregates
    are built from the results in the same deterministic (combo, seed)
    order as the serial path, so both paths produce identical Comparisons.
    Sweeps the executor cannot express as picklable specs (ad-hoc
    workloads or machines, custom kernel configs) fall back to serial.
    """
    results: Optional[List[RunResult]] = None
    wl_name: Optional[str] = None
    if executor is not None:
        specs = _sweep_specs(workload_factory, machine, combos, seeds,
                             nest_params, max_us, kernel_config, faults)
        if specs is not None:
            results = executor.run(specs)
            wl_name = specs[0].workload

    stats: Dict[Tuple[str, str], ComboStats] = {}
    idx = 0
    for scheduler, governor in combos:
        cs = ComboStats(scheduler, governor)
        for seed in seeds:
            if results is not None:
                res = results[idx]
                idx += 1
            else:
                wl = workload_factory()
                wl_name = wl.name
                res = run_experiment(wl, machine, scheduler, governor, seed,
                                     nest_params=nest_params, max_us=max_us,
                                     kernel_config=kernel_config,
                                     faults=faults)
            cs.makespans_us.append(res.makespan_us)
            cs.energies_j.append(res.energy_joules)
            cs.underload_per_s.append(res.underload.underload_per_second)
            cs.top_freq_fraction.append(res.freq_dist.top_bins_fraction())
        stats[(scheduler, governor)] = cs
    return Comparison(workload=wl_name or "?", machine=machine.name,
                      combos=stats)


def _sweep_specs(
    workload_factory: Callable[[], Workload],
    machine: Machine,
    combos: Sequence[Tuple[str, str]],
    seeds: Sequence[int],
    nest_params: Optional[NestParams],
    max_us: Optional[int],
    kernel_config: Optional[KernelConfig],
    faults: Optional[FaultConfig] = None,
) -> Optional[List["RunSpec"]]:
    """Express a compare() sweep as RunSpecs, or None if it cannot be."""
    from ..hw.machines import machine_key
    from ..workloads.catalog import can_reconstruct
    from .parallel import RunSpec

    mk = machine_key(machine)
    if mk is None:
        return None
    probe = workload_factory()
    if not can_reconstruct(probe):
        return None
    scale = getattr(probe, "scale", 1.0)
    return [RunSpec(workload=probe.name, machine=mk, scheduler=scheduler,
                    governor=governor, seed=seed, scale=scale,
                    nest_params=nest_params, max_us=max_us,
                    kernel_config=kernel_config, faults=faults)
            for scheduler, governor in combos
            for seed in seeds]

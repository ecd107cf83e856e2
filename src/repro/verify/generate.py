"""Seeded scenario generation: random-but-reproducible simulation inputs.

A scenario is a :class:`~repro.experiments.parallel.RunSpec`, the one
run description the sweeps and the result cache use too: workload,
machine, scheduler, governor, seed, optional Nest parameter overrides,
optional fault config, optional horizon cap.  It round-trips through
JSON (``RunSpec.to_dict`` / ``RunSpec.from_dict``) and is the currency
of the fuzzer, the shrinker and the repro files.

:class:`ScenarioGenerator` mirrors the fault planner's RNG discipline
(:mod:`repro.faults.plan`): scenario *i* under base seed *s* draws from
the single named stream ``scenario:i`` of ``RngRegistry(s)``, so it is a
pure function of ``(s, i)`` — generating scenarios out of order, or only
one of them, yields exactly the same objects.  That property is what
makes a shrunk repro replayable from just ``(seed, index)``.

The draw pools deliberately skew small: every workload/machine pair
simulates in single-digit-to-tens of milliseconds, so a 200-scenario
fuzz run fits a CI smoke budget.

``scenario_strategy`` exposes the same generator as a ``hypothesis``
strategy when the optional dependency is installed (the ``verify``
extra); the core fuzzer never imports hypothesis.
"""

from __future__ import annotations

from ..core.params import NestParams
from ..experiments.parallel import RunSpec
from ..faults.plan import FaultConfig
from ..sim.rng import RngRegistry

#: (workload name, usable scales) — all catalogued, all cheap to simulate.
WORKLOAD_POOL = (
    ("configure-gcc", (0.1, 0.2, 0.3)),
    ("configure-llvm_ninja", (0.1, 0.2)),
    ("phoronix-libavif-avifenc-1", (0.2, 0.3)),
    ("nas-mg", (0.1, 0.2)),
    ("dacapo-h2", (0.1,)),
    ("leveldb", (1.0,)),
    ("redis", (1.0,)),
    ("deadline-periodic", (0.5, 1.0)),
    ("deadline-sporadic", (0.5, 1.0)),
)

#: Weighted machine pool (small boxes dominate to keep runs fast).
MACHINE_POOL = ("ryzen_4650g", "ryzen_4650g", "ryzen_4650g", "5218_2s")

#: Weighted scheduler pool, derived from the policy registry's
#: ``fuzz_weight`` metadata (Nest dominates: it carries most invariants;
#: scx_nest carries the scxnest.* family; the rt.* family applies to
#: every policy's runs, since the kernel owns RT accounting).  Any newly
#: registered policy joins the pool — and therefore the seeded scenario
#: stream — automatically.
from ..sched.registry import fuzz_scheduler_pool

SCHEDULER_POOL = fuzz_scheduler_pool()

GOVERNOR_POOL = ("schedutil", "schedutil", "performance")

#: Features the generator may switch off, one at a time (§5.3 ablations).
ABLATABLE_FEATURES = (
    "reserve", "compaction", "impatience", "spin", "attachment",
    "prev_core_first", "wakeup_work_conservation", "placement_flag",
)

#: Fault horizon matched to the pool's 2–100 ms makespans, so generated
#: faults actually land mid-run.
FAULT_HORIZON_US = 40_000


class ScenarioGenerator:
    """Deterministic scenario factory: ``generate(i)`` is a pure function
    of ``(base_seed, i)``."""

    def __init__(self, base_seed: int = 1) -> None:
        self.base_seed = base_seed

    def generate(self, index: int) -> RunSpec:
        # A fresh registry per call: stream state never leaks between
        # indices, so scenarios are order-independent.
        s = RngRegistry(self.base_seed).stream(f"scenario:{index}")

        workload, scales = s.choice(WORKLOAD_POOL)
        scale = s.choice(scales)
        machine = s.choice(MACHINE_POOL)
        scheduler = s.choice(SCHEDULER_POOL)
        governor = s.choice(GOVERNOR_POOL)
        seed = s.randrange(1, 1_000_000)

        from ..sched.registry import policy_info
        nest_params = None
        if policy_info(scheduler).uses_nest_params and s.random() < 0.5:
            nest_params = NestParams(
                p_remove_ticks=s.choice((0.5, 1.0, 2.0, 4.0)),
                r_max=s.randrange(0, 9),
                r_impatient=s.randrange(0, 5),
                s_max_ticks=s.choice((0.0, 1.0, 2.0)),
            )
            if s.random() < 0.3:
                nest_params = nest_params.without(
                    s.choice(ABLATABLE_FEATURES))

        faults = None
        if s.random() < 0.3:
            faults = FaultConfig(
                hotplug_rate_per_s=s.choice((0.0, 50.0, 100.0)),
                hotplug_downtime_us=s.choice((5_000, 10_000, 20_000)),
                thermal_rate_per_s=s.choice((0.0, 50.0, 100.0)),
                thermal_duration_us=s.choice((5_000, 15_000)),
                thermal_cap_ratio=s.choice((0.5, 0.6, 0.8)),
                tick_jitter_us=s.choice((0, 0, 100, 300)),
                straggler_rate_per_s=s.choice((0.0, 100.0, 200.0)),
                straggler_factor=s.choice((2.0, 4.0)),
                core_failure_rate_per_s=s.choice((0.0, 50.0, 100.0)),
                core_failure_burst=s.choice((2, 3, 4)),
                core_failure_budget=s.choice((0, 6, 12)),
                core_failure_downtime_us=s.choice((10_000, 30_000)),
                horizon_us=FAULT_HORIZON_US,
            )
            if not faults.enabled:
                faults = None

        max_us = None
        if s.random() < 0.15:
            max_us = s.randrange(5_000, 60_000)

        return RunSpec(workload=workload, machine=machine,
                       scheduler=scheduler, governor=governor, seed=seed,
                       scale=scale, nest_params=nest_params, faults=faults,
                       max_us=max_us)


def scenario_strategy(base_seed: int = 1, max_index: int = 1 << 20):
    """A ``hypothesis`` strategy over generated scenarios.

    Requires the optional ``hypothesis`` dependency (the ``verify``
    extra); the fuzzer itself is pure stdlib and never calls this.
    """
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise ImportError(
            "scenario_strategy requires hypothesis; install the "
            "'verify' extra (pip install repro[verify])") from exc
    gen = ScenarioGenerator(base_seed)
    return st.integers(min_value=0, max_value=max_index).map(gen.generate)

"""Seeded scenario generation: random-but-reproducible simulation inputs.

A :class:`Scenario` is a pure-data description of one simulation
(workload, machine, scheduler, governor, seed, optional Nest parameter
overrides, optional fault config, optional horizon cap) that round-trips
through JSON — the currency of the fuzzer, the shrinker and the repro
files.

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

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.params import NestParams
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
#: FT-RT carries the rt.* family and scx_nest the scxnest.* family).  Any
#: newly registered policy joins the pool — and therefore the seeded
#: scenario stream — automatically.
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


@dataclass(frozen=True)
class Scenario:
    """One generated simulation input (JSON-serializable, hashable)."""

    workload: str
    machine: str
    scheduler: str
    governor: str
    seed: int
    scale: float = 1.0
    #: ``dataclasses.asdict`` of a NestParams override, or None for the
    #: paper defaults (kept as a plain dict so the scenario stays JSON).
    nest_params: Optional[tuple] = None
    faults: Optional[tuple] = None
    max_us: Optional[int] = None

    def nest_params_obj(self) -> Optional[NestParams]:
        if self.nest_params is None:
            return None
        return NestParams(**dict(self.nest_params))

    def faults_obj(self) -> Optional[FaultConfig]:
        if self.faults is None:
            return None
        return FaultConfig(**dict(self.faults))

    @property
    def label(self) -> str:
        tags = []
        if self.nest_params is not None:
            tags.append("params")
        if self.faults is not None:
            tags.append("faults")
        if self.max_us is not None:
            tags.append(f"cap{self.max_us}")
        suffix = f" [{','.join(tags)}]" if tags else ""
        return (f"{self.workload}@{self.scale}/{self.machine}/"
                f"{self.scheduler}-{self.governor}/s{self.seed}{suffix}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "governor": self.governor,
            "seed": self.seed,
            "scale": self.scale,
            "nest_params": (None if self.nest_params is None
                            else dict(self.nest_params)),
            "faults": None if self.faults is None else dict(self.faults),
            "max_us": self.max_us,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        return cls(
            workload=data["workload"],
            machine=data["machine"],
            scheduler=data["scheduler"],
            governor=data["governor"],
            seed=data["seed"],
            scale=data.get("scale", 1.0),
            nest_params=_freeze(data.get("nest_params")),
            faults=_freeze(data.get("faults")),
            max_us=data.get("max_us"),
        )


def _freeze(d: Optional[Dict[str, Any]]) -> Optional[tuple]:
    """Dicts are unhashable; scenarios carry sorted item tuples instead."""
    if d is None:
        return None
    return tuple(sorted(d.items()))


def freeze_params(params: NestParams) -> tuple:
    return _freeze(dataclasses.asdict(params))


def freeze_faults(config: FaultConfig) -> tuple:
    return _freeze(dataclasses.asdict(config))


class ScenarioGenerator:
    """Deterministic scenario factory: ``generate(i)`` is a pure function
    of ``(base_seed, i)``."""

    def __init__(self, base_seed: int = 1) -> None:
        self.base_seed = base_seed

    def generate(self, index: int) -> Scenario:
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
            params = NestParams(
                p_remove_ticks=s.choice((0.5, 1.0, 2.0, 4.0)),
                r_max=s.randrange(0, 9),
                r_impatient=s.randrange(0, 5),
                s_max_ticks=s.choice((0.0, 1.0, 2.0)),
            )
            if s.random() < 0.3:
                params = params.without(s.choice(ABLATABLE_FEATURES))
            nest_params = freeze_params(params)

        faults = None
        if s.random() < 0.3:
            config = FaultConfig(
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
            if config.enabled:
                faults = freeze_faults(config)

        max_us = None
        if s.random() < 0.15:
            max_us = s.randrange(5_000, 60_000)

        return Scenario(workload=workload, machine=machine,
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

"""Fault configuration and deterministic plan generation.

A :class:`FaultConfig` is a frozen, picklable description of *how much*
chaos to inject (rates, durations, magnitudes).  It rides on a
:class:`~repro.experiments.parallel.RunSpec` and is mixed into the result
cache's content address, so a faulted run never collides with a clean one.

A :class:`FaultPlan` is the expansion of a config into concrete
:class:`FaultSpec` records — *when*, *where*, *what* — drawn from the
run's :class:`~repro.sim.rng.RngRegistry` streams.  Streams are named per
fault family (``faults:hotplug`` etc.), so enabling one family never
perturbs the draw sequence of another, and the whole plan is a pure
function of (base seed, config, machine shape).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..hw.topology import Topology
from ..sim.rng import RngRegistry

#: Fault kinds carried by FaultSpec.kind.
KIND_CPU_OFFLINE = "cpu_offline"
KIND_THERMAL_CAP = "thermal_cap"
KIND_STRAGGLER = "straggler"
KIND_CORE_FAILURE = "core_failure"


@dataclass(frozen=True)
class FaultConfig:
    """Tunables of the chaos subsystem (all families off by default).

    Rates are events per simulated second over ``[0, horizon_us)``; the
    event *count* of each family is ``round(rate * horizon_s)``, so it is
    deterministic and independent of the run's actual makespan.
    """

    #: Core hotplug: hardware threads taken offline, then brought back.
    hotplug_rate_per_s: float = 0.0
    hotplug_downtime_us: int = 80_000
    #: Never offline below this many online hardware threads.
    min_online_cpus: int = 2

    #: Thermal capping of physical cores.
    thermal_rate_per_s: float = 0.0
    thermal_duration_us: int = 150_000
    #: Cap as a fraction of the machine's nominal frequency.
    thermal_cap_ratio: float = 0.6

    #: Timer-tick jitter: each tick period is perturbed by a seeded offset
    #: drawn uniformly from [-tick_jitter_us, +tick_jitter_us].
    tick_jitter_us: int = 0

    #: Stragglers: a running task's remaining work is multiplied.
    straggler_rate_per_s: float = 0.0
    straggler_factor: float = 4.0

    #: Correlated core failures: each event is a *burst* of fail-stop
    #: failures of hardware threads drawn from one socket (threads fail
    #: together because they share a power rail / cooling domain).  RT
    #: task copies resident on a failed thread are destroyed, not
    #: migrated; the thread comes back cold after the downtime.
    core_failure_rate_per_s: float = 0.0
    #: Hardware threads failed per correlated burst.
    core_failure_burst: int = 2
    #: k-of-n failure budget: total thread failures the plan may contain
    #: (0 = unlimited).
    core_failure_budget: int = 0
    core_failure_downtime_us: int = 120_000

    #: Faults are generated within [1, horizon_us].
    horizon_us: int = 2_000_000

    def __post_init__(self) -> None:
        if self.horizon_us <= 0:
            raise ValueError("horizon_us must be positive")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1.0")
        if not 0.0 < self.thermal_cap_ratio <= 1.0:
            raise ValueError("thermal_cap_ratio must be in (0, 1]")
        if self.min_online_cpus < 1:
            raise ValueError("min_online_cpus must be >= 1")
        if self.core_failure_burst < 1:
            raise ValueError("core_failure_burst must be >= 1")
        if self.core_failure_budget < 0:
            raise ValueError("core_failure_budget must be >= 0")
        if self.core_failure_downtime_us < 0:
            raise ValueError("core_failure_downtime_us must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any fault family is switched on."""
        return (self.hotplug_rate_per_s > 0.0
                or self.thermal_rate_per_s > 0.0
                or self.tick_jitter_us > 0
                or self.straggler_rate_per_s > 0.0
                or self.core_failure_rate_per_s > 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


#: Named profiles the CLI exposes via ``--faults``.
FAULT_PROFILES: Dict[str, FaultConfig] = {
    "none": FaultConfig(),
    "hotplug": FaultConfig(hotplug_rate_per_s=4.0),
    "thermal": FaultConfig(thermal_rate_per_s=4.0),
    "jitter": FaultConfig(tick_jitter_us=200),
    "stragglers": FaultConfig(straggler_rate_per_s=6.0),
    "chaos": FaultConfig(hotplug_rate_per_s=3.0, thermal_rate_per_s=3.0,
                         tick_jitter_us=150, straggler_rate_per_s=4.0),
    # Correlated same-socket core-failure families (fault-tolerant RT).
    "corefail": FaultConfig(core_failure_rate_per_s=3.0,
                            core_failure_burst=2,
                            core_failure_budget=8),
    "corefail-burst": FaultConfig(core_failure_rate_per_s=2.0,
                                  core_failure_burst=4,
                                  core_failure_budget=12,
                                  core_failure_downtime_us=200_000),
}


def fault_profile(name: str) -> FaultConfig:
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown fault profile {name!r}; "
                       f"known: {sorted(FAULT_PROFILES)}") from None


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault: apply ``kind`` at ``at_us`` to ``target``.

    ``target`` is a hardware thread for ``cpu_offline``, ``straggler``
    and ``core_failure``, a physical core for ``thermal_cap``.
    ``duration_us`` is the downtime (hotplug, core failure) or cap
    duration (thermal); ``value`` carries the cap in MHz or the
    straggler factor scaled by 100.
    """

    at_us: int
    kind: str
    target: int
    duration_us: int = 0
    value: int = 0


class FaultPlan:
    """An ordered, deterministic list of faults plus the jitter setting."""

    def __init__(self, specs: List[FaultSpec], tick_jitter_us: int = 0,
                 jitter_seed_name: str = "faults:jitter") -> None:
        self.specs = sorted(specs, key=lambda s: (s.at_us, s.kind, s.target))
        self.tick_jitter_us = tick_jitter_us
        self.jitter_seed_name = jitter_seed_name

    def __len__(self) -> int:
        return len(self.specs)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.specs:
            out[s.kind] = out.get(s.kind, 0) + 1
        return out

    def describe(self) -> str:
        parts = [f"{k}={n}" for k, n in sorted(self.counts().items())]
        if self.tick_jitter_us:
            parts.append(f"tick_jitter=±{self.tick_jitter_us}µs")
        return "faults: " + (", ".join(parts) if parts else "none")

    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, config: FaultConfig, topology: Topology,
                 nominal_mhz: int, min_mhz: int,
                 rng: RngRegistry) -> "FaultPlan":
        """Expand ``config`` into concrete faults for one machine shape.

        Every family draws from its own named stream, in a fixed order
        (times first, then targets), so the expansion is reproducible and
        families are independent.  A correlated core-failure burst draws
        its targets from one socket's cpus (``topology.cpus_of_socket``),
        so all targets of one burst share a socket.
        """
        n_cpus = topology.n_cpus
        horizon = config.horizon_us
        specs: List[FaultSpec] = []

        n_hotplug = _count(config.hotplug_rate_per_s, horizon)
        if n_hotplug:
            s = rng.stream("faults:hotplug")
            times = sorted(s.randrange(1, horizon + 1)
                           for _ in range(n_hotplug))
            for t in times:
                specs.append(FaultSpec(
                    at_us=t, kind=KIND_CPU_OFFLINE,
                    target=s.randrange(n_cpus),
                    duration_us=config.hotplug_downtime_us))

        n_thermal = _count(config.thermal_rate_per_s, horizon)
        if n_thermal:
            s = rng.stream("faults:thermal")
            cap = max(min_mhz, int(nominal_mhz * config.thermal_cap_ratio))
            times = sorted(s.randrange(1, horizon + 1)
                           for _ in range(n_thermal))
            for t in times:
                specs.append(FaultSpec(
                    at_us=t, kind=KIND_THERMAL_CAP,
                    target=s.randrange(topology.n_physical_cores),
                    duration_us=config.thermal_duration_us, value=cap))

        n_straggler = _count(config.straggler_rate_per_s, horizon)
        if n_straggler:
            s = rng.stream("faults:straggler")
            times = sorted(s.randrange(1, horizon + 1)
                           for _ in range(n_straggler))
            for t in times:
                specs.append(FaultSpec(
                    at_us=t, kind=KIND_STRAGGLER,
                    target=s.randrange(n_cpus),
                    value=int(config.straggler_factor * 100)))

        n_bursts = _count(config.core_failure_rate_per_s, horizon)
        if n_bursts:
            s = rng.stream("faults:corefail")
            times = sorted(s.randrange(1, horizon + 1)
                           for _ in range(n_bursts))
            socket_size = n_cpus // topology.n_sockets
            budget = config.core_failure_budget
            used = 0
            for t in times:
                if budget and used >= budget:
                    break
                k = min(config.core_failure_burst, socket_size)
                if budget:
                    k = min(k, budget - used)
                socket = s.randrange(topology.n_sockets)
                cpus = s.sample(topology.cpus_of_socket[socket], k)
                for c in sorted(cpus):
                    specs.append(FaultSpec(
                        at_us=t, kind=KIND_CORE_FAILURE, target=c,
                        duration_us=config.core_failure_downtime_us))
                used += k

        return cls(specs, tick_jitter_us=config.tick_jitter_us)


def _count(rate_per_s: float, horizon_us: int) -> int:
    return max(0, round(rate_per_s * horizon_us / 1_000_000))

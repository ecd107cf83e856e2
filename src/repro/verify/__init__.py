"""Property-based fuzzing and differential-oracle verification.

Three pillars, used by ``repro verify`` and by the test suite:

* :mod:`generate` — seeded, reproducible random scenarios (workload ×
  machine × scheduler × Nest parameters × faults), one independent RNG
  stream per scenario index; a scenario is a
  :class:`~repro.experiments.parallel.RunSpec`, the same run description
  the sweeps and the result cache use;
* :mod:`oracle` — replays a run's structured event log and metrics
  registry against ~a dozen paper-derived invariants (§3.1–§3.4);
* :mod:`differential` — runs the same scenario through configurations
  that must agree (serial vs parallel, cached vs uncached, clean vs
  empty fault plan) or relate (Nest vs CFS) and compares canonical
  serializations.

:mod:`fuzz` orchestrates all three and, on failure, :mod:`shrink`
reduces the scenario to a minimal reproducer persisted by :mod:`repro`
as a JSON file that ``repro verify replay`` (and the permanent
regression test ``tests/test_repros.py``) can re-run.

:mod:`conformance` packages the pillars into the policy SDK's
auto-applied certification battery (``repro verify conformance``,
DESIGN.md §11.2).
"""

from .conformance import (ConformanceCheck, ConformanceReport,
                          render_report, run_conformance)
from .differential import (DIFF_CHECKS, check_cached_roundtrip,
                           check_empty_fault_plan, check_nest_vs_cfs,
                           check_serial_vs_parallel)
from .execute import RunArtifacts, run_scenario
from .fuzz import FuzzConfig, FuzzReport, fuzz
from .generate import ScenarioGenerator, scenario_strategy
from .oracle import INVARIANTS, NestSnapshot, Violation, check_run
from .repro import load_repro, replay_repro, save_repro
from .shrink import shrink

__all__ = [
    "ConformanceCheck", "ConformanceReport", "DIFF_CHECKS", "FuzzConfig",
    "FuzzReport", "INVARIANTS", "NestSnapshot", "RunArtifacts",
    "ScenarioGenerator", "Violation", "check_cached_roundtrip",
    "check_empty_fault_plan", "check_nest_vs_cfs", "check_run",
    "check_serial_vs_parallel", "fuzz", "load_repro", "render_report",
    "replay_repro", "run_conformance", "run_scenario", "save_repro",
    "scenario_strategy", "shrink",
]

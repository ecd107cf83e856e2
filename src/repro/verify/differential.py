"""Differential checks: pairs of configurations that must agree.

Where the oracle checks one run against the paper's invariants, the
differential layer checks runs against *each other*:

* **serial vs parallel** — a :class:`SweepExecutor` fan-out must produce
  bit-identical results to a plain ``execute_spec`` loop over the same
  specs (PR-1's core determinism promise);
* **cached vs uncached** — a result served from the content-addressed
  cache must be bit-identical to one computed fresh, and the JSON
  round-trip must be lossless;
* **clean vs empty fault plan** — enabling the fault subsystem with
  rates so low the plan expands to zero faults must not perturb the
  simulation at all (the injector may only act through planned faults);
* **nest vs CFS** — scheduling policy affects *when* work runs, never
  *how much*: both schedulers must create the same task population.

Each check takes a :class:`RunSpec` scenario and returns ``Violation``\\ s using
``diff.*`` invariant names, so fuzz reports, shrinking and repro files
treat differential failures exactly like oracle failures.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from ..experiments.cache import (ResultCache, result_from_jsonable,
                                 result_to_jsonable)
from ..experiments.parallel import RunSpec, SweepExecutor, execute_spec
from ..faults.plan import FaultConfig
from .oracle import Violation

#: A rate this low rounds to zero planned faults over any sane horizon,
#: while still flipping ``FaultConfig.enabled`` on — the injector is
#: installed but must be a pure bystander.
EPSILON_RATE = 1e-9


def canonical(result, machine_key: str,
              drop_extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """A comparable image of a RunResult: everything deterministic.

    ``sim_wall_s`` and the ``host`` memory block are host-side telemetry
    and never comparable; ``drop_extra`` removes ``extra`` keys one side
    legitimately lacks (e.g. ``faults_injected`` when comparing clean vs
    faulted-empty).
    """
    data = result_to_jsonable(result, machine_key)
    data.pop("sim_wall_s", None)
    data.pop("host", None)
    extra = data["extra"]
    for key in drop_extra:
        extra.pop(key, None)
    return data


def _diff_fields(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_serial_vs_parallel(scenario: RunSpec) -> Iterable[Violation]:
    """PR-1 determinism: pool workers must equal an in-process loop."""
    specs = [dataclasses.replace(scenario, seed=scenario.seed + i)
             for i in range(3)]
    serial = [execute_spec(s) for s in specs]
    parallel = SweepExecutor(jobs=2, cache=None).run(specs)
    for spec, s_res, p_res in zip(specs, serial, parallel):
        a = canonical(s_res, scenario.machine)
        b = canonical(p_res, scenario.machine)
        if a != b:
            yield Violation(
                "diff.serial_vs_parallel",
                f"seed {spec.seed}: worker-process result differs from "
                f"in-process result on {_diff_fields(a, b)}")


def check_cached_roundtrip(spec: RunSpec) -> Iterable[Violation]:
    """Fresh run == JSON round-trip == re-run served alongside the cache."""
    fresh = execute_spec(spec)
    image = canonical(fresh, spec.machine)
    with tempfile.TemporaryDirectory(prefix="verify-cache-") as tmp:
        cache = ResultCache(root=Path(tmp))
        cache.put_spec(spec, fresh)
        cached = cache.get_spec(spec)
    if cached is None:
        yield Violation("diff.cached_roundtrip",
                        "stored result did not come back from the cache")
        return
    back = canonical(cached, spec.machine)
    if back != image:
        yield Violation(
            "diff.cached_roundtrip",
            f"cache round-trip changed {_diff_fields(image, back)}")
    rerun = canonical(execute_spec(spec), spec.machine)
    if rerun != image:
        yield Violation(
            "diff.cached_roundtrip",
            f"re-running the same spec changed {_diff_fields(image, rerun)} "
            f"— the simulation is not deterministic")
    # The serializer itself must also be lossless through a dict cycle.
    cycled = canonical(
        result_from_jsonable(result_to_jsonable(fresh, spec.machine)),
        spec.machine)
    if cycled != image:
        yield Violation(
            "diff.cached_roundtrip",
            f"jsonable cycle changed {_diff_fields(image, cycled)}")


def check_empty_fault_plan(scenario: RunSpec) -> Iterable[Violation]:
    """An armed injector with nothing planned must change nothing."""
    if scenario.faults is not None:
        return  # only meaningful against a clean baseline
    clean = execute_spec(scenario)
    empty = FaultConfig(hotplug_rate_per_s=EPSILON_RATE)
    faulted = execute_spec(dataclasses.replace(scenario, faults=empty))
    injected = faulted.extra.get("faults_injected", 0.0)
    if injected:
        yield Violation("diff.empty_fault_plan",
                        f"epsilon rate still planned {injected} fault(s)")
        return
    a = canonical(clean, scenario.machine)
    b = canonical(faulted, scenario.machine,
                  drop_extra=("faults_injected",))
    # The armed injector registers its (all-zero) fault counters; that
    # bookkeeping is expected — anything *counted* is not.
    hot = {k: v for k, v in b["metrics"].items()
           if k.startswith("kernel.fault_") and v["value"]}
    if hot:
        yield Violation("diff.empty_fault_plan",
                        f"zero-fault plan still counted faults: {hot}")
    for side in (a, b):
        side["metrics"] = {k: v for k, v in side["metrics"].items()
                           if not k.startswith("kernel.fault_")}
    if a != b:
        yield Violation(
            "diff.empty_fault_plan",
            f"a zero-fault plan perturbed {_diff_fields(a, b)}")


def check_nest_vs_cfs(scenario: RunSpec) -> Iterable[Violation]:
    """Policies place work; they must not create or destroy it."""
    if scenario.scheduler != "nest" or scenario.max_us is not None:
        return  # a horizon cap truncates forks differently per policy
    nest = execute_spec(scenario)
    cfs = execute_spec(dataclasses.replace(scenario, scheduler="cfs",
                                           nest_params=None))
    if nest.n_tasks != cfs.n_tasks:
        yield Violation(
            "diff.nest_vs_cfs",
            f"Nest ran {nest.n_tasks} tasks, CFS ran {cfs.n_tasks} — the "
            f"policy changed the amount of work")


#: All differential checks, in cost order (cheapest first).  The fuzzer
#: samples from these; ``check_serial_vs_parallel`` spawns processes and
#: is additionally rate-limited by ``FuzzConfig.par_every``.
DIFF_CHECKS: Tuple[Tuple[str, Any], ...] = (
    ("diff.cached_roundtrip", check_cached_roundtrip),
    ("diff.empty_fault_plan", check_empty_fault_plan),
    ("diff.nest_vs_cfs", check_nest_vs_cfs),
    ("diff.serial_vs_parallel", check_serial_vs_parallel),
)

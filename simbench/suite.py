"""The benchmark's workloads: which simulations a pass runs, and how one
simulation (or trace-analysis request) is executed and digested.

Every workload is serial and closed-loop: one simulation at a time, each
started when the previous one finished, all through the default (``ref``)
engine and without the on-disk result cache.  The ``--seed`` argument
only draws the simulation seeds; the program receives the generated runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "digests.json"

#: The seed whose every simulation has a pinned digest in ``digests.json``.
DEFAULT_SEED = 1

#: The eleven packages of the paper's configure suite (Figures 4-7).
CONFIGURE_PACKAGES = ("erlang", "ffmpeg", "gcc", "gdb", "imagemagick",
                      "linux", "llvm_ninja", "llvm_unix", "mplayer",
                      "nodejs", "php")
#: Figure 5 combinations: the four standard ones plus Smove.
FIG5_COMBOS = (("cfs", "schedutil"), ("cfs", "performance"),
               ("nest", "schedutil"), ("nest", "performance"),
               ("smove", "schedutil"))
FIG5_MACHINES = ("5218_2s", "e78870_4s")
SCALE = 0.6

#: trace-analyze request mix: (workload, machine).
TRACE_MIX = (("nginx", "5218_2s"), ("dacapo-h2", "6130_4s"),
             ("phoronix-zstd-compression-10", "5218_2s"),
             ("configure-llvm_ninja", "5218_2s"))

WORKLOADS = ("configure-suite", "wakeup-storm", "trace-analyze")

#: Nominal host seconds of one pass, used only to turn ``--seconds`` into a
#: fixed pass count, so both sides of a comparison do the same work.
NOMINAL_PASS_S = {"configure-suite": 7.5, "wakeup-storm": 11.0,
                  "trace-analyze": 3.3}


@dataclass(frozen=True)
class Run:
    """One simulation; ``analyze`` makes it a trace-analysis request."""

    workload: str
    machine: str
    scheduler: str
    governor: str
    seed: int
    scale: float = 1.0
    analyze: bool = False

    @property
    def key(self) -> str:
        return (f"{self.workload}/{self.machine}/"
                f"{self.scheduler}-{self.governor}/s{self.seed}")


def _seeds(workload: str, seed: int, n: int) -> List[int]:
    rng = random.Random(f"simbench:{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def runs_for(workload: str, seed: int) -> List[Run]:
    """The simulations of one pass of ``workload`` at benchmark seed ``seed``."""
    if workload == "configure-suite":
        out = []
        seeds = iter(_seeds(workload, seed,
                            len(FIG5_MACHINES) * len(CONFIGURE_PACKAGES)))
        for machine in FIG5_MACHINES:
            for pkg in CONFIGURE_PACKAGES:
                # Paired like compare(): every combo of one package and
                # machine shares a simulation seed.
                s = next(seeds)
                out += [Run(f"configure-{pkg}", machine, sched, gov, s, SCALE)
                        for sched, gov in FIG5_COMBOS]
        return out
    if workload == "wakeup-storm":
        seeds = _seeds(workload, seed, 4)
        return [Run(wl, "5218_2s", sched, "schedutil", s)
                for wl in ("hackbench-g1", "hackbench-g2")
                for sched in ("cfs", "nest", "scxnest")
                for s in seeds]
    if workload == "trace-analyze":
        seeds = _seeds(workload, seed, 3)
        return [Run(wl, machine, sched, "schedutil", s, SCALE, analyze=True)
                for wl, machine in TRACE_MIX
                for sched in ("cfs", "nest")
                for s in seeds]
    raise KeyError(f"unknown workload {workload!r}; "
                   f"expected one of {', '.join(WORKLOADS)}")


def canary_runs(workload: str) -> List[Run]:
    """Default-seed runs re-checked against their pins after a run at
    another seed: every scheduler and machine of the workload, cheaply."""
    runs = runs_for(workload, DEFAULT_SEED)
    if workload == "configure-suite":
        return [r for r in runs if r.workload == "configure-gcc"]
    if workload == "wakeup-storm":
        first = runs[0].seed
        return [r for r in runs
                if r.workload == "hackbench-g1" and r.seed == first]
    first = runs[0].seed
    return [r for r in runs if r.seed == first]


def n_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


class Api(NamedTuple):
    """The program entry points a pass calls; tracing swaps in wrappers."""

    make_workload: Callable[..., Any]
    get_machine: Callable[..., Any]
    run_experiment: Callable[..., Any]
    analyze_run: Callable[..., Any]
    report_json: Callable[..., str]
    export_trace: Callable[..., bytes]


def load_api() -> Api:
    """Import the program (``repro`` from the checkout's ``src``)."""
    from repro.experiments.runner import run_experiment
    from repro.hw.machines import get_machine
    from repro.obs.analysis import analyze_run, report_json
    from repro.obs.export import chrome_trace
    from repro.workloads.catalog import make_workload

    def export_trace(result: Any, n_cpus: int) -> bytes:
        """What ``repro run --trace`` writes, serialised in memory."""
        doc = chrome_trace(result.trace_segments, result.events,
                           n_cpus=n_cpus,
                           label=f"{result.workload} "
                                 f"{result.scheduler}-{result.governor}")
        return json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode()

    return Api(make_workload, get_machine, run_experiment, analyze_run,
               report_json, export_trace)


def build(api: Api, runs: List[Run]) -> None:
    """Workload and machine construction (what ``setup_s`` times)."""
    for run in runs:
        api.make_workload(run.workload, scale=run.scale)
        api.get_machine(run.machine)


class Outcome(NamedTuple):
    digest: str
    events: int        # engine events dispatched
    logged: int        # obs events logged (trace-analyze only)


def execute(api: Api, run: Run) -> Outcome:
    """Run one simulation (and, for a request, its analysis and export)."""
    machine = api.get_machine(run.machine)
    wl = api.make_workload(run.workload, scale=run.scale)
    res = api.run_experiment(wl, machine, run.scheduler, run.governor,
                             seed=run.seed, collect_events=run.analyze,
                             record_trace=run.analyze)
    extra: Dict[str, str] = {}
    logged = 0
    if run.analyze:
        report = api.analyze_run(res, res.events, n_cpus=machine.n_cpus,
                                 segments=res.trace_segments)
        doc = api.report_json(report).encode()
        trace = api.export_trace(res, machine.n_cpus)
        extra = {"report": hashlib.sha256(doc).hexdigest(),
                 "perfetto": hashlib.sha256(trace).hexdigest()}
        logged = len(res.events)
    return Outcome(digest_of(res, extra), res.events_processed, logged)


def digest_of(result: Any, extra: Optional[Dict[str, str]] = None) -> str:
    """Digest of a result's deterministic surface: makespan, energy,
    events processed and the metrics registry (plus ``extra`` hashes)."""
    body = {"makespan_us": result.makespan_us,
            "energy_j": repr(result.energy_joules),
            "events": result.events_processed,
            "metrics": result.metrics}
    body.update(extra or {})
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, str]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("default_seed") != DEFAULT_SEED:
        raise ValueError(f"{path.name} pins seed {doc.get('default_seed')}, "
                         f"expected {DEFAULT_SEED}")
    return doc["workloads"]


def pin_mismatches(workload: str, digests: Dict[str, str],
                   pins: Dict[str, Dict[str, str]]) -> List[str]:
    """Keys of runs whose digest differs from (or is missing in) the pins."""
    pinned = pins.get(workload, {})
    return [key for key, d in digests.items() if pinned.get(key) != d]

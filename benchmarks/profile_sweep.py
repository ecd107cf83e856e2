"""Profiling harness for the simulation engine's hot paths.

Runs a representative configure sweep (the Figure 5 shape: llvm_ninja on
the Cascade Lake 5218 under every standard combo) single-process and
reports wall time, events processed and engine throughput, optionally with
a cProfile breakdown.  This is the harness used to drive — and to keep
honest — the hot-path optimization work:

    PYTHONPATH=src python benchmarks/profile_sweep.py            # timing
    PYTHONPATH=src python benchmarks/profile_sweep.py --profile  # + cProfile
    PYTHONPATH=src python benchmarks/profile_sweep.py --phases   # phase split
    PYTHONPATH=src python benchmarks/profile_sweep.py --json out.json
    PYTHONPATH=src python benchmarks/profile_sweep.py --phoronix # other sweep
    PYTHONPATH=src python benchmarks/profile_sweep.py --obs-check # obs guard

``--json`` times the sweep un-profiled and writes a machine-readable
record (total wall seconds, the per-pass median/min/max, events/s) — the
format ``BENCH_trajectory.json`` entries are built from.  Wall seconds depend on the host, so compare
them only against a baseline timed on the same host: ``simbench/run.py
--reference-tree DIR`` and ``simbench/reference.py`` do that against
another checkout (e.g. the seed tree from ``git archive``).

Do not trust timings taken with ``--profile``: cProfile's tracing overhead
roughly doubles the wall time and distorts ratios.

The makespans/energies printed at the end are deterministic — if an
optimization changes them, it changed simulation semantics and
``ENGINE_VERSION`` must be bumped.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import statistics
import subprocess
import time

from repro.experiments.runner import STANDARD_COMBOS, run_experiment
from repro.hw.machines import get_machine
from repro.workloads.catalog import make_workload

#: The representative sweep: one configure workload, all standard combos.
CONFIGURE_SWEEP = [("configure-llvm_ninja", "5218_2s", s, g, 1, 0.6)
                   for s, g in STANDARD_COMBOS]

#: Alternative: a Phoronix pair on both Figure 13 machines.
PHORONIX_SWEEP = [(f"phoronix-{name}", machine, s, g, 1, 0.6)
                  for name in ("zstd-compression-10", "libavif-avifenc-1")
                  for machine in ("5218_2s", "e78870_4s")
                  for s, g in (("cfs", "schedutil"), ("nest", "schedutil"))]


def run_sweep(sweep, collect_events=False):
    results = []
    for workload, machine, scheduler, governor, seed, scale in sweep:
        wl = make_workload(workload, scale=scale)
        results.append(run_experiment(wl, get_machine(machine), scheduler,
                                      governor, seed=seed,
                                      collect_events=collect_events))
    return results


def time_sweep(sweep, repeat):
    """Un-profiled wall time of each of ``repeat`` sweep passes, plus the
    last pass's results."""
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = run_sweep(sweep)
        walls.append(time.perf_counter() - t0)
    return walls, results


# ---------------------------------------------------------------------------
# Per-phase attribution
# ---------------------------------------------------------------------------

def _phase_of(filename: str) -> str:
    """Map one profiled function's source file to a coarse engine phase."""
    path = filename.replace("\\", "/")
    if "/sim/" in path:
        return "event-loop"
    if "/sched/" in path or "/core/" in path:
        return "policy-dispatch"
    if "/hw/" in path:
        return "freq-energy"
    if "/metrics/" in path or "/obs/" in path:
        return "metrics-flush"
    if "/kernel/" in path:
        return "kernel"
    if "/workloads/" in path:
        return "workload"
    return "other"


def phase_breakdown(sweep, repeat):
    """One cProfile pass, aggregated into coarse phases by tottime.

    The phases answer "where does the time go" at the granularity that
    matters for hot-path work: the event loop itself, policy dispatch
    (placement scans), frequency/energy modelling, kernel accounting,
    and metrics/observability flushing.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeat):
        run_sweep(sweep)
    profiler.disable()
    stats = pstats.Stats(profiler)
    phases: dict = {}
    total = 0.0
    for (filename, _lineno, _funcname), row in stats.stats.items():
        tottime = row[2]
        total += tottime
        phase = _phase_of(filename)
        phases[phase] = phases.get(phase, 0.0) + tottime
    ordered = dict(sorted(phases.items(), key=lambda kv: -kv[1]))
    return {"total_profiled_s": round(total, 3),
            "phases_s": {k: round(v, 3) for k, v in ordered.items()},
            "phases_pct": {k: round(v / total * 100.0, 1)
                           for k, v in ordered.items() if total > 0}}


def print_phases(breakdown) -> None:
    print(f"per-phase breakdown (cProfile, {breakdown['total_profiled_s']}s "
          f"profiled — ratios are meaningful, absolutes are inflated):")
    for phase, secs in breakdown["phases_s"].items():
        pct = breakdown["phases_pct"].get(phase, 0.0)
        print(f"  {phase:16s} {secs:7.3f}s  {pct:5.1f}%")


# ---------------------------------------------------------------------------
# Benchmark record (--json)
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except Exception:
        return "unknown"


def benchmark_record(sweep, sweep_name, repeat, with_phases=False):
    """Time the sweep un-profiled and build the JSON record.

    ``wall_s`` is the total over the ``repeat`` passes; the per-pass
    median, min and max show how noisy the host was while timing.
    """
    walls, results = time_sweep(sweep, repeat)
    wall = sum(walls)
    events = sum(r.events_processed for r in results) * repeat
    record = {
        "workload": sweep_name,
        "git_sha": _git_sha(),
        "n_simulations": len(sweep) * repeat,
        "repeat": repeat,
        "wall_s": round(wall, 3),
        "wall_s_median": round(statistics.median(walls), 3),
        "wall_s_min": round(min(walls), 3),
        "wall_s_max": round(max(walls), 3),
        "events_per_sec": round(events / wall, 0),
    }
    if with_phases:
        record["phases"] = phase_breakdown(sweep, max(1, repeat // 2))
    return record


def obs_check(sweep, repeat: int, threshold_pct: float) -> int:
    """Guard the event log's overhead contract.

    Runs the sweep with the log disabled (no sinks — the production
    configuration) and with a memory sink attached, best-of-``repeat``
    each, and fails if attaching sinks costs more than ``threshold_pct``
    of wall time.  Also asserts the disabled/enabled runs stay
    semantically identical: instrumentation must be read-only.
    """
    def best_wall(collect):
        best, results = None, None
        for _ in range(repeat):
            t0 = time.perf_counter()
            res = run_sweep(sweep, collect_events=collect)
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best, results = wall, res
        return best, results

    off_wall, off_res = best_wall(False)
    on_wall, on_res = best_wall(True)
    for a, b in zip(off_res, on_res):
        assert a.makespan_us == b.makespan_us, \
            f"event collection changed {a.workload} [{a.label}] semantics"
        assert a.events_processed == b.events_processed
    n_events = sum(len(r.events) for r in on_res)

    overhead_pct = (on_wall - off_wall) / off_wall * 100.0
    print(f"obs off: {off_wall:.3f}s   obs on: {on_wall:.3f}s "
          f"({n_events:,} log events)   overhead: {overhead_pct:+.1f}% "
          f"(budget {threshold_pct:.0f}%, best of {repeat})")
    if overhead_pct > threshold_pct:
        print(f"FAIL: enabled-sinks overhead {overhead_pct:.1f}% exceeds "
              f"the {threshold_pct:.0f}% budget")
        return 1
    print("OK: event-log overhead within budget")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profile", action="store_true",
                    help="print a cProfile breakdown (top 25 by cumulative)")
    ap.add_argument("--phases", action="store_true",
                    help="print per-phase timings (event loop vs policy "
                         "dispatch vs metrics flush) from one cProfile pass")
    ap.add_argument("--phoronix", action="store_true",
                    help="profile the Phoronix sweep instead of configure")
    ap.add_argument("--repeat", type=int, default=1,
                    help="repeat the sweep N times (steadier timing)")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="time the sweep un-profiled and write the "
                         "benchmark record here")
    ap.add_argument("--obs-check", action="store_true",
                    help="measure event-log on/off overhead and fail if "
                         "attaching sinks costs more than the budget")
    ap.add_argument("--obs-threshold", type=float, default=10.0,
                    help="obs-check overhead budget in percent (default 10)")
    args = ap.parse_args()

    sweep = PHORONIX_SWEEP if args.phoronix else CONFIGURE_SWEEP
    sweep_name = ("phoronix x (5218_2s,e78870_4s)" if args.phoronix
                  else "configure-llvm_ninja x STANDARD_COMBOS on 5218_2s")
    if args.obs_check:
        return obs_check(sweep, repeat=max(3, args.repeat),
                         threshold_pct=args.obs_threshold)

    if args.json:
        record = benchmark_record(sweep, sweep_name, args.repeat,
                                  with_phases=args.phases)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"{record['n_simulations']} simulations in "
              f"{record['wall_s']:.3f}s — {record['events_per_sec']:,.0f} "
              f"events/s")
        if args.phases:
            print_phases(record["phases"])
        print(f"record: {args.json}")
        return 0

    if args.phases:
        breakdown = phase_breakdown(sweep, args.repeat)
        print_phases(breakdown)
        return 0

    profiler = cProfile.Profile() if args.profile else None

    t0 = time.perf_counter()
    if profiler:
        profiler.enable()
    for _ in range(args.repeat):
        results = run_sweep(sweep)
    if profiler:
        profiler.disable()
    wall = time.perf_counter() - t0

    events = sum(r.events_processed for r in results) * args.repeat
    print(f"sweep: {len(sweep) * args.repeat} simulations "
          f"in {wall:.3f}s — {events:,} events, {events / wall:,.0f} "
          f"events/s")
    for r in results:
        print(f"  {r.workload} [{r.label}]  makespan={r.makespan_us}us  "
              f"energy={r.energy_joules:.6f}J")

    if profiler:
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Host-time benchmark of the Nest simulator, end to end and per layer.

Run from the repository root:

    python3 simbench/run.py --workload configure-suite --seed 1 --seconds 30 --trace 0
    python3 simbench/run.py --workload wakeup-storm --seed 3 --seconds 30 --trace 1
    python3 simbench/run.py --pin                    # re-pin default-seed digests
    python3 simbench/run.py --reference-tree DIR     # same-host reference tree

Workloads (see ``suite.py``): ``configure-suite`` (the Figure 5 sweep),
``wakeup-storm`` (hackbench under three policies) and ``trace-analyze``
(simulate with the event log and segment recording on, then analyse and
export).  One process runs one workload serially through the default
engine, with no result cache.  ``--seconds`` is turned into a fixed number
of passes, so two versions of the program are measured on the same work.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
times are in reference seconds, calibrated against host speed (see
``calibrate.py``); the raw host figures are printed beside them.
``--trace 1`` runs one untraced pass and two traced passes (see
``spans.py``) and reports the per-layer metrics; it fails unless the traced
passes reproduce the untraced digests and repeat every count exactly.  The
spans are written to ``.simbench/`` under the repository root.

Every simulation's output is digested.  Digests must agree across passes,
and at the default seed they must match ``digests.json``; at any other seed
a canary subset of default-seed runs is checked against the pins after
timing.  Any failure makes the run exit 1.  The last line of standard
output is a JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate
import spans
import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".simbench"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Calibration samples each set-up probe takes before timing its set-up.
SETUP_CALIBRATION = 5
#: ``run_tail_ms`` is the highest percentile with this many runs beyond it.
TAIL_BEYOND = 10
#: Traced passes; their counts must agree exactly.
TRACED_PASSES = 2

UNITS = {"wall_s": "s", "events_per_s": "1/s", "run_p50_ms": "ms",
         "run_tail_ms": "ms", "rss_peak_mb": "MB", "setup_s": "s",
         "failed_frac": "fraction"}


def tail(samples: List[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile of
    ``samples`` that has at least ``beyond`` samples ranked after it."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - beyond)
    return xs[rank - 1], 100.0 * rank / n, n


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAIL {why}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Pass:
    """One pass over a workload's runs."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.run_s: List[float] = []
        self.digests: Dict[str, str] = {}
        self.events = 0
        self.logged = 0
        self.calib: List[float] = []


def run_pass(api: suite.Api, runs: List[suite.Run], tally: Tally,
             rec: Optional[spans.Recorder] = None, label: str = "",
             calibrated: bool = False) -> Pass:
    """Run every simulation once; ``calibrated`` takes a calibration
    sample before each (outside the timed part)."""
    p = Pass()
    for run in runs:
        tally.attempted += 1
        if calibrated:
            p.calib.append(calibrate.sample())
        t0 = time.perf_counter()
        try:
            if rec is None:
                out = suite.execute(api, run)
            else:
                with rec.run(f"{label}/{run.key}"):
                    out = suite.execute(api, run)
        except Exception as exc:  # a failed simulation is a measurement
            p.wall_s += time.perf_counter() - t0
            tally.fail(f"{run.key}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        p.wall_s += dt
        p.run_s.append(dt)
        p.digests[run.key] = out.digest
        p.events += out.events
        p.logged += out.logged
    return p


def check_passes(passes: List[Pass], tally: Tally, what: str) -> None:
    """Every pass must reproduce the first pass's digests."""
    first = passes[0].digests
    for i, p in enumerate(passes[1:], 1):
        for key, d in p.digests.items():
            if first.get(key) != d:
                tally.fail(f"{key}: {what} pass {i} digest {d} != "
                           f"{first.get(key)}")


def check_pins(workload: str, seed: int, api: suite.Api, passes: List[Pass],
               tally: Tally) -> None:
    """Default seed: every measured run against its pin.  Other seeds: the
    canary subset of default-seed runs, executed after timing."""
    pins = suite.load_pins()
    if seed == suite.DEFAULT_SEED:
        for p in passes:
            for key in suite.pin_mismatches(workload, p.digests, pins):
                tally.fail(f"{key}: digest {p.digests[key]} != pinned "
                           f"{pins.get(workload, {}).get(key)}")
        return
    canary = run_pass(api, suite.canary_runs(workload), tally)
    for key in suite.pin_mismatches(workload, canary.digests, pins):
        tally.fail(f"{key}: canary digest {canary.digests[key]} != pinned "
                   f"{pins.get(workload, {}).get(key)}")


def measure_setup(workload: str, seed: int) -> List[Tuple[float, float]]:
    """(host seconds, slowness) of set-up in fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        doc = json.loads(proc.stdout.splitlines()[-1])
        samples.append((doc["setup_s"], doc["slowness"]))
    return samples


def setup_probe(workload: str, seed: int) -> int:
    slow = calibrate.slowness([calibrate.sample()
                               for _ in range(SETUP_CALIBRATION)])
    t0 = time.perf_counter()
    api = suite.load_api()
    suite.build(api, suite.runs_for(workload, seed))
    print(json.dumps({"setup_s": time.perf_counter() - t0,
                      "slowness": slow}))
    return 0


def end_to_end(workload: str, seed: int, seconds: float, api: suite.Api,
               tally: Tally) -> Dict[str, float]:
    runs = suite.runs_for(workload, seed)
    n = suite.n_passes(workload, seconds)
    setup = measure_setup(workload, seed)
    passes = [run_pass(api, runs, tally, calibrated=True) for _ in range(n)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_passes(passes, tally, "untraced")
    check_pins(workload, seed, api, passes, tally)

    def summary(scale: List[float], setup_s: List[float]) -> Dict[str, float]:
        """The time metrics, each pass's times divided by its ``scale``."""
        run_s = [t / f for p, f in zip(passes, scale) for t in p.run_s]
        return {
            "wall_s": statistics.median(p.wall_s / f
                                        for p, f in zip(passes, scale)),
            "events_per_s": statistics.median(
                p.events * f / p.wall_s for p, f in zip(passes, scale)),
            "run_p50_ms": 1000.0 * statistics.median(run_s),
            "run_tail_ms": 1000.0 * tail(run_s)[0],
            "rss_peak_mb": rss_mb,
            "setup_s": statistics.median(setup_s),
        }

    slowness = [calibrate.slowness(p.calib) for p in passes]
    host = summary([1.0] * n, [s for s, _ in setup])
    _, tail_pct, n_runs = tail([t for p in passes for t in p.run_s])
    print(f"{workload}: seed {seed}, {n} pass(es) x {len(runs)} runs, "
          f"{passes[0].events:,} events and {passes[0].logged:,} logged "
          f"per pass; run_tail_ms is p{tail_pct:.1f} of {n_runs} runs")
    print("  host slowness of passes "
          + " ".join(f"{f:.3f}" for f in slowness) + ", of set-up probes "
          + " ".join(f"{f:.3f}" for _, f in setup))
    print("  in host seconds: " + ", ".join(
        f"{k} {v:.6g}" for k, v in host.items() if k != "rss_peak_mb"))
    return summary(slowness, [s / f for s, f in setup])


def per_layer(workload: str, seed: int, api: suite.Api, tally: Tally
              ) -> Dict[str, float]:
    runs = suite.runs_for(workload, seed)
    plain = run_pass(api, runs, tally)
    rec = spans.Recorder()
    traced: List[Pass] = []
    layer: List[Dict[str, float]] = []
    totals = []
    with spans.instrumented(rec) as inst:
        tapi = inst.api(api)
        for i in range(TRACED_PASSES):
            since = len(rec.aggregates)
            traced.append(run_pass(tapi, runs, tally, rec, f"traced{i}"))
            totals.append(rec.totals(since))
            layer.append(spans.layer_metrics(totals[-1]))
    check_passes([plain] + traced, tally, "traced")
    calls = [{k: v[0] for k, v in t.items()} for t in totals]
    for i, c in enumerate(calls[1:], 1):
        for key in sorted(set(calls[0]) | set(c)):
            if calls[0].get(key) != c.get(key):
                tally.fail(f"trace count {key}: pass {i} {c.get(key)} "
                           f"!= pass 0 {calls[0].get(key)}")
    check_pins(workload, seed, api, [plain], tally)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    n_lines = rec.write(str(out))
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    # Counts are equal across traced passes (checked above); times and
    # ratios are averaged over them.
    metrics = {k: (v if isinstance(v, int)
                   else statistics.fmean(m[k] for m in layer))
               for k, v in layer[0].items()}
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain.wall_s - 1)
    print(f"{workload}: seed {seed}, untraced pass {plain.wall_s:.3f} s, "
          f"traced passes " + " ".join(f"{p.wall_s:.3f}" for p in traced)
          + f" s; {n_lines} span records -> {out.relative_to(ROOT)}")
    shares = {name.split(".")[0]: v / traced_wall
              for name, v in metrics.items() if name.endswith(".self_s")}
    print("  self-time share: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(),
                                          key=lambda kv: -kv[1])))
    return metrics


def reference(tree: Path, seed: int) -> int:
    """configure-suite on this checkout and on another source tree."""
    out = {}
    for label, src in (("head", SRC), ("reference", tree / "src")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(src),
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=900)
        if proc.returncode != 0:
            print(f"error: {label} tree failed:\n{proc.stderr}",
                  file=sys.stderr)
            return 2
        out[label] = json.loads(proc.stdout.splitlines()[-1])
    head, ref = out["head"], out["reference"]
    print(f"configure-suite seed {seed} (informational): wall_s head "
          f"{head['reference_s']:.3f} s, reference tree "
          f"{ref['reference_s']:.3f} s; host seconds {head['wall_s']:.3f} "
          f"and {ref['wall_s']:.3f}")
    bad = [k for k in head["runs"] if head["runs"][k] != ref["runs"].get(k)]
    for key in bad:
        print(f"  MISMATCH {key}: head {head['runs'][key]} reference "
              f"{ref['runs'].get(key)}")
    print(f"  {len(head['runs']) - len(bad)}/{len(head['runs'])} runs agree "
          f"on makespan and energy")
    return 1 if bad else 0


def pin() -> int:
    api = suite.load_api()
    tally = Tally()
    doc = {"default_seed": suite.DEFAULT_SEED, "workloads": {}}
    for workload in suite.WORKLOADS:
        p = run_pass(api, suite.runs_for(workload, suite.DEFAULT_SEED),
                     tally)
        doc["workloads"][workload] = p.digests
        print(f"{workload}: {len(p.digests)} digests")
    if tally.failed:
        return 1
    suite.PINS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=suite.WORKLOADS)
    ap.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite digests.json at the default seed")
    ap.add_argument("--reference-tree", type=Path,
                    help="also time configure-suite on this source tree")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin()
    if args.reference_tree is not None:
        return reference(args.reference_tree.resolve(), args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    api = suite.load_api()
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, api, tally)
        units = {}
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, api,
                             tally)
        units = UNITS
    failed_frac = tally.failed / max(1, tally.attempted)
    for name, value in metrics.items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"  {name:28s} {shown} {units.get(name, unit_of(name))}")
    print(f"  {'failed_frac':28s} {failed_frac:16.6f} fraction "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                    for k, v in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
